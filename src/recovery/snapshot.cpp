#include "recovery/snapshot.h"

#include <bit>
#include <limits>

#include "common/checksum.h"
#include "wl/wear_leveler.h"

namespace twl {

void SnapshotWriter::put_u16(std::uint16_t v) {
  put_u8(static_cast<std::uint8_t>(v));
  put_u8(static_cast<std::uint8_t>(v >> 8));
}

void SnapshotWriter::put_u32(std::uint32_t v) {
  put_u16(static_cast<std::uint16_t>(v));
  put_u16(static_cast<std::uint16_t>(v >> 16));
}

void SnapshotWriter::put_u64(std::uint64_t v) {
  put_u32(static_cast<std::uint32_t>(v));
  put_u32(static_cast<std::uint32_t>(v >> 32));
}

void SnapshotWriter::put_double(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void SnapshotWriter::put_string(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void SnapshotWriter::put_u8_vec(const std::vector<std::uint8_t>& v) {
  put_u64(v.size());
  bytes_.insert(bytes_.end(), v.begin(), v.end());
}

void SnapshotWriter::put_u16_vec(const std::vector<std::uint16_t>& v) {
  put_u64(v.size());
  for (std::uint16_t x : v) put_u16(x);
}

void SnapshotWriter::put_u32_vec(const std::vector<std::uint32_t>& v) {
  put_u64(v.size());
  for (std::uint32_t x : v) put_u32(x);
}

void SnapshotWriter::put_u64_vec(const std::vector<std::uint64_t>& v) {
  put_u64(v.size());
  for (std::uint64_t x : v) put_u64(x);
}

void SnapshotReader::need(std::size_t n) {
  if (size_ - pos_ < n) {
    throw SnapshotError("snapshot truncated: need " + std::to_string(n) +
                        " bytes, have " + std::to_string(size_ - pos_));
  }
}

std::uint8_t SnapshotReader::get_u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t SnapshotReader::get_u16() {
  const auto lo = get_u8();
  const auto hi = get_u8();
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t SnapshotReader::get_u32() {
  const std::uint32_t lo = get_u16();
  const std::uint32_t hi = get_u16();
  return lo | (hi << 16);
}

std::uint64_t SnapshotReader::get_u64() {
  const std::uint64_t lo = get_u32();
  const std::uint64_t hi = get_u32();
  return lo | (hi << 32);
}

double SnapshotReader::get_double() {
  return std::bit_cast<double>(get_u64());
}

void SnapshotReader::check_count(std::uint64_t n, std::size_t elem_size,
                                 const char* what) {
  // Divide, never multiply: `n * elem_size` on an attacker-chosen count
  // wraps around std::uint64_t and would sail past need(), after which
  // reserve(n) attempts a multi-GB allocation before the per-element
  // reads could fail.
  if (n > remaining() / elem_size) {
    throw SnapshotError(std::string("snapshot corrupt: declared ") + what +
                        " count " + std::to_string(n) + " (x" +
                        std::to_string(elem_size) + " bytes) exceeds the " +
                        std::to_string(remaining()) +
                        " remaining payload bytes");
  }
}

std::string SnapshotReader::get_string() {
  const std::uint32_t n = get_u32();
  check_count(n, 1, "string byte");
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::uint8_t> SnapshotReader::get_u8_vec() {
  const std::uint64_t n = get_u64();
  check_count(n, 1, "u8 element");
  std::vector<std::uint8_t> v(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return v;
}

std::vector<std::uint16_t> SnapshotReader::get_u16_vec() {
  const std::uint64_t n = get_u64();
  check_count(n, 2, "u16 element");
  std::vector<std::uint16_t> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(get_u16());
  return v;
}

std::vector<std::uint32_t> SnapshotReader::get_u32_vec() {
  const std::uint64_t n = get_u64();
  check_count(n, 4, "u32 element");
  std::vector<std::uint32_t> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(get_u32());
  return v;
}

std::vector<std::uint64_t> SnapshotReader::get_u64_vec() {
  const std::uint64_t n = get_u64();
  check_count(n, 8, "u64 element");
  std::vector<std::uint64_t> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(get_u64());
  return v;
}

void SnapshotReader::expect_u64(std::uint64_t expected, const char* field) {
  const std::uint64_t got = get_u64();
  if (got != expected) {
    throw SnapshotError(std::string("snapshot field '") + field +
                        "' mismatch: snapshot has " + std::to_string(got) +
                        ", scheme expects " + std::to_string(expected));
  }
}

namespace {

// 'T' 'W' 'L' 'S' little-endian.
constexpr std::uint32_t kSnapshotMagic = 0x534C5754u;

}  // namespace

std::vector<std::uint8_t> take_snapshot(const WearLeveler& wl) {
  SnapshotWriter payload;
  wl.save_state(payload);

  SnapshotWriter out;
  out.put_u32(kSnapshotMagic);
  out.put_u16(kSnapshotVersion);
  out.put_string(wl.name());
  out.put_u64(wl.logical_pages());
  out.put_u64(payload.bytes().size());
  std::vector<std::uint8_t> blob = out.take();
  blob.insert(blob.end(), payload.bytes().begin(), payload.bytes().end());
  const std::uint32_t crc = crc32(blob.data(), blob.size());
  SnapshotWriter tail;
  tail.put_u32(crc);
  blob.insert(blob.end(), tail.bytes().begin(), tail.bytes().end());
  return blob;
}

void restore_snapshot(WearLeveler& wl,
                      const std::vector<std::uint8_t>& blob) {
  if (blob.size() < 4) throw SnapshotError("snapshot too small");
  const std::uint32_t stored_crc =
      SnapshotReader(blob.data() + blob.size() - 4, 4).get_u32();
  if (crc32(blob.data(), blob.size() - 4) != stored_crc) {
    throw SnapshotError("snapshot checksum mismatch");
  }

  SnapshotReader r(blob.data(), blob.size() - 4);
  if (r.get_u32() != kSnapshotMagic) {
    throw SnapshotError("snapshot magic mismatch");
  }
  const std::uint16_t version = r.get_u16();
  if (version != kSnapshotVersion) {
    throw SnapshotError("unsupported snapshot version " +
                        std::to_string(version));
  }
  const std::string scheme = r.get_string();
  if (scheme != wl.name()) {
    throw SnapshotError("snapshot is for scheme '" + scheme +
                        "', not '" + wl.name() + "'");
  }
  r.expect_u64(wl.logical_pages(), "logical_pages");
  const std::uint64_t payload_size = r.get_u64();
  if (payload_size != r.remaining()) {
    throw SnapshotError("snapshot payload size mismatch");
  }
  wl.load_state(r);
  if (!r.exhausted()) {
    throw SnapshotError("snapshot has " + std::to_string(r.remaining()) +
                        " unconsumed payload bytes");
  }
}

}  // namespace twl
