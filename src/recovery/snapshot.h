// Versioned snapshot serialization for wear-leveling metadata.
//
// Every scheme's controller state (remapping tables, registers, RNG
// streams, counters) is volatile in the paper's testbed: a power failure
// loses the LA->PA mapping and with it the device's contents. This module
// provides the byte-exact serialization layer the crash-consistency
// subsystem persists periodically:
//
//  * SnapshotWriter / SnapshotReader — little-endian typed byte streams.
//    Readers throw SnapshotError on underflow or field mismatch, never
//    read past the buffer, and must be fully consumed.
//  * take_snapshot / restore_snapshot — wrap a scheme's save_state /
//    load_state payload in a versioned, checksummed envelope carrying the
//    scheme's identity, so a snapshot can only be restored into the
//    scheme (and composition) that produced it.
//
// Round-trip contract (enforced by tests/recovery/snapshot_roundtrip_test):
// restoring a snapshot into a freshly constructed scheme of the same
// configuration and re-snapshotting yields the identical byte string, and
// the restored scheme's future behaviour is indistinguishable from the
// original's.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace twl {

class WearLeveler;

/// Serialization/deserialization failure: truncated buffer, checksum or
/// version mismatch, or a snapshot taken from a different scheme.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Appends little-endian primitives to a byte buffer.
class SnapshotWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// Bit-exact double encoding (IEEE-754 via the u64 bit pattern).
  void put_double(double v);
  /// Length-prefixed byte string.
  void put_string(const std::string& s);

  void put_u8_vec(const std::vector<std::uint8_t>& v);
  void put_u16_vec(const std::vector<std::uint16_t>& v);
  void put_u32_vec(const std::vector<std::uint32_t>& v);
  void put_u64_vec(const std::vector<std::uint64_t>& v);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Consumes the byte stream a SnapshotWriter produced. Every accessor
/// throws SnapshotError instead of reading out of bounds.
class SnapshotReader {
 public:
  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit SnapshotReader(const std::vector<std::uint8_t>& bytes)
      : SnapshotReader(bytes.data(), bytes.size()) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  bool get_bool() { return get_u8() != 0; }
  double get_double();
  std::string get_string();

  std::vector<std::uint8_t> get_u8_vec();
  std::vector<std::uint16_t> get_u16_vec();
  std::vector<std::uint32_t> get_u32_vec();
  std::vector<std::uint64_t> get_u64_vec();

  /// Reads a u64 and throws SnapshotError naming `field` unless it equals
  /// `expected` — used for structural parameters that come from the
  /// configuration rather than from the snapshot (page counts, region
  /// sizes), where a mismatch means the snapshot belongs to a different
  /// device shape.
  void expect_u64(std::uint64_t expected, const char* field);

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

 private:
  void need(std::size_t n);
  /// Validates an untrusted length prefix before any allocation: a
  /// declared count of `elem_size`-byte elements must fit in the
  /// remaining payload, or the snapshot is corrupt. Overflow-safe (the
  /// comparison divides instead of multiplying).
  void check_count(std::uint64_t n, std::size_t elem_size,
                   const char* what);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// `x.save_state` as a blob of its own.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> state_blob(const T& x) {
  SnapshotWriter w;
  x.save_state(w);
  return w.take();
}

/// `x.load_state` from a state_blob.
template <typename T>
void load_state_blob(T& x, const std::vector<std::uint8_t>& blob) {
  SnapshotReader r(blob);
  x.load_state(r);
}

/// Current snapshot envelope version. Bump when the envelope layout
/// changes; scheme payloads carry their own structure via save_state.
inline constexpr std::uint16_t kSnapshotVersion = 1;

/// Serializes `wl`'s full metadata state into a self-validating blob:
/// magic, version, scheme identity, payload, CRC-32.
[[nodiscard]] std::vector<std::uint8_t> take_snapshot(const WearLeveler& wl);

/// Restores `wl` (a freshly constructed scheme with the same
/// configuration) from a take_snapshot blob. Throws SnapshotError on any
/// validation failure: bad magic/version/CRC, wrong scheme, trailing or
/// missing payload bytes.
void restore_snapshot(WearLeveler& wl, const std::vector<std::uint8_t>& blob);

}  // namespace twl
