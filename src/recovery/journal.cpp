#include "recovery/journal.h"

#include <cassert>
#include <utility>

#include "common/checksum.h"

namespace twl {

namespace {

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(read_u32(p)) |
         (static_cast<std::uint64_t>(read_u32(p + 4)) << 32);
}

/// Variable-length record marker for payload_length().
constexpr int kVariableLength = -2;

/// Expected payload length per record type; -1 for unknown types, -2 for
/// types whose length is validated against their own payload (BatchBegin).
constexpr int payload_length(std::uint8_t type) {
  switch (static_cast<JournalRecordType>(type)) {
    case JournalRecordType::kWriteBegin:
      return 12;  // seq u64 + la u32.
    case JournalRecordType::kSwapIntent:
      return 9;  // pa_a u32 + pa_b u32 + kind u8.
    case JournalRecordType::kSwapCommit:
      return 0;
    case JournalRecordType::kWriteCommit:
      return 8;  // seq u64.
    case JournalRecordType::kBatchBegin:
      return kVariableLength;  // seq u64 + count u8 + count * la u32.
    case JournalRecordType::kBatchCommit:
      return 9;  // seq u64 + count u8.
  }
  return -1;
}

/// Structural validation of a BatchBegin payload length: the internal
/// count byte must agree with the declared record length, or the tail is
/// garbage (a torn or corrupt append).
bool batch_begin_length_ok(std::uint8_t len, const std::uint8_t* payload) {
  if (len < 13 || (len - 9) % 4 != 0) return false;  // >= 1 address.
  return payload[8] == (len - 9) / 4;
}

/// Encodes one record, [type u8][len u8][payload][crc32 u32], straight
/// into the log's tail. Every put_* stores its value little-endian and
/// folds the same value into the CRC, so no byte just stored is loaded
/// back: a wide load of bytes that narrow stores have only just written
/// waits for them.
class RecordEncoder {
 public:
  /// A fixed-length record: its length, and with it the folded header,
  /// is a compile-time constant once inlined.
  RecordEncoder(std::vector<std::uint8_t>& log, JournalRecordType type)
      : RecordEncoder(log, type,
                      static_cast<std::size_t>(payload_length(
                          static_cast<std::uint8_t>(type)))) {}

  RecordEncoder(std::vector<std::uint8_t>& log, JournalRecordType type,
                std::size_t payload_bytes) {
    [[maybe_unused]] const int fixed =
        payload_length(static_cast<std::uint8_t>(type));
    assert(fixed == kVariableLength
               ? payload_bytes <= 0xFF
               : payload_bytes == static_cast<std::size_t>(fixed));
    const std::size_t at = log.size();
    log.resize(at + 2 + payload_bytes + 4);
    out_ = log.data() + at;
    put_u8(static_cast<std::uint8_t>(type));
    put_u8(static_cast<std::uint8_t>(payload_bytes));
  }

  void put_u8(std::uint8_t v) {
    store_le(v);
    crc_.u8(v);
  }
  void put_u32(std::uint32_t v) {
    store_le(v);
    crc_.u32(v);
  }
  void put_u64(std::uint64_t v) {
    store_le(v);
    crc_.u64(v);
  }

  /// Appends the CRC over header and payload; returns the record's size.
  std::size_t seal() {
    assert(size_ == 2u + out_[1]);  // Exactly the payload the header set.
    store_le(crc_.value());
    return size_;
  }

 private:
  template <class T>
  void store_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_[size_++] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::uint8_t* out_ = nullptr;  // The record's first byte in the log.
  std::size_t size_ = 0;
  Crc32Fold crc_;
};

/// Size of the valid record at `pos`, or 0 where the stream is cut: a
/// short header, payload or CRC, an unknown type or length, a CRC
/// mismatch, or a BatchBegin whose count byte disagrees with its length.
std::size_t valid_record_bytes(const std::vector<std::uint8_t>& bytes,
                               std::size_t pos) {
  if (bytes.size() - pos < 2) return 0;  // Torn inside a header.
  const std::uint8_t type = bytes[pos];
  const std::uint8_t len = bytes[pos + 1];
  const int expected = payload_length(type);
  if (expected == -1 || (expected >= 0 && len != expected)) {
    return 0;  // Garbage tail.
  }
  const std::size_t total = 2 + static_cast<std::size_t>(len) + 4;
  if (bytes.size() - pos < total) return 0;  // Torn inside payload/CRC.
  const std::uint32_t stored = read_u32(bytes.data() + pos + 2 + len);
  if (crc32(bytes.data() + pos, 2 + len) != stored) return 0;  // Torn bits.
  if (expected == kVariableLength &&
      !batch_begin_length_ok(len, bytes.data() + pos + 2)) {
    return 0;  // Structurally inconsistent (count byte vs record length).
  }
  return total;
}

/// Decodes a record valid_record_bytes() accepted.
JournalRecord decode_record(const std::uint8_t* record) {
  const std::uint8_t len = record[1];
  const std::uint8_t* payload = record + 2;
  JournalRecord rec;
  rec.type = static_cast<JournalRecordType>(record[0]);
  switch (rec.type) {
    case JournalRecordType::kWriteBegin:
      rec.seq = read_u64(payload);
      rec.la = LogicalPageAddr(read_u32(payload + 8));
      break;
    case JournalRecordType::kSwapIntent:
      rec.pa_a = PhysicalPageAddr(read_u32(payload));
      rec.pa_b = PhysicalPageAddr(read_u32(payload + 4));
      rec.kind = static_cast<SwapKind>(payload[8]);
      break;
    case JournalRecordType::kSwapCommit:
    case JournalRecordType::kWriteCommit:
      rec.seq = len == 8 ? read_u64(payload) : 0;
      break;
    case JournalRecordType::kBatchBegin:
      rec.seq = read_u64(payload);
      rec.batch_count = payload[8];
      rec.batch_las.reserve(rec.batch_count);
      for (std::uint8_t i = 0; i < rec.batch_count; ++i) {
        rec.batch_las.emplace_back(read_u32(payload + 9 + 4 * i));
      }
      break;
    case JournalRecordType::kBatchCommit:
      rec.seq = read_u64(payload);
      rec.batch_count = payload[8];
      break;
  }
  return rec;
}

}  // namespace

void MetadataJournal::count_record(std::size_t record_bytes) {
  total_bytes_ += record_bytes;
  ++total_records_;
}

void MetadataJournal::append_write_begin(std::uint64_t seq,
                                         LogicalPageAddr la) {
  RecordEncoder rec(bytes_, JournalRecordType::kWriteBegin);
  rec.put_u64(seq);
  rec.put_u32(la.value());
  count_record(rec.seal());
}

void MetadataJournal::append_swap_intent(PhysicalPageAddr a,
                                         PhysicalPageAddr b, SwapKind kind) {
  RecordEncoder rec(bytes_, JournalRecordType::kSwapIntent);
  rec.put_u32(a.value());
  rec.put_u32(b.value());
  rec.put_u8(static_cast<std::uint8_t>(kind));
  count_record(rec.seal());
}

void MetadataJournal::append_swap_commit() {
  RecordEncoder rec(bytes_, JournalRecordType::kSwapCommit);
  count_record(rec.seal());
}

void MetadataJournal::append_write_commit(std::uint64_t seq) {
  RecordEncoder rec(bytes_, JournalRecordType::kWriteCommit);
  rec.put_u64(seq);
  count_record(rec.seal());
}

void MetadataJournal::append_batch_begin(std::uint64_t seq,
                                         const LogicalPageAddr* las,
                                         std::size_t count) {
  assert(count >= 1 && count <= kMaxJournalBatch);
  RecordEncoder rec(bytes_, JournalRecordType::kBatchBegin, 9 + 4 * count);
  rec.put_u64(seq);
  rec.put_u8(static_cast<std::uint8_t>(count));
  for (std::size_t i = 0; i < count; ++i) rec.put_u32(las[i].value());
  count_record(rec.seal());
}

void MetadataJournal::append_batch_commit(std::uint64_t seq,
                                          std::size_t count) {
  assert(count >= 1 && count <= kMaxJournalBatch);
  RecordEncoder rec(bytes_, JournalRecordType::kBatchCommit);
  rec.put_u64(seq);
  rec.put_u8(static_cast<std::uint8_t>(count));
  count_record(rec.seal());
}

void MetadataJournal::truncate() {
  bytes_.clear();
  ++truncations_;
}

void MetadataJournal::restore(std::vector<std::uint8_t> bytes,
                              std::uint64_t total_bytes,
                              std::uint64_t total_records,
                              std::uint64_t truncations) {
  bytes_ = std::move(bytes);
  total_bytes_ = total_bytes;
  total_records_ = total_records;
  truncations_ = truncations;
}

JournalScan scan_journal(const std::vector<std::uint8_t>& bytes) {
  // Validate the prefix first, so the record vector is sized once.
  std::size_t count = 0;
  std::size_t end = 0;
  while (end < bytes.size()) {
    const std::size_t n = valid_record_bytes(bytes, end);
    if (n == 0) break;
    end += n;
    ++count;
  }
  JournalScan scan;
  scan.records.reserve(count);
  for (std::size_t pos = 0; pos < end; pos += 2 + bytes[pos + 1] + 4) {
    scan.records.push_back(decode_record(bytes.data() + pos));
  }
  scan.valid_bytes = end;
  scan.torn_tail = end != bytes.size();
  return scan;
}

}  // namespace twl
