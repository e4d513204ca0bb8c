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
int payload_length(std::uint8_t type) {
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

/// Largest record: a BatchBegin carrying kMaxJournalBatch addresses.
constexpr std::size_t kMaxRecordBytes = 2 + 9 + 4 * kMaxJournalBatch + 4;

/// Encodes one record, [type u8][len u8][payload][crc32 u32], in a stack
/// buffer, so an append costs no allocation and one insert into the log.
class RecordEncoder {
 public:
  explicit RecordEncoder(JournalRecordType type) {
    buf_[0] = static_cast<std::uint8_t>(type);
  }

  void put_u8(std::uint8_t v) { buf_[size_++] = v; }
  void put_u32(std::uint32_t v) {
    put_u8(static_cast<std::uint8_t>(v));
    put_u8(static_cast<std::uint8_t>(v >> 8));
    put_u8(static_cast<std::uint8_t>(v >> 16));
    put_u8(static_cast<std::uint8_t>(v >> 24));
  }
  void put_u64(std::uint64_t v) {
    put_u32(static_cast<std::uint32_t>(v));
    put_u32(static_cast<std::uint32_t>(v >> 32));
  }

  /// Fills in the length byte, appends the CRC over header and payload,
  /// and returns the finished record.
  std::span<const std::uint8_t> seal() {
    const std::size_t len = size_ - 2;
    const int expected = payload_length(buf_[0]);
    assert(expected == kVariableLength ||
           len == static_cast<std::size_t>(expected));
    assert(len <= 0xFF);
    (void)expected;
    buf_[1] = static_cast<std::uint8_t>(len);
    put_u32(crc32(buf_, size_));
    return {buf_, size_};
  }

 private:
  std::size_t size_ = 2;  // Header; the length byte is filled by seal().
  // Not zero-filled: only bytes already put are read, and clearing 143
  // bytes per record made a WriteBegin + WriteCommit pair 12–25 ns slower.
  std::uint8_t buf_[kMaxRecordBytes];
};

}  // namespace

void MetadataJournal::append_record(std::span<const std::uint8_t> record) {
  bytes_.insert(bytes_.end(), record.begin(), record.end());
  total_bytes_ += record.size();
  ++total_records_;
}

void MetadataJournal::append_write_begin(std::uint64_t seq,
                                         LogicalPageAddr la) {
  RecordEncoder rec(JournalRecordType::kWriteBegin);
  rec.put_u64(seq);
  rec.put_u32(la.value());
  append_record(rec.seal());
}

void MetadataJournal::append_swap_intent(PhysicalPageAddr a,
                                         PhysicalPageAddr b, SwapKind kind) {
  RecordEncoder rec(JournalRecordType::kSwapIntent);
  rec.put_u32(a.value());
  rec.put_u32(b.value());
  rec.put_u8(static_cast<std::uint8_t>(kind));
  append_record(rec.seal());
}

void MetadataJournal::append_swap_commit() {
  RecordEncoder rec(JournalRecordType::kSwapCommit);
  append_record(rec.seal());
}

void MetadataJournal::append_write_commit(std::uint64_t seq) {
  RecordEncoder rec(JournalRecordType::kWriteCommit);
  rec.put_u64(seq);
  append_record(rec.seal());
}

void MetadataJournal::append_batch_begin(std::uint64_t seq,
                                         const LogicalPageAddr* las,
                                         std::size_t count) {
  assert(count >= 1 && count <= kMaxJournalBatch);
  RecordEncoder rec(JournalRecordType::kBatchBegin);
  rec.put_u64(seq);
  rec.put_u8(static_cast<std::uint8_t>(count));
  for (std::size_t i = 0; i < count; ++i) rec.put_u32(las[i].value());
  append_record(rec.seal());
}

void MetadataJournal::append_batch_commit(std::uint64_t seq,
                                          std::size_t count) {
  assert(count >= 1 && count <= kMaxJournalBatch);
  RecordEncoder rec(JournalRecordType::kBatchCommit);
  rec.put_u64(seq);
  rec.put_u8(static_cast<std::uint8_t>(count));
  append_record(rec.seal());
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
  JournalScan scan;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    // Header: type + payload length.
    if (bytes.size() - pos < 2) break;  // Torn inside a header.
    const std::uint8_t type = bytes[pos];
    const std::uint8_t len = bytes[pos + 1];
    const int expected = payload_length(type);
    if (expected == -1 || (expected >= 0 && len != expected)) {
      break;  // Garbage tail.
    }
    const std::size_t total = 2 + static_cast<std::size_t>(len) + 4;
    if (bytes.size() - pos < total) break;  // Torn inside payload/CRC.
    const std::uint32_t stored = read_u32(bytes.data() + pos + 2 + len);
    if (crc32(bytes.data() + pos, 2 + len) != stored) break;  // Torn bits.
    const std::uint8_t* payload = bytes.data() + pos + 2;
    if (expected == kVariableLength && !batch_begin_length_ok(len, payload)) {
      break;  // Structurally inconsistent (count byte vs record length).
    }

    JournalRecord rec;
    rec.type = static_cast<JournalRecordType>(type);
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
    scan.records.push_back(std::move(rec));
    pos += total;
    scan.valid_bytes = pos;
  }
  scan.torn_tail = scan.valid_bytes != bytes.size();
  return scan;
}

}  // namespace twl
