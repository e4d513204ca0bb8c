// Write-ahead metadata journal.
//
// Persists remap/swap *intentions* so that a power failure mid-operation
// never corrupts the address mapping. The journal models a small
// controller-managed log region in PCM (it is not charged against the
// data pages' endurance; its wear cost is reported as bytes appended, the
// write-amplification figure bench_recovery measures).
//
// Record stream per demand write, appended by the MemoryController:
//
//   WriteBegin{seq, la}                 — before the scheme runs
//   { SwapIntent{a, b, kind} ... SwapCommit }*   — around every copy
//   WriteCommit{seq}                    — after the write fully applied
//
// Every record is [type u8][len u8][payload][crc32 u32]. A crash can cut
// the byte stream anywhere — including inside a record (torn append) and
// between a SwapIntent and its SwapCommit (mid-swap). scan_journal() walks
// the stream and stops at the first record that is short or fails its
// CRC; everything after the cut is discarded, which is exactly the
// recovery semantics of a torn tail. Recovery (recovery/recovery.h)
// replays writes whose WriteCommit survived and rolls back the at-most-one
// write whose WriteBegin has no commit.
//
// The snapshot protocol truncates the journal after each successful
// snapshot: a snapshot plus the journal suffix since it reconstructs the
// exact pre-crash metadata state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace twl {

enum class JournalRecordType : std::uint8_t {
  kWriteBegin = 1,   ///< A demand write to `la` (seq) is starting.
  kSwapIntent = 2,   ///< About to copy pages: a -> b (migrate) or a <-> b.
  kSwapCommit = 3,   ///< The copy completed and its metadata is final.
  kWriteCommit = 4,  ///< The demand write (seq) fully applied.
  kBatchBegin = 5,   ///< A failure-atomic group of demand writes starts.
  kBatchCommit = 6,  ///< The whole group (seq, count) fully applied.
};

/// How a SwapIntent moves data. Recovery does not need the distinction to
/// restore the mapping (replay re-executes the scheme), but it determines
/// which pages a real controller would repair from the scratch frame.
enum class SwapKind : std::uint8_t {
  kMigrate = 0,  ///< One-directional copy from -> to.
  kExchange = 1, ///< Two-page exchange through the controller buffer.
};

/// One decoded journal record (union-style: fields beyond `type` are
/// meaningful per type).
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kWriteBegin;
  std::uint64_t seq = 0;       ///< WriteBegin / WriteCommit / Batch*.
  LogicalPageAddr la{};        ///< WriteBegin.
  PhysicalPageAddr pa_a{};     ///< SwapIntent.
  PhysicalPageAddr pa_b{};     ///< SwapIntent.
  SwapKind kind = SwapKind::kMigrate;  ///< SwapIntent.
  std::vector<LogicalPageAddr> batch_las;  ///< BatchBegin.
  std::uint8_t batch_count = 0;            ///< BatchCommit.
};

/// Result of walking a (possibly crash-truncated) journal byte stream.
struct JournalScan {
  std::vector<JournalRecord> records;  ///< Valid records, in append order.
  /// True when the stream ended inside a record (short or CRC-failed
  /// tail) — the signature of a torn append.
  bool torn_tail = false;
  /// Bytes covered by the valid records.
  std::size_t valid_bytes = 0;
};

/// Decodes `bytes`, stopping cleanly at a torn tail.
[[nodiscard]] JournalScan scan_journal(const std::vector<std::uint8_t>& bytes);

/// Most logical addresses a BatchBegin record can carry (the payload's
/// element count is a byte, and the controller chunks batches anyway).
inline constexpr std::size_t kMaxJournalBatch = 32;

class MetadataJournal {
 public:
  void append_write_begin(std::uint64_t seq, LogicalPageAddr la);
  void append_swap_intent(PhysicalPageAddr a, PhysicalPageAddr b,
                          SwapKind kind);
  void append_swap_commit();
  void append_write_commit(std::uint64_t seq);

  /// Batch bracket: one Begin record carrying every logical address in
  /// the group (first seq `seq`), one Commit closing it. Replaces the
  /// 2*N per-write Begin/Commit records of the single-write protocol —
  /// the journal-bandwidth half of the WriteBegin/WriteCommit batch path.
  /// `las` must hold 1..kMaxJournalBatch addresses.
  void append_batch_begin(std::uint64_t seq,
                          const LogicalPageAddr* las, std::size_t count);
  void append_batch_commit(std::uint64_t seq, std::size_t count);

  /// Discard the log contents (called after a successful snapshot, which
  /// supersedes every record). Lifetime byte/record counters survive.
  void truncate();

  /// Checkpoint/resume (fleet harness): reinstate a journal exactly as
  /// captured by bytes() and the lifetime counters, so a resumed run
  /// appends to the same byte stream an uninterrupted run would.
  void restore(std::vector<std::uint8_t> bytes, std::uint64_t total_bytes,
               std::uint64_t total_records, std::uint64_t truncations);

  /// Current log contents since the last truncate.
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

  // Lifetime totals across truncations — the write-amplification inputs.
  [[nodiscard]] std::uint64_t total_bytes_appended() const {
    return total_bytes_;
  }
  [[nodiscard]] std::uint64_t total_records_appended() const {
    return total_records_;
  }
  [[nodiscard]] std::uint64_t truncations() const { return truncations_; }

 private:
  /// Counts one record just encoded into bytes_.
  void count_record(std::size_t record_bytes);

  std::vector<std::uint8_t> bytes_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_records_ = 0;
  std::uint64_t truncations_ = 0;
};

}  // namespace twl
