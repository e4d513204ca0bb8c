#include "recovery/recovery.h"

#include <cstddef>

#include "recovery/journal.h"
#include "recovery/snapshot.h"
#include "wl/wear_leveler.h"

namespace twl {

RecoveryOutcome recover(WearLeveler& wl,
                        const std::vector<std::uint8_t>& snapshot_blob,
                        const std::vector<std::uint8_t>& journal_bytes) {
  restore_snapshot(wl, snapshot_blob);

  const JournalScan scan = scan_journal(journal_bytes);

  RecoveryOutcome outcome;
  outcome.torn_tail = scan.torn_tail;
  outcome.journal_bytes_replayed = scan.valid_bytes;

  // First pass: group records into demand-write groups (a single write,
  // or a failure-atomic batch of them) and find which groups committed.
  // Every group's addresses sit in one flat array, in journal order.
  // Records before the first Begin cannot occur (the journal is truncated
  // at snapshot time, between writes).
  struct PendingGroup {
    std::size_t first = 0;  ///< Index of the group's first address in las.
    std::size_t count = 0;  ///< Writes in the group.
    bool committed = false;
    std::uint64_t committed_swaps = 0;
    std::uint64_t orphan_swaps = 0;
  };
  std::vector<LogicalPageAddr> las;
  std::vector<PendingGroup> groups;
  std::uint64_t open_intents = 0;
  for (const JournalRecord& rec : scan.records) {
    switch (rec.type) {
      case JournalRecordType::kWriteBegin:
        groups.push_back(PendingGroup{las.size(), 1});
        las.push_back(rec.la);
        open_intents = 0;
        break;
      case JournalRecordType::kBatchBegin:
        groups.push_back(PendingGroup{las.size(), rec.batch_las.size()});
        las.insert(las.end(), rec.batch_las.begin(), rec.batch_las.end());
        open_intents = 0;
        break;
      case JournalRecordType::kSwapIntent:
        if (!groups.empty()) ++open_intents;
        break;
      case JournalRecordType::kSwapCommit:
        if (!groups.empty() && open_intents > 0) {
          --open_intents;
          ++groups.back().committed_swaps;
        }
        break;
      case JournalRecordType::kWriteCommit:
      case JournalRecordType::kBatchCommit:
        if (!groups.empty()) {
          groups.back().committed = true;
          groups.back().orphan_swaps = open_intents;
        }
        break;
    }
  }
  if (!groups.empty() && !groups.back().committed) {
    groups.back().orphan_swaps = open_intents;
  }

  // Second pass: re-execute every committed group in order. Only the last
  // group can be uncommitted (the controller appends its commit before
  // the next Begin), but the loop tolerates a malformed stream by
  // skipping any uncommitted group rather than replaying it. An
  // uncommitted batch rolls back whole: none of its writes replay.
  NullWriteSink sink;
  for (const PendingGroup& g : groups) {
    if (g.committed) {
      for (std::size_t i = g.first; i < g.first + g.count; ++i) {
        wl.write(las[i], sink);
      }
      outcome.replayed_writes += g.count;
      outcome.committed_swaps += g.committed_swaps;
    } else {
      if (!outcome.rolled_back_la && g.count != 0) {
        outcome.rolled_back_la = las[g.first];
      }
      outcome.rolled_back_writes += g.count;
      outcome.orphan_swap_intents += g.orphan_swaps;
    }
  }
  return outcome;
}

}  // namespace twl
