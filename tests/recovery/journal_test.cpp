#include "recovery/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "common/config.h"
#include "pcm/endurance.h"
#include "recovery/recovery.h"
#include "recovery/snapshot.h"
#include "wl/factory.h"
#include "wl/wear_leveler.h"

namespace twl {
namespace {

/// Reflected CRC-32 (polynomial 0xEDB88320), one bit at a time: the
/// tests' own oracle, sharing no code with common/checksum.
std::uint32_t bitwise_crc32(const std::vector<std::uint8_t>& bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

/// A record as the format comment in journal.h spells it: the given
/// type, length and payload bytes, then their CRC-32, little-endian.
std::vector<std::uint8_t> record(std::vector<std::uint8_t> bytes) {
  const std::uint32_t crc = bitwise_crc32(bytes);
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  return bytes;
}

void expect_same_record(const JournalRecord& got, const JournalRecord& want,
                        std::size_t index) {
  SCOPED_TRACE(testing::Message() << "record " << index);
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.la, want.la);
  EXPECT_EQ(got.pa_a, want.pa_a);
  EXPECT_EQ(got.pa_b, want.pa_b);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.batch_las, want.batch_las);
  EXPECT_EQ(got.batch_count, want.batch_count);
}

TEST(Journal, EmptyScanIsCleanAndEmpty) {
  const JournalScan scan = scan_journal({});
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(Journal, RoundTripsAllRecordTypes) {
  MetadataJournal journal;
  journal.append_write_begin(7, LogicalPageAddr(42));
  journal.append_swap_intent(PhysicalPageAddr(1), PhysicalPageAddr(2),
                             SwapKind::kExchange);
  journal.append_swap_commit();
  journal.append_swap_intent(PhysicalPageAddr(3), PhysicalPageAddr(4),
                             SwapKind::kMigrate);
  journal.append_swap_commit();
  journal.append_write_commit(7);

  const JournalScan scan = scan_journal(journal.bytes());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, journal.bytes().size());
  ASSERT_EQ(scan.records.size(), 6u);

  EXPECT_EQ(scan.records[0].type, JournalRecordType::kWriteBegin);
  EXPECT_EQ(scan.records[0].seq, 7u);
  EXPECT_EQ(scan.records[0].la.value(), 42u);
  EXPECT_EQ(scan.records[1].type, JournalRecordType::kSwapIntent);
  EXPECT_EQ(scan.records[1].pa_a.value(), 1u);
  EXPECT_EQ(scan.records[1].pa_b.value(), 2u);
  EXPECT_EQ(scan.records[1].kind, SwapKind::kExchange);
  EXPECT_EQ(scan.records[2].type, JournalRecordType::kSwapCommit);
  EXPECT_EQ(scan.records[3].kind, SwapKind::kMigrate);
  EXPECT_EQ(scan.records[5].type, JournalRecordType::kWriteCommit);
  EXPECT_EQ(scan.records[5].seq, 7u);
}

TEST(Journal, EveryTruncationPointScansCleanPrefix) {
  MetadataJournal journal;
  journal.append_write_begin(1, LogicalPageAddr(5));
  journal.append_swap_intent(PhysicalPageAddr(0), PhysicalPageAddr(9),
                             SwapKind::kExchange);
  journal.append_swap_commit();
  journal.append_write_commit(1);
  const std::vector<std::uint8_t>& bytes = journal.bytes();

  const JournalScan full = scan_journal(bytes);
  ASSERT_EQ(full.records.size(), 4u);

  // Record boundaries are the only cut points with no torn tail.
  std::size_t clean_cuts = 0;
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + cut);
    const JournalScan scan = scan_journal(prefix);
    EXPECT_LE(scan.valid_bytes, cut);
    EXPECT_EQ(scan.torn_tail, scan.valid_bytes != cut);
    if (!scan.torn_tail) ++clean_cuts;
    // Records never change retroactively: the scan of a prefix is a
    // prefix of the full scan.
    ASSERT_LE(scan.records.size(), full.records.size());
    for (std::size_t i = 0; i < scan.records.size(); ++i) {
      expect_same_record(scan.records[i], full.records[i], i);
    }
  }
  EXPECT_EQ(clean_cuts, 5u);  // Empty prefix + one per record.
}

TEST(Journal, WireBytesMatchTheFormat) {
  struct Case {
    const char* name;
    void (*append)(MetadataJournal&);
    std::vector<std::uint8_t> want;
  };
  const Case cases[] = {
      {"WriteBegin{seq, la}",
       [](MetadataJournal& j) {
         j.append_write_begin(0x0102030405060708ULL,
                              LogicalPageAddr(0x0A0B0C0D));
       },
       record({0x01, 0x0C,                                      //
               0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // seq
               0x0D, 0x0C, 0x0B, 0x0A})},                       // la
      {"SwapIntent{a, b, kind}",
       [](MetadataJournal& j) {
         j.append_swap_intent(PhysicalPageAddr(0x11223344),
                              PhysicalPageAddr(0x55667788),
                              SwapKind::kExchange);
       },
       record({0x02, 0x09,              //
               0x44, 0x33, 0x22, 0x11,  // a
               0x88, 0x77, 0x66, 0x55,  // b
               0x01})},                 // kind
      {"SwapCommit{}",
       [](MetadataJournal& j) {
         j.append_swap_commit();
       },
       record({0x03, 0x00})},
      {"WriteCommit{seq}",
       [](MetadataJournal& j) {
         j.append_write_commit(0xF0E0D0C0B0A09080ULL);
       },
       record({0x04, 0x08,                                      //
               0x80, 0x90, 0xA0, 0xB0, 0xC0, 0xD0, 0xE0, 0xF0})},  // seq
      {"BatchBegin{seq, count, las}",
       [](MetadataJournal& j) {
         const LogicalPageAddr las[] = {LogicalPageAddr(1),
                                        LogicalPageAddr(0x200),
                                        LogicalPageAddr(0x30000)};
         j.append_batch_begin(0x10, las, 3);
       },
       record({0x05, 0x15,                                      //
               0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq
               0x03,                                            // count
               0x01, 0x00, 0x00, 0x00,                          // las[0]
               0x00, 0x02, 0x00, 0x00,                          // las[1]
               0x00, 0x00, 0x03, 0x00})},                       // las[2]
      {"BatchCommit{seq, count}",
       [](MetadataJournal& j) {
         j.append_batch_commit(0x10, 3);
       },
       record({0x06, 0x09,                                      //
               0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seq
               0x03})},                                         // count
  };
  MetadataJournal all;
  std::vector<std::uint8_t> all_want;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MetadataJournal one;
    c.append(one);
    EXPECT_EQ(one.bytes(), c.want);
    EXPECT_EQ(one.total_bytes_appended(), c.want.size());
    EXPECT_EQ(one.total_records_appended(), 1u);
    c.append(all);
    all_want.insert(all_want.end(), c.want.begin(), c.want.end());
  }
  // Records concatenate with no framing between them.
  EXPECT_EQ(all.bytes(), all_want);
  EXPECT_EQ(all.total_bytes_appended(), all_want.size());
  EXPECT_EQ(all.total_records_appended(), 6u);
}

/// Appends the low `width` bytes of `v`, least significant first.
void put_le(std::vector<std::uint8_t>& bytes, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

TEST(Journal, BatchWireBytesMatchTheFormatAtEveryCount) {
  std::mt19937_64 rng(20170618);
  MetadataJournal all;
  std::vector<std::uint8_t> all_want;
  std::vector<std::vector<LogicalPageAddr>> all_las;
  std::vector<std::uint64_t> all_seqs;
  for (std::size_t count = 1; count <= kMaxJournalBatch; ++count) {
    SCOPED_TRACE(testing::Message() << "count " << count);
    const std::uint64_t seq = rng();
    std::vector<LogicalPageAddr> las;
    std::vector<std::uint8_t> begin = {
        0x05, static_cast<std::uint8_t>(9 + 4 * count)};
    put_le(begin, seq, 8);
    put_le(begin, count, 1);
    for (std::size_t i = 0; i < count; ++i) {
      const auto la = static_cast<std::uint32_t>(rng());
      las.emplace_back(la);
      put_le(begin, la, 4);
    }
    std::vector<std::uint8_t> commit = {0x06, 0x09};
    put_le(commit, seq, 8);
    put_le(commit, count, 1);
    const std::vector<std::uint8_t> want_begin = record(begin);
    const std::vector<std::uint8_t> want_commit = record(commit);

    MetadataJournal one_begin;
    one_begin.append_batch_begin(seq, las.data(), count);
    EXPECT_EQ(one_begin.bytes(), want_begin);
    MetadataJournal one_commit;
    one_commit.append_batch_commit(seq, count);
    EXPECT_EQ(one_commit.bytes(), want_commit);

    all.append_batch_begin(seq, las.data(), count);
    all.append_batch_commit(seq, count);
    all_want.insert(all_want.end(), want_begin.begin(), want_begin.end());
    all_want.insert(all_want.end(), want_commit.begin(), want_commit.end());
    all_las.push_back(las);
    all_seqs.push_back(seq);
  }
  EXPECT_EQ(all.bytes(), all_want);
  EXPECT_EQ(all.total_bytes_appended(), all_want.size());
  EXPECT_EQ(all.total_records_appended(), 2 * kMaxJournalBatch);

  const JournalScan scan = scan_journal(all.bytes());
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 2 * kMaxJournalBatch);
  for (std::size_t i = 0; i < kMaxJournalBatch; ++i) {
    const JournalRecord& begin = scan.records[2 * i];
    const JournalRecord& commit = scan.records[2 * i + 1];
    EXPECT_EQ(begin.type, JournalRecordType::kBatchBegin);
    EXPECT_EQ(begin.seq, all_seqs[i]);
    EXPECT_EQ(begin.batch_count, i + 1);
    EXPECT_EQ(begin.batch_las, all_las[i]);
    EXPECT_EQ(commit.type, JournalRecordType::kBatchCommit);
    EXPECT_EQ(commit.seq, all_seqs[i]);
    EXPECT_EQ(commit.batch_count, i + 1);
  }
}

TEST(Journal, ScanSizesItsRecordsOnce) {
  MetadataJournal journal;
  const LogicalPageAddr las[] = {LogicalPageAddr(3), LogicalPageAddr(4)};
  journal.append_batch_begin(1, las, 2);
  journal.append_write_begin(3, LogicalPageAddr(5));
  journal.append_swap_intent(PhysicalPageAddr(0), PhysicalPageAddr(9),
                             SwapKind::kExchange);
  journal.append_swap_commit();
  journal.append_write_commit(3);
  journal.append_batch_commit(1, 2);
  std::vector<std::uint8_t> bytes = journal.bytes();
  bytes.push_back(0x01);  // A torn header after six valid records.

  const JournalScan scan = scan_journal(bytes);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, journal.bytes().size());
  EXPECT_EQ(scan.records.size(), 6u);
  // Counted before decoding: reserved once, never regrown.
  EXPECT_EQ(scan.records.capacity(), scan.records.size());
}

TEST(Journal, DetectsCorruptedRecord) {
  MetadataJournal journal;
  journal.append_write_begin(1, LogicalPageAddr(5));
  journal.append_write_commit(1);
  std::vector<std::uint8_t> bytes = journal.bytes();
  bytes[3] ^= 0xFF;  // Flip a payload byte of the first record.
  const JournalScan scan = scan_journal(bytes);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(Journal, StopsAtGarbageTail) {
  MetadataJournal journal;
  journal.append_write_begin(1, LogicalPageAddr(5));
  journal.append_write_commit(1);
  std::vector<std::uint8_t> bytes = journal.bytes();
  const std::size_t clean = bytes.size();
  bytes.insert(bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  const JournalScan scan = scan_journal(bytes);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, clean);
}

TEST(Journal, TruncateKeepsLifetimeTotals) {
  MetadataJournal journal;
  journal.append_write_begin(1, LogicalPageAddr(0));
  journal.append_write_commit(1);
  const std::uint64_t bytes_before = journal.total_bytes_appended();
  EXPECT_GT(bytes_before, 0u);
  journal.truncate();
  EXPECT_TRUE(journal.bytes().empty());
  EXPECT_EQ(journal.total_bytes_appended(), bytes_before);
  EXPECT_EQ(journal.total_records_appended(), 2u);
  EXPECT_EQ(journal.truncations(), 1u);

  journal.append_write_begin(2, LogicalPageAddr(1));
  EXPECT_GT(journal.total_bytes_appended(), bytes_before);
  const JournalScan scan = scan_journal(journal.bytes());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].seq, 2u);
}

/// recover() on a journal built by hand, replayed into a small TWL.
class JournalRecover : public testing::Test {
 protected:
  JournalRecover()
      : config_(small_config()),
        map_(config_.geometry.pages(), config_.endurance, config_.seed) {}

  static Config small_config() {
    SimScale scale;
    scale.pages = 64;
    scale.endurance_mean = 100000;
    return Config::scaled(scale);
  }

  std::unique_ptr<WearLeveler> fresh() const {
    return make_wear_leveler_spec("TWL", map_, config_);
  }

  /// One committed write with one committed swap, a committed batch of
  /// three writes, then an open write with an orphan swap intent.
  static MetadataJournal hand_built() {
    MetadataJournal journal;
    journal.append_write_begin(1, LogicalPageAddr(5));
    journal.append_swap_intent(PhysicalPageAddr(0), PhysicalPageAddr(9),
                               SwapKind::kExchange);
    journal.append_swap_commit();
    journal.append_write_commit(1);
    const LogicalPageAddr batch[] = {LogicalPageAddr(7), LogicalPageAddr(11),
                                     LogicalPageAddr(13)};
    journal.append_batch_begin(2, batch, 3);
    journal.append_batch_commit(2, 3);
    journal.append_write_begin(5, LogicalPageAddr(21));
    journal.append_swap_intent(PhysicalPageAddr(3), PhysicalPageAddr(4),
                               SwapKind::kMigrate);
    return journal;
  }

  /// The state a scheme reaches from fresh by writing `las` in order.
  std::vector<std::uint8_t> written(
      std::initializer_list<std::uint32_t> las) const {
    const auto wl = fresh();
    NullWriteSink sink;
    for (const std::uint32_t la : las) wl->write(LogicalPageAddr(la), sink);
    return take_snapshot(*wl);
  }

  Config config_;
  EnduranceMap map_;
};

TEST_F(JournalRecover, ReplaysCommittedGroupsAndRollsBackTheOpenWrite) {
  const MetadataJournal journal = hand_built();
  // 18 + 15 + 6 + 14 (single write) + 27 + 15 (batch) + 18 + 15 (open).
  ASSERT_EQ(journal.bytes().size(), 128u);
  const auto wl = fresh();
  const std::vector<std::uint8_t> snapshot = take_snapshot(*wl);

  const RecoveryOutcome outcome = recover(*wl, snapshot, journal.bytes());
  EXPECT_EQ(outcome.replayed_writes, 4u);
  ASSERT_TRUE(outcome.rolled_back_la.has_value());
  EXPECT_EQ(*outcome.rolled_back_la, LogicalPageAddr(21));
  EXPECT_EQ(outcome.rolled_back_writes, 1u);
  EXPECT_EQ(outcome.committed_swaps, 1u);
  EXPECT_EQ(outcome.orphan_swap_intents, 1u);
  EXPECT_FALSE(outcome.torn_tail);
  EXPECT_EQ(outcome.journal_bytes_replayed, 128u);
  // Replay re-executed exactly the committed writes, in journal order.
  EXPECT_EQ(take_snapshot(*wl), written({5, 7, 11, 13}));
}

TEST_F(JournalRecover, TornTailDropsOnlyThePartialRecord) {
  const MetadataJournal journal = hand_built();
  // Cut inside the orphan SwapIntent (bytes 113..127).
  const std::vector<std::uint8_t> cut(journal.bytes().begin(),
                                      journal.bytes().begin() + 120);
  const auto wl = fresh();
  const RecoveryOutcome outcome = recover(*wl, take_snapshot(*wl), cut);
  EXPECT_EQ(outcome.replayed_writes, 4u);
  ASSERT_TRUE(outcome.rolled_back_la.has_value());
  EXPECT_EQ(*outcome.rolled_back_la, LogicalPageAddr(21));
  EXPECT_EQ(outcome.rolled_back_writes, 1u);
  EXPECT_EQ(outcome.committed_swaps, 1u);
  EXPECT_EQ(outcome.orphan_swap_intents, 0u);
  EXPECT_TRUE(outcome.torn_tail);
  EXPECT_EQ(outcome.journal_bytes_replayed, 113u);
  EXPECT_EQ(take_snapshot(*wl), written({5, 7, 11, 13}));
}

}  // namespace
}  // namespace twl
