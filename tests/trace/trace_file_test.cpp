#include "trace/trace_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace twl {
namespace {

class TraceFileTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs the tests as parallel processes.
  std::string path_ =
      ::testing::TempDir() + "twl_trace_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".trc";

  void TearDown() override { std::remove(path_.c_str()); }

  void write_file(const std::string& contents) {
    std::ofstream out(path_);
    out << contents;
  }
};

TEST_F(TraceFileTest, RoundTrip) {
  {
    TraceFileWriter writer(path_);
    writer.append(MemoryRequest{Op::kWrite, LogicalPageAddr(42)});
    writer.append(MemoryRequest{Op::kRead, LogicalPageAddr(7)});
    writer.append(MemoryRequest{Op::kWrite, LogicalPageAddr(0)});
    EXPECT_EQ(writer.records_written(), 3u);
  }
  TraceFileSource source(path_);
  EXPECT_EQ(source.records(), 3u);
  auto r1 = source.next();
  EXPECT_EQ(r1.op, Op::kWrite);
  EXPECT_EQ(r1.addr.value(), 42u);
  auto r2 = source.next();
  EXPECT_EQ(r2.op, Op::kRead);
  EXPECT_EQ(r2.addr.value(), 7u);
}

TEST_F(TraceFileTest, LoopsForever) {
  write_file("W 1\nW 2\n");
  TraceFileSource source(path_);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(source.next().addr.value(), 1u);
    EXPECT_EQ(source.next().addr.value(), 2u);
  }
  // 20 records consumed from a 2-record trace: the cursor wrapped after
  // each pass, including the final one.
  EXPECT_EQ(source.loops(), 10u);
}

TEST_F(TraceFileTest, SkipsCommentsAndBlankLines) {
  write_file("# header\n\nW 5\n# mid comment\nR 6\n");
  TraceFileSource source(path_);
  EXPECT_EQ(source.records(), 2u);
}

// Opens the trace expecting a parse failure; returns the error message.
std::string parse_error(const std::string& path) {
  try {
    TraceFileSource source(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected TraceFileSource to throw";
  return {};
}

TEST_F(TraceFileTest, RejectsMalformedLines) {
  write_file("W 1\nX 2\n");
  const std::string what = parse_error(path_);
  // The diagnostic names the file, the line and the offending token.
  EXPECT_NE(what.find(path_ + ":2"), std::string::npos) << what;
  EXPECT_NE(what.find("'X'"), std::string::npos) << what;
}

TEST_F(TraceFileTest, RejectsTruncatedLine) {
  write_file("W 1\nW\n");
  const std::string what = parse_error(path_);
  EXPECT_NE(what.find(":2"), std::string::npos) << what;
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
}

TEST_F(TraceFileTest, RejectsNonNumericAddress) {
  write_file("W 1\nR banana\n");
  const std::string what = parse_error(path_);
  EXPECT_NE(what.find(":2"), std::string::npos) << what;
  EXPECT_NE(what.find("'banana'"), std::string::npos) << what;
}

TEST_F(TraceFileTest, RejectsNegativeAddress) {
  write_file("W -3\n");
  const std::string what = parse_error(path_);
  EXPECT_NE(what.find("'-3'"), std::string::npos) << what;
}

TEST_F(TraceFileTest, RejectsOverflowingAddress) {
  // One past UINT32_MAX, and something far beyond even uint64.
  write_file("W 4294967296\n");
  const std::string what = parse_error(path_);
  EXPECT_NE(what.find("'4294967296'"), std::string::npos) << what;
  EXPECT_NE(what.find("overflow"), std::string::npos) << what;

  write_file("W 99999999999999999999999999\n");
  const std::string what2 = parse_error(path_);
  EXPECT_NE(what2.find("overflow"), std::string::npos) << what2;
}

TEST_F(TraceFileTest, AcceptsMaxAddress) {
  write_file("W 4294967295\n");
  TraceFileSource source(path_);
  EXPECT_EQ(source.next().addr.value(), 4294967295u);
}

TEST_F(TraceFileTest, RejectsTrailingGarbage) {
  write_file("W 1 stray\n");
  const std::string what = parse_error(path_);
  EXPECT_NE(what.find("'stray'"), std::string::npos) << what;
  EXPECT_NE(what.find("trailing"), std::string::npos) << what;
}

TEST_F(TraceFileTest, AcceptsInlineComments) {
  write_file("W 1 # the hot page\nR 2\n");
  TraceFileSource source(path_);
  EXPECT_EQ(source.records(), 2u);
}

TEST_F(TraceFileTest, RejectsEmptyFile) {
  write_file("");
  const std::string what = parse_error(path_);
  EXPECT_NE(what.find("no records"), std::string::npos) << what;
}

TEST_F(TraceFileTest, RejectsEmptyTrace) {
  write_file("# nothing here\n");
  EXPECT_THROW(TraceFileSource{path_}, std::runtime_error);
}

TEST_F(TraceFileTest, HandlesLongLinesAndCrLf) {
  // The old parser read through a 128-byte buffer; long comments and
  // Windows line endings must both survive.
  write_file("# " + std::string(500, 'x') + "\nW 7\r\nR 8\r\n");
  TraceFileSource source(path_);
  EXPECT_EQ(source.records(), 2u);
  EXPECT_EQ(source.next().addr.value(), 7u);
}

TEST_F(TraceFileTest, MissingFileThrows) {
  EXPECT_THROW(TraceFileSource{"/nonexistent/path.trc"},
               std::runtime_error);
}

TEST_F(TraceFileTest, WriterToUnwritablePathThrows) {
  EXPECT_THROW(TraceFileWriter{"/nonexistent/dir/trace.trc"},
               std::runtime_error);
}

TEST_F(TraceFileTest, RecordingSourceTees) {
  {
    SyntheticParams p;
    p.pages = 16;
    p.seed = 3;
    RecordingSource rec(std::make_unique<SyntheticTrace>(p), path_);
    for (int i = 0; i < 50; ++i) (void)rec.next();
  }
  TraceFileSource replay(path_);
  EXPECT_EQ(replay.records(), 50u);
  // Replay must match a fresh identical synthetic stream.
  SyntheticParams p;
  p.pages = 16;
  p.seed = 3;
  SyntheticTrace fresh(p);
  for (int i = 0; i < 50; ++i) {
    const auto a = fresh.next();
    const auto b = replay.next();
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.addr, b.addr);
  }
}

}  // namespace
}  // namespace twl
