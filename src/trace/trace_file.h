// Trace file I/O.
//
// The paper replays gem5-collected memory traces "in loops until a PCM
// page wears out". This module provides the equivalent plumbing for real
// traces: a line-oriented text format ("R <page>" / "W <page>", '#'
// comments), a looping file-backed RequestSource, a writer, and a tee
// that records any live source to disk for later replay.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/synthetic.h"

namespace twl {

/// Writes requests in the text trace format. Flushes on destruction.
class TraceFileWriter {
 public:
  /// Throws std::runtime_error if the file cannot be opened.
  explicit TraceFileWriter(const std::string& path);
  ~TraceFileWriter();

  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  void append(const MemoryRequest& req);

  [[nodiscard]] std::uint64_t records_written() const { return records_; }

 private:
  std::FILE* file_;
  std::uint64_t records_ = 0;
};

/// Replays a trace file. The whole trace is loaded once (memory-resident
/// replay keeps lifetime loops cheap) and loops forever, matching the
/// paper's replay-until-wear-out methodology.
class TraceFileSource final : public RequestSource {
 public:
  /// Throws std::runtime_error on open failure or parse errors. Parse
  /// errors report the file, line number and the offending token —
  /// truncated lines, non-numeric or overflowing addresses and trailing
  /// garbage are each diagnosed specifically.
  explicit TraceFileSource(const std::string& path);

  [[nodiscard]] std::string name() const override { return name_; }
  MemoryRequest next() override;
  /// False for a file of reads only, whose next_write() then throws.
  [[nodiscard]] bool has_writes() const override { return has_write_; }

  [[nodiscard]] std::size_t records() const { return records_.size(); }
  /// How many times the trace has wrapped around.
  [[nodiscard]] std::uint64_t loops() const { return loops_; }

 private:
  std::string name_;
  std::vector<MemoryRequest> records_;
  bool has_write_ = false;
  std::size_t pos_ = 0;
  std::uint64_t loops_ = 0;
};

/// Tees an inner source to a trace file while passing requests through.
class RecordingSource final : public RequestSource {
 public:
  RecordingSource(std::unique_ptr<RequestSource> inner,
                  const std::string& path);

  [[nodiscard]] std::string name() const override {
    return inner_->name() + "(recorded)";
  }
  MemoryRequest next() override;
  [[nodiscard]] bool has_writes() const override {
    return inner_->has_writes();
  }

 private:
  std::unique_ptr<RequestSource> inner_;
  TraceFileWriter writer_;
};

}  // namespace twl
