#include "trace/trace_file.h"

#include <cassert>
#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace twl {

TraceFileWriter::TraceFileWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open trace file for writing: " + path);
  }
  std::fprintf(file_, "# twl trace v1: '<R|W> <logical page>' per line\n");
}

TraceFileWriter::~TraceFileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void TraceFileWriter::append(const MemoryRequest& req) {
  std::fprintf(file_, "%c %" PRIu32 "\n", req.op == Op::kWrite ? 'W' : 'R',
               req.addr.value());
  ++records_;
}

namespace {

constexpr const char* kWhitespace = " \t\r";

/// Next whitespace-delimited token starting at or after `pos`; empty when
/// the line is exhausted. Advances `pos` past the token.
std::string next_token(const std::string& line, std::size_t& pos) {
  pos = line.find_first_not_of(kWhitespace, pos);
  if (pos == std::string::npos) {
    pos = line.size();
    return {};
  }
  const std::size_t end = line.find_first_of(kWhitespace, pos);
  const std::size_t stop = (end == std::string::npos) ? line.size() : end;
  std::string token = line.substr(pos, stop - pos);
  pos = stop;
  return token;
}

[[noreturn]] void parse_fail(const std::string& path, std::uint64_t line_no,
                             const std::string& what) {
  throw std::runtime_error(path + ":" + std::to_string(line_no) + ": " +
                           what);
}

/// Parses a logical page address, rejecting non-numeric input and values
/// that overflow the 32-bit page address space — naming the token either
/// way.
std::uint32_t parse_page(const std::string& path, std::uint64_t line_no,
                         const std::string& token) {
  if (token.empty() || token.find_first_not_of("0123456789") !=
                           std::string::npos) {
    parse_fail(path, line_no,
               "expected a decimal page address, got '" + token + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0' ||
      value > std::numeric_limits<std::uint32_t>::max()) {
    parse_fail(path, line_no,
               "page address '" + token + "' overflows the 32-bit page space");
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

TraceFileSource::TraceFileSource(const std::string& path) : name_(path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    std::size_t pos = 0;
    const std::string op = next_token(line, pos);
    if (op.empty() || op[0] == '#') continue;  // Blank line or comment.
    if (op != "R" && op != "W") {
      parse_fail(path, line_no, "expected op 'R' or 'W', got '" + op + "'");
    }
    const std::string addr = next_token(line, pos);
    if (addr.empty()) {
      parse_fail(path, line_no,
                 "truncated line: op '" + op + "' has no page address");
    }
    const std::uint32_t page = parse_page(path, line_no, addr);
    const std::string extra = next_token(line, pos);
    if (!extra.empty() && extra[0] != '#') {
      parse_fail(path, line_no,
                 "trailing garbage after page address: '" + extra + "'");
    }
    records_.push_back(MemoryRequest{op == "W" ? Op::kWrite : Op::kRead,
                                     LogicalPageAddr(page)});
    has_write_ = has_write_ || op == "W";
  }
  if (records_.empty()) {
    throw std::runtime_error("trace file has no records: " + path);
  }
}

MemoryRequest TraceFileSource::next() {
  const MemoryRequest req = records_[pos_];
  if (++pos_ == records_.size()) {
    pos_ = 0;
    ++loops_;
  }
  return req;
}

RecordingSource::RecordingSource(std::unique_ptr<RequestSource> inner,
                                 const std::string& path)
    : inner_(std::move(inner)), writer_(path) {
  assert(inner_ != nullptr);
}

MemoryRequest RecordingSource::next() {
  const MemoryRequest req = inner_->next();
  writer_.append(req);
  return req;
}

}  // namespace twl
