// Minimal command-line flag parser for the bench and example binaries.
//
// Flags are `--name=value` or `--name value`; unknown flags and malformed
// numeric values are errors so typos in sweep scripts fail loudly with a
// message and the binary's usage text instead of being ignored or
// crashing. Bench binaries built against google-benchmark pass through
// flags starting with --benchmark_.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace twl {

/// Malformed command line: bad flag syntax, non-numeric value for a
/// numeric flag, or an unknown flag. run_cli_main() turns this into a
/// clear stderr message plus the usage text and a nonzero exit code.
class CliError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class CliArgs {
 public:
  /// Parses argv. Throws CliError on malformed input.
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   const std::string& def) const;
  /// Numeric getters throw CliError (naming the flag and the offending
  /// value) when the value is not fully parseable or out of range.
  [[nodiscard]] std::int64_t get_int_or(const std::string& name,
                                        std::int64_t def) const;
  /// For count-like flags (--pages, --seed, --jobs, ...): rejects
  /// negative values at parse time, naming the flag. Without this,
  /// --pages=-1 would cast to a huge uint64 and either OOM or sail past
  /// Config::validate with a nonsensical device.
  [[nodiscard]] std::uint64_t get_uint_or(const std::string& name,
                                          std::uint64_t def) const;
  [[nodiscard]] double get_double_or(const std::string& name,
                                     double def) const;
  [[nodiscard]] bool get_bool_or(const std::string& name, bool def) const;

  [[nodiscard]] bool has(const std::string& name) const;

  /// Names the caller never queried — used to reject typos.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

  /// Throws CliError listing any flag the caller never queried. Call
  /// after reading all expected flags, before doing real work.
  void reject_unconsumed() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
};

/// Standard main() wrapper for flag-driven binaries: parses argv, handles
/// --help, runs `body`, and converts CliError / std::invalid_argument
/// into an error message plus `usage` on stderr and exit code 2.
int run_cli_main(int argc, const char* const* argv, const std::string& usage,
                 const std::function<int(const CliArgs&)>& body);

}  // namespace twl
