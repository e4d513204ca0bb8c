#include "common/cli.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace twl {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  throw CliError("invalid value for --" + name + ": '" + value +
                 "' (expected " + expected + ")");
}

// The strto* family silently skips leading whitespace, so " 12" and
// "\t-3" would parse; a flag value with stray whitespace is a quoting
// mistake in the invoking script and should be loud.
bool has_leading_space(const std::string& v) {
  return !v.empty() && std::isspace(static_cast<unsigned char>(v[0])) != 0;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--benchmark_", 0) == 0) continue;  // google-benchmark's.
    if (arg.rfind("--", 0) != 0) {
      throw CliError("expected --flag, got: '" + std::string(arg) + "'");
    }
    arg.remove_prefix(2);
    if (arg.empty()) {
      throw CliError("expected --flag, got bare '--'");
    }
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      if (eq == 0) {
        throw CliError("expected --flag=value, got: '--" + std::string(arg) +
                       "'");
      }
      values_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      values_[std::string(arg)] = argv[++i];
    } else {
      values_[std::string(arg)] = "true";  // bare boolean flag
    }
  }
}

std::optional<std::string> CliArgs::get(const std::string& name) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& name,
                            const std::string& def) const {
  return get(name).value_or(def);
}

std::int64_t CliArgs::get_int_or(const std::string& name,
                                 std::int64_t def) const {
  const auto v = get(name);
  if (!v) return def;
  // strtoll via endptr so trailing garbage ("12abc") is rejected, unlike
  // std::stoll which silently accepts it.
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (has_leading_space(*v) || end == v->c_str() || *end != '\0') {
    bad_value(name, *v, "an integer");
  }
  if (errno == ERANGE) {
    bad_value(name, *v, "an integer in range");
  }
  return parsed;
}

std::uint64_t CliArgs::get_uint_or(const std::string& name,
                                   std::uint64_t def) const {
  const auto v = get(name);
  if (!v) return def;
  // strtoull, not strtoll: values in (2^63, 2^64) are valid uint64 flag
  // settings (e.g. a full-range endurance) and strtoll would reject them
  // with ERANGE. strtoull's quirk of accepting "-1" (wrapping to 2^64-1)
  // means the sign must be rejected explicitly.
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v->c_str(), &end, 10);
  if (has_leading_space(*v) || (*v)[0] == '-' || end == v->c_str() ||
      *end != '\0') {
    bad_value(name, *v, "a non-negative integer");
  }
  if (errno == ERANGE) {
    bad_value(name, *v, "a non-negative integer in range");
  }
  return static_cast<std::uint64_t>(parsed);
}

double CliArgs::get_double_or(const std::string& name, double def) const {
  const auto v = get(name);
  if (!v) return def;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (has_leading_space(*v) || end == v->c_str() || *end != '\0') {
    bad_value(name, *v, "a number");
  }
  if (errno == ERANGE) {
    bad_value(name, *v, "a number in range");
  }
  return parsed;
}

bool CliArgs::get_bool_or(const std::string& name, bool def) const {
  const auto v = get(name);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  bad_value(name, *v, "true/false");
}

bool CliArgs::has(const std::string& name) const {
  consumed_[name] = true;
  return values_.count(name) > 0;
}

std::vector<std::string> CliArgs::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_) {
    if (!consumed_.count(k)) out.push_back(k);
  }
  return out;
}

void CliArgs::reject_unconsumed() const {
  const auto leftover = unconsumed();
  if (leftover.empty()) return;
  std::string msg = "unknown flag(s):";
  for (const auto& f : leftover) msg += " --" + f;
  throw CliError(msg);
}

int run_cli_main(int argc, const char* const* argv, const std::string& usage,
                 const std::function<int(const CliArgs&)>& body) {
  try {
    const CliArgs args(argc, argv);
    if (args.has("help")) {
      std::printf("%s", usage.c_str());
      return 0;
    }
    const int rc = body(args);
    // Backstop for binaries that don't check explicitly up front: any
    // flag the body never looked at is a typo.
    args.reject_unconsumed();
    return rc;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n\n%s", e.what(), usage.c_str());
    return 2;
  }
}

}  // namespace twl
