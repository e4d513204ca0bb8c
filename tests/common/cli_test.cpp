#include "common/cli.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

namespace twl {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, EqualsSyntax) {
  const auto args = make({"--pages=4096", "--scheme=TWL"});
  EXPECT_EQ(args.get_int_or("pages", 0), 4096);
  EXPECT_EQ(args.get_or("scheme", ""), "TWL");
}

TEST(CliArgs, SpaceSyntax) {
  const auto args = make({"--pages", "1024"});
  EXPECT_EQ(args.get_int_or("pages", 0), 1024);
}

TEST(CliArgs, BareBooleanFlag) {
  const auto args = make({"--verbose"});
  EXPECT_TRUE(args.get_bool_or("verbose", false));
}

TEST(CliArgs, BooleanValues) {
  EXPECT_TRUE(make({"--x=true"}).get_bool_or("x", false));
  EXPECT_TRUE(make({"--x=1"}).get_bool_or("x", false));
  EXPECT_TRUE(make({"--x=yes"}).get_bool_or("x", false));
  EXPECT_FALSE(make({"--x=false"}).get_bool_or("x", true));
}

TEST(CliArgs, DefaultsWhenAbsent) {
  const auto args = make({});
  EXPECT_EQ(args.get_int_or("pages", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double_or("sigma", 0.11), 0.11);
  EXPECT_EQ(args.get_or("scheme", "TWL"), "TWL");
  EXPECT_FALSE(args.get(std::string("missing")).has_value());
}

TEST(CliArgs, DoubleParsing) {
  const auto args = make({"--sigma=0.25"});
  EXPECT_DOUBLE_EQ(args.get_double_or("sigma", 0.0), 0.25);
}

TEST(CliArgs, RejectsPositionalArguments) {
  EXPECT_THROW(make({"positional"}), std::invalid_argument);
}

TEST(CliArgs, IgnoresGoogleBenchmarkFlags) {
  const auto args = make({"--benchmark_filter=foo", "--pages=8"});
  EXPECT_EQ(args.get_int_or("pages", 0), 8);
  EXPECT_FALSE(args.has("benchmark_filter"));
}

TEST(CliArgs, UnconsumedReportsUntouchedFlags) {
  const auto args = make({"--pages=8", "--typo=1"});
  (void)args.get_int_or("pages", 0);
  const auto leftovers = args.unconsumed();
  ASSERT_EQ(leftovers.size(), 1u);
  EXPECT_EQ(leftovers[0], "typo");
}

TEST(CliArgs, HasMarksConsumed) {
  const auto args = make({"--flag"});
  EXPECT_TRUE(args.has("flag"));
  EXPECT_TRUE(args.unconsumed().empty());
}

// A CliError must name the flag and the offending value so the message is
// actionable on its own.
void expect_cli_error(const std::function<void()>& f,
                      const std::string& needle) {
  try {
    f();
    FAIL() << "expected CliError mentioning '" << needle << "'";
  } catch (const CliError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
  }
}

TEST(CliArgs, RejectsMalformedIntegers) {
  expect_cli_error(
      [] { (void)make({"--pages=12abc"}).get_int_or("pages", 0); }, "pages");
  expect_cli_error(
      [] { (void)make({"--pages=12abc"}).get_int_or("pages", 0); }, "12abc");
  expect_cli_error(
      [] { (void)make({"--pages="}).get_int_or("pages", 0); }, "pages");
  expect_cli_error(
      [] { (void)make({"--pages=1e9"}).get_int_or("pages", 0); }, "pages");
  expect_cli_error(
      [] {
        (void)make({"--pages=99999999999999999999999"})
            .get_int_or("pages", 0);
      },
      "pages");
}

TEST(CliArgs, AcceptsNegativeIntegers) {
  EXPECT_EQ(make({"--delta=-5"}).get_int_or("delta", 0), -5);
}

TEST(CliArgs, UintParsesAndDefaults) {
  EXPECT_EQ(make({"--pages=4096"}).get_uint_or("pages", 0), 4096u);
  EXPECT_EQ(make({}).get_uint_or("pages", 7), 7u);
  EXPECT_EQ(make({"--pages=0"}).get_uint_or("pages", 7), 0u);
}

// Regression: count-like flags (--pages, --seed, --trials...) used to go
// through get_int_or, so "--pages=-1" silently wrapped into a huge
// unsigned page count downstream instead of failing at parse time.
TEST(CliArgs, UintRejectsNegativeValuesNamingTheFlag) {
  expect_cli_error(
      [] { (void)make({"--pages=-1"}).get_uint_or("pages", 0); }, "pages");
  expect_cli_error(
      [] { (void)make({"--pages=-1"}).get_uint_or("pages", 0); }, "-1");
  expect_cli_error(
      [] { (void)make({"--seed=-5"}).get_uint_or("seed", 0); }, "seed");
}

TEST(CliArgs, UintRejectsMalformedValues) {
  expect_cli_error(
      [] { (void)make({"--pages=12abc"}).get_uint_or("pages", 0); }, "12abc");
  expect_cli_error(
      [] { (void)make({"--pages="}).get_uint_or("pages", 0); }, "pages");
  expect_cli_error(
      [] {
        (void)make({"--pages=99999999999999999999999"})
            .get_uint_or("pages", 0);
      },
      "pages");
}

// Regression (hot-path audit): every numeric parser must reject trailing
// garbage, surrounding whitespace and out-of-range values — strtol-family
// functions accept leading whitespace and stop at the first bad char, so
// "--writes=1e6" or "--pages= 42" used to half-parse into silent
// nonsense. One corpus, all three parsers.
TEST(CliArgs, NumericParsersRejectTrailingGarbageCorpus) {
  const char* bad_uints[] = {"12abc",  "0x10", "1e6",  " 42", "42 ",
                             "4 2",    "-1",   "--5",  "",    "abc",
                             "18446744073709551616", "99999999999999999999"};
  for (const char* v : bad_uints) {
    const std::string arg = std::string("--pages=") + v;
    expect_cli_error(
        [&] { (void)make({arg.c_str()}).get_uint_or("pages", 0); }, "pages");
  }
  const char* bad_ints[] = {"12abc", "0x10", "1e6", " 42", "42 ",
                            "4 2",   "",     "abc", "-",   "+-3"};
  for (const char* v : bad_ints) {
    const std::string arg = std::string("--delta=") + v;
    expect_cli_error(
        [&] { (void)make({arg.c_str()}).get_int_or("delta", 0); }, "delta");
  }
  const char* bad_doubles[] = {"0.1x", "abc", " 0.5", "0.5 ",
                               "1e",   "-",   "0..1"};
  for (const char* v : bad_doubles) {
    const std::string arg = std::string("--sigma=") + v;
    expect_cli_error(
        [&] { (void)make({arg.c_str()}).get_double_or("sigma", 0.0); },
        "sigma");
  }
}

TEST(CliArgs, UintAcceptsFullU64Range) {
  EXPECT_EQ(make({"--seed=18446744073709551615"}).get_uint_or("seed", 0),
            18446744073709551615ULL);
  EXPECT_EQ(make({"--seed=+7"}).get_uint_or("seed", 0), 7u);
}

TEST(CliArgs, RejectsMalformedDoubles) {
  expect_cli_error(
      [] { (void)make({"--sigma=0.1x"}).get_double_or("sigma", 0.0); },
      "sigma");
  expect_cli_error(
      [] { (void)make({"--sigma=abc"}).get_double_or("sigma", 0.0); },
      "abc");
}

TEST(CliArgs, AcceptsScientificNotationDoubles) {
  EXPECT_DOUBLE_EQ(make({"--endurance=1e8"}).get_double_or("endurance", 0.0),
                   1e8);
}

TEST(CliArgs, RejectsMalformedBooleans) {
  expect_cli_error(
      [] { (void)make({"--fast=maybe"}).get_bool_or("fast", false); },
      "maybe");
}

TEST(CliArgs, RejectsBareDashes) {
  EXPECT_THROW(make({"--"}), CliError);
  EXPECT_THROW(make({"--=5"}), CliError);
}

TEST(CliArgs, RejectUnconsumedThrowsNamingTheFlags) {
  const auto args = make({"--pages=8", "--tpyo=1"});
  (void)args.get_int_or("pages", 0);
  expect_cli_error([&] { args.reject_unconsumed(); }, "tpyo");
}

// The pre-canonical spellings (--threads, --wl, --fmt, ...) were
// retired: they are ordinary unknown flags now, rejected with exit 2.
TEST(RunCliMain, RetiredAliasSpellingIsAnUnknownFlag) {
  const char* argv[] = {"prog", "--threads=3"};
  const int rc = run_cli_main(2, argv, "usage\n", [](const CliArgs& args) {
    EXPECT_EQ(args.get_uint_or("jobs", 1), 1u);
    return 0;
  });
  EXPECT_EQ(rc, 2);
}

TEST(RunCliMain, ReturnsBodyResultOnSuccess) {
  const char* argv[] = {"prog", "--pages=16"};
  const int rc = run_cli_main(2, argv, "usage\n", [](const CliArgs& args) {
    EXPECT_EQ(args.get_int_or("pages", 0), 16);
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

TEST(RunCliMain, NonzeroExitOnUnknownFlag) {
  const char* argv[] = {"prog", "--tpyo=16"};
  const int rc = run_cli_main(2, argv, "usage\n",
                              [](const CliArgs&) { return 0; });
  EXPECT_NE(rc, 0);
}

TEST(RunCliMain, NonzeroExitOnMalformedValue) {
  const char* argv[] = {"prog", "--pages=abc"};
  const int rc = run_cli_main(2, argv, "usage\n", [](const CliArgs& args) {
    (void)args.get_int_or("pages", 0);
    return 0;
  });
  EXPECT_NE(rc, 0);
}

TEST(RunCliMain, HelpShortCircuitsBody) {
  const char* argv[] = {"prog", "--help"};
  bool ran = false;
  const int rc = run_cli_main(2, argv, "usage\n", [&](const CliArgs&) {
    ran = true;
    return 1;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace twl
