#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

namespace dear::common {
namespace {

[[nodiscard]] Cli make_cli() {
  Cli cli("harness", "Test harness.");
  cli.add_int("frames", 100, "frames to run");
  cli.add_double("scale", 1.5, "stress scale");
  cli.add_string("out", "report.json", "output path");
  cli.add_flag("verbose", "chatty output");
  return cli;
}

TEST(Cli, DefaultsApplyWhenNothingIsPassed) {
  Cli cli = make_cli();
  const char* argv[] = {"harness"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("frames"), 100u);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 1.5);
  EXPECT_EQ(cli.get_string("out"), "report.json");
  EXPECT_FALSE(cli.get_flag("verbose"));
  EXPECT_FALSE(cli.was_set("frames"));
}

TEST(Cli, TypedValuesParseFromBothSyntaxes) {
  Cli cli = make_cli();
  const char* argv[] = {"harness", "--frames=250", "--scale", "0.5", "--verbose"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("frames"), 250u);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 0.5);
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_TRUE(cli.was_set("frames"));
}

TEST(Cli, HelpStopsTheRunWithExitCodeZero) {
  Cli cli = make_cli();
  const char* argv[] = {"harness", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_EQ(cli.exit_code(), 0);
}

TEST(Cli, UnknownFlagIsRejectedWithExitCodeOne) {
  Cli cli = make_cli();
  const char* argv[] = {"harness", "--framez", "10"};
  EXPECT_FALSE(cli.parse(3, argv));
  EXPECT_EQ(cli.exit_code(), 1);
}

TEST(Cli, MalformedValuesAreRejectedNotTruncated) {
  {
    Cli cli = make_cli();
    const char* argv[] = {"harness", "--frames", "10O0"};  // typo'd zero
    EXPECT_FALSE(cli.parse(3, argv));
    EXPECT_EQ(cli.exit_code(), 1);
  }
  {
    Cli cli = make_cli();
    const char* argv[] = {"harness", "--scale", "1.5x"};
    EXPECT_FALSE(cli.parse(3, argv));
  }
  {
    Cli cli = make_cli();
    const char* argv[] = {"harness", "--verbose=maybe"};
    EXPECT_FALSE(cli.parse(2, argv));
  }
  {
    Cli cli = make_cli();
    const char* argv[] = {"harness", "--frames", "-3"};  // counts are unsigned
    EXPECT_FALSE(cli.parse(3, argv));
    EXPECT_EQ(cli.exit_code(), 1);
  }
  {
    Cli cli = make_cli();
    const char* argv[] = {"harness", "--frames", "7", "--scale", "2e-1", "--verbose=yes"};
    EXPECT_TRUE(cli.parse(6, argv));
    EXPECT_EQ(cli.get_int("frames"), 7u);
    EXPECT_DOUBLE_EQ(cli.get_double("scale"), 0.2);
    EXPECT_TRUE(cli.get_flag("verbose"));
  }
}

TEST(Cli, NegativeIntegersAreRejected) {
  for (const char* value : {"-1", "-0", "+5", " 5", "0x10"}) {
    Cli cli = make_cli();
    const char* argv[] = {"harness", "--frames", value};
    EXPECT_FALSE(cli.parse(3, argv)) << value;
    EXPECT_EQ(cli.exit_code(), 1) << value;
  }
  Cli cli = make_cli();
  const char* argv[] = {"harness", "--frames=-1"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, IntegerOverflowIsRejected) {
  {
    Cli cli = make_cli();
    const char* argv[] = {"harness", "--frames", "18446744073709551615"};  // 2^64 - 1
    ASSERT_TRUE(cli.parse(3, argv));
    EXPECT_EQ(cli.get_int("frames"), 18446744073709551615u);
  }
  {
    Cli cli = make_cli();
    const char* argv[] = {"harness", "--frames", "18446744073709551616"};  // 2^64
    EXPECT_FALSE(cli.parse(3, argv));
    EXPECT_EQ(cli.exit_code(), 1);
  }
}

TEST(Cli, PositionalArgumentsAreRejected) {
  {
    Cli cli = make_cli();
    const char* argv[] = {"harness", "extra-positional"};
    EXPECT_FALSE(cli.parse(2, argv));
    EXPECT_EQ(cli.exit_code(), 1);
  }
  {
    // A flag with an `=` value does not take the next token.
    Cli cli = make_cli();
    const char* argv[] = {"harness", "--frames=5", "6"};
    EXPECT_FALSE(cli.parse(3, argv));
    EXPECT_EQ(cli.exit_code(), 1);
  }
}

TEST(Cli, UsageListsEveryOptionWithDefaults) {
  const Cli cli = make_cli();
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--frames"), std::string::npos);
  EXPECT_NE(usage.find("frames to run"), std::string::npos);
  EXPECT_NE(usage.find("default: 100"), std::string::npos);
  EXPECT_NE(usage.find("--scale"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(Cli, ValueOptionWithoutAValueIsRejected) {
  for (const char* flag : {"--out", "--frames"}) {
    Cli cli = make_cli();
    const char* argv[] = {"harness", flag, "--verbose"};
    EXPECT_FALSE(cli.parse(3, argv)) << flag;
    EXPECT_EQ(cli.exit_code(), 1) << flag;
  }
}

TEST(Cli, RepeatableOptionKeepsEveryValueInCommandLineOrder) {
  Cli cli("harness", "Test harness.");
  cli.add_strings("workload", "workload to lint");
  cli.add_strings("campaign", "campaign to lint");
  cli.add_flag("quiet", "terse output");
  const char* argv[] = {"harness", "--workload", "dear", "--campaign=smoke", "--quiet",
                        "--workload=acc", "--workload", "nondet"};
  ASSERT_TRUE(cli.parse(8, argv));
  EXPECT_EQ(cli.get_strings("workload"), (std::vector<std::string>{"dear", "acc", "nondet"}));
  EXPECT_EQ(cli.get_strings("campaign"), (std::vector<std::string>{"smoke"}));
  EXPECT_TRUE(cli.get_flag("quiet"));
  EXPECT_TRUE(cli.was_set("workload"));
  EXPECT_NE(cli.usage().find("(repeatable)"), std::string::npos);
  EXPECT_THROW((void)cli.get_string("workload"), std::logic_error) << "type mismatch must throw";

  Cli none("harness", "Test harness.");
  none.add_strings("workload", "workload to lint");
  const char* bare[] = {"harness"};
  ASSERT_TRUE(none.parse(1, bare));
  EXPECT_TRUE(none.get_strings("workload").empty());
  EXPECT_FALSE(none.was_set("workload"));
}

TEST(Cli, UnregisteredAccessThrows) {
  Cli cli = make_cli();
  const char* argv[] = {"harness"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW((void)cli.get_int("nope"), std::logic_error);
  EXPECT_THROW((void)cli.get_int("scale"), std::logic_error) << "type mismatch must throw";
}

// Token grammar of Cli::parse.

[[nodiscard]] Cli parse_ok(std::initializer_list<const char*> args) {
  Cli cli("prog", "Token grammar.");
  cli.add_int("frames", 0, "");
  cli.add_double("scale", 0.0, "");
  cli.add_string("name", "", "");
  cli.add_string("label", "", "");
  cli.add_flag("verbose", "");
  cli.add_flag("fast", "");
  cli.add_flag("slow", "");
  cli.add_flag("n", "");
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  return cli;
}

TEST(Flags, EqualsSyntax) {
  const Cli cli = parse_ok({"--frames=100", "--scale=0.5", "--name=hello"});
  EXPECT_EQ(cli.get_int("frames"), 100u);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 0.5);
  EXPECT_EQ(cli.get_string("name"), "hello");
}

TEST(Flags, SpaceSyntax) {
  const Cli cli = parse_ok({"--frames", "42", "--label", "x"});
  EXPECT_EQ(cli.get_int("frames"), 42u);
  EXPECT_EQ(cli.get_string("label"), "x");
}

TEST(Flags, BooleanForms) {
  const Cli cli = parse_ok({"--verbose", "--fast=true", "--slow=false", "--n=1"});
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_TRUE(cli.get_flag("fast"));
  EXPECT_FALSE(cli.get_flag("slow"));
  EXPECT_TRUE(cli.get_flag("n"));
}

TEST(Flags, Fallbacks) {
  const Cli cli = parse_ok({});
  EXPECT_EQ(cli.get_int("frames"), 0u);
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 0.0);
  EXPECT_EQ(cli.get_string("name"), "");
  EXPECT_FALSE(cli.get_flag("verbose"));
  EXPECT_FALSE(cli.was_set("frames"));
}

TEST(Flags, FlagFollowedByFlagIsBoolean) {
  const Cli cli = parse_ok({"--verbose", "--frames", "7"});
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_EQ(cli.get_int("frames"), 7u);
}

}  // namespace
}  // namespace dear::common
