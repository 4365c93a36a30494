// Tests for the command-line parser used by examples and benches.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace dreamsim {
namespace {

bool ParseArgs(CliParser& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return cli.Parse(static_cast<int>(args.size()), args.data());
}

TEST(CliParser, DefaultsApplyWithoutArgs) {
  CliParser cli("test");
  cli.AddInt("n", 7, "count");
  cli.AddString("name", "x", "label");
  cli.AddDouble("ratio", 0.5, "ratio");
  cli.AddBool("flag", false, "flag");
  ASSERT_TRUE(ParseArgs(cli, {}));
  EXPECT_EQ(cli.GetInt("n"), 7);
  EXPECT_EQ(cli.GetString("name"), "x");
  EXPECT_DOUBLE_EQ(cli.GetDouble("ratio"), 0.5);
  EXPECT_FALSE(cli.GetBool("flag"));
}

TEST(CliParser, EqualsSyntax) {
  CliParser cli("test");
  cli.AddInt("n", 0, "count");
  ASSERT_TRUE(ParseArgs(cli, {"--n=42"}));
  EXPECT_EQ(cli.GetInt("n"), 42);
}

TEST(CliParser, SpaceSyntax) {
  CliParser cli("test");
  cli.AddInt("n", 0, "count");
  ASSERT_TRUE(ParseArgs(cli, {"--n", "13"}));
  EXPECT_EQ(cli.GetInt("n"), 13);
}

TEST(CliParser, BareBooleanFlagMeansTrue) {
  CliParser cli("test");
  cli.AddBool("verbose", false, "talk");
  ASSERT_TRUE(ParseArgs(cli, {"--verbose"}));
  EXPECT_TRUE(cli.GetBool("verbose"));
}

TEST(CliParser, BooleanExplicitValues) {
  CliParser cli("test");
  cli.AddBool("a", false, "");
  cli.AddBool("b", true, "");
  ASSERT_TRUE(ParseArgs(cli, {"--a=yes", "--b=off"}));
  EXPECT_TRUE(cli.GetBool("a"));
  EXPECT_FALSE(cli.GetBool("b"));
}

TEST(CliParser, PerformanceTogglesMirrorTheTool) {
  // The dreamsim tool registers both index toggles default-on; either can
  // be disabled to fall back to the reference scans.
  CliParser cli("test");
  cli.AddBool("scheduler-index", true, "");
  cli.AddBool("drain-index", true, "");
  ASSERT_TRUE(ParseArgs(cli, {}));
  EXPECT_TRUE(cli.GetBool("scheduler-index"));
  EXPECT_TRUE(cli.GetBool("drain-index"));
  ASSERT_TRUE(ParseArgs(cli, {"--drain-index=false", "--scheduler-index=off"}));
  EXPECT_FALSE(cli.GetBool("scheduler-index"));
  EXPECT_FALSE(cli.GetBool("drain-index"));
}

TEST(CliParser, UnknownOptionFails) {
  CliParser cli("test");
  ASSERT_FALSE(ParseArgs(cli, {"--nope=1"}));
  EXPECT_NE(cli.error().find("nope"), std::string::npos);
}

TEST(CliParser, MalformedIntFails) {
  CliParser cli("test");
  cli.AddInt("n", 0, "");
  ASSERT_FALSE(ParseArgs(cli, {"--n=abc"}));
  EXPECT_NE(cli.error().find("integer"), std::string::npos);
}

TEST(CliParser, MalformedDoubleFails) {
  // "nan" and "inf" parse as doubles, but slip past range checks and would
  // silently disable faults, closest-match tasks or a sweep's scale.
  for (const char* arg : {"--r=1.2.3", "--r=nan", "--r=-nan", "--r=inf",
                          "--r=-inf", "--r=infinity", "--r=NAN"}) {
    CliParser cli("test");
    cli.AddDouble("r", 0.0, "");
    ASSERT_FALSE(ParseArgs(cli, {arg})) << arg;
    EXPECT_NE(cli.error().find("expected a finite number"), std::string::npos)
        << cli.error();
  }
}

TEST(CliParser, IntInRangeRejectsBothSides) {
  CliParser cli("test");
  cli.AddInt("threads", 0, "");
  cli.AddInt("n", 0, "");
  ASSERT_TRUE(ParseArgs(cli, {"--threads=4294967297", "--n=-1"}));
  EXPECT_EQ(IntInRange(cli, "n", -1, 0), -1);
  try {
    (void)IntInRange(cli, "threads", 0, 4294967295);
    FAIL() << "--threads=4294967297 accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "--threads must be in [0, 4294967295], got 4294967297");
  }
  EXPECT_THROW((void)IntInRange(cli, "n", 0, 5), std::invalid_argument);
}

TEST(CliParser, IntAtLeastRejectsBelowMinimum) {
  CliParser cli("test");
  cli.AddInt("threads", 0, "");
  cli.AddInt("n", 0, "");
  ASSERT_TRUE(ParseArgs(cli, {"--threads=-1", "--n=3"}));
  EXPECT_EQ(IntAtLeast(cli, "n", 0), 3);
  EXPECT_EQ(IntAtLeast(cli, "n", 3), 3);
  try {
    (void)IntAtLeast(cli, "threads", 0);
    FAIL() << "--threads=-1 accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "--threads must be >= 0, got -1");
  }
}

TEST(CliParser, MissingValueFails) {
  CliParser cli("test");
  cli.AddInt("n", 0, "");
  ASSERT_FALSE(ParseArgs(cli, {"--n"}));
  EXPECT_NE(cli.error().find("expects a value"), std::string::npos);
}

TEST(CliParser, NegativeNumbers) {
  CliParser cli("test");
  cli.AddInt("n", 0, "");
  cli.AddDouble("d", 0.0, "");
  ASSERT_TRUE(ParseArgs(cli, {"--n=-5", "--d=-1.5"}));
  EXPECT_EQ(cli.GetInt("n"), -5);
  EXPECT_DOUBLE_EQ(cli.GetDouble("d"), -1.5);
}

TEST(CliParser, StrayArgumentFails) {
  // `--flag false` is the bare flag plus a stray `false`: it must fail, not
  // run with the flag on.
  CliParser cli("test");
  cli.AddBool("b", false, "");
  ASSERT_FALSE(ParseArgs(cli, {"--b", "false"}));
  EXPECT_NE(cli.error().find("'false'"), std::string::npos);
  EXPECT_NE(cli.error().find("--name=value"), std::string::npos);
}

TEST(CliParser, HelpRequested) {
  CliParser cli("test tool");
  cli.AddInt("n", 3, "the count");
  ASSERT_TRUE(ParseArgs(cli, {"--help"}));
  EXPECT_TRUE(cli.help_requested());
  const std::string help = cli.HelpText();
  EXPECT_NE(help.find("test tool"), std::string::npos);
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_NE(help.find("default: 3"), std::string::npos);
}

TEST(CliParser, TypeMismatchAccessThrows) {
  CliParser cli("test");
  cli.AddInt("n", 0, "");
  ASSERT_TRUE(ParseArgs(cli, {}));
  EXPECT_THROW((void)cli.GetString("n"), std::logic_error);
  EXPECT_THROW((void)cli.GetInt("missing"), std::logic_error);
}

TEST(CliParser, WasSetDistinguishesDefaultsFromExplicit) {
  // WasSet backs dreamsim's --seed, --mode, --policy and --explain handling
  // and its --scenario conflict check: the tool must tell an explicitly
  // passed option apart from one left at its default.
  CliParser cli("test");
  cli.AddInt("n", 7, "");
  cli.AddString("out", "", "");
  cli.AddBool("flag", false, "");
  ASSERT_TRUE(ParseArgs(cli, {"--n=7", "--flag"}));
  EXPECT_TRUE(cli.WasSet("n"));  // explicit, even though it equals the default
  EXPECT_TRUE(cli.WasSet("flag"));
  EXPECT_FALSE(cli.WasSet("out"));
  EXPECT_THROW((void)cli.WasSet("missing"), std::logic_error);
}

}  // namespace
}  // namespace dreamsim
