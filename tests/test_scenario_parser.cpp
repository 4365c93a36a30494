// Negative-path tests for the scenario parser: every rejected input must
// produce a diagnostic anchored to the offending 1-based source line, and
// the parser must recover and keep reporting (one pass finds all problems).
#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

namespace dreamsim::scenario {
namespace {

// Parses and returns the diagnostics, failing the test if the input was
// accepted.
std::vector<ScenarioError> MustFail(std::string_view text) {
  auto result = ParseScenario(text);
  if (result.has_value()) {
    ADD_FAILURE() << "parser accepted invalid input:\n" << text;
    return {};
  }
  EXPECT_FALSE(result.error().empty());
  return std::move(result.error());
}

// True if any diagnostic sits on `line` and mentions `needle`.
bool HasError(const std::vector<ScenarioError>& errors, int line,
              std::string_view needle) {
  return std::any_of(errors.begin(), errors.end(),
                     [&](const ScenarioError& e) {
                       return e.line == line &&
                              e.message.find(needle) != std::string::npos;
                     });
}

std::string Dump(const std::vector<ScenarioError>& errors) {
  return Render(errors);
}

// A minimal valid scenario to splice bad fragments into.
constexpr std::string_view kValid = R"(simulation: {
  name: ok
  seed: 1
}
device class: {
  name: fabric
  count: 10
  area: [1000, 4000]
}
task class: {
  name: t
  count: 10
  interval: [1, 50]
}
)";

TEST(ScenarioParser, AcceptsTheMinimalScenario) {
  auto result = ParseScenario(kValid);
  ASSERT_TRUE(result.has_value()) << Render(result.error());
  EXPECT_EQ(result.value().name, "ok");
  EXPECT_EQ(result.value().config.seed, 1u);
  ASSERT_EQ(result.value().config.device_classes.size(), 1u);
  ASSERT_EQ(result.value().config.task_classes.size(), 1u);
}

TEST(ScenarioParser, EmptyInputIsAValidDefaultScenario) {
  // No blocks at all: Table II defaults throughout.
  auto result = ParseScenario("");
  ASSERT_TRUE(result.has_value()) << Render(result.error());
  EXPECT_TRUE(result.value().config.device_classes.empty());
  EXPECT_TRUE(result.value().config.task_classes.empty());
}

TEST(ScenarioParser, UnknownBlockIsAnchoredToItsHeaderLine) {
  const auto errors = MustFail(
      "widget class: {\n"
      "  name: x\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 1, "unknown block 'widget class:'"))
      << Dump(errors);
}

TEST(ScenarioParser, UnknownBlockBodyIsConsumedWithoutCascade) {
  // Recovery: the bogus block errors once; the valid block after it still
  // parses, so the only diagnostic is the header's.
  const auto errors = MustFail(
      "widget class: {\n"
      "  name: x\n"
      "  count: 3\n"
      "}\n"
      "simulation: {\n"
      "  seed: 7\n"
      "}\n");
  ASSERT_EQ(errors.size(), 1u) << Dump(errors);
  EXPECT_EQ(errors[0].line, 1);
}

TEST(ScenarioParser, DuplicateSimulationBlock) {
  const auto errors = MustFail(
      "simulation: {\n"
      "  seed: 1\n"
      "}\n"
      "simulation: {\n"
      "  seed: 2\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 4, "duplicate 'simulation:' block"))
      << Dump(errors);
}

TEST(ScenarioParser, UnterminatedBlockPointsAtTheHeader) {
  const auto errors = MustFail(
      "simulation: {\n"
      "  seed: 1\n");
  EXPECT_TRUE(HasError(errors, 1, "never closed")) << Dump(errors);
}

TEST(ScenarioParser, HeaderWithoutBraceOnNextLine) {
  const auto errors = MustFail(
      "simulation:\n"
      "seed: 1\n"
      "}\n");
  EXPECT_TRUE(
      HasError(errors, 2, "expected '{' to open the 'simulation:' block"))
      << Dump(errors);
}

TEST(ScenarioParser, StrayTextOutsideBlocks) {
  const auto errors = MustFail("hello world\n");
  EXPECT_TRUE(HasError(errors, 1, "expected a block header")) << Dump(errors);
}

TEST(ScenarioParser, MissingValue) {
  const auto errors = MustFail(
      "simulation: {\n"
      "  seed:\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 2, "key 'seed' has no value")) << Dump(errors);
}

TEST(ScenarioParser, DuplicateKeyInsideABlock) {
  const auto errors = MustFail(
      "simulation: {\n"
      "  seed: 1\n"
      "  seed: 2\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 3, "duplicate key 'seed'")) << Dump(errors);
}

TEST(ScenarioParser, UnknownKeyNamesTheBlock) {
  const auto errors = MustFail(
      "configurations: {\n"
      "  colour: blue\n"
      "}\n");
  EXPECT_TRUE(
      HasError(errors, 2, "unknown key 'colour' in 'configurations:' block"))
      << Dump(errors);
}

TEST(ScenarioParser, MalformedInteger) {
  const auto errors = MustFail(
      "simulation: {\n"
      "  seed: banana\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 2, "expected a non-negative integer"))
      << Dump(errors);
}

TEST(ScenarioParser, UnknownPtypeName) {
  const auto errors = MustFail(
      "configurations: {\n"
      "  ptypes: mult32 quantum_alu\n"
      "}\n");
  EXPECT_TRUE(
      HasError(errors, 2, "unknown processor type 'quantum_alu'"))
      << Dump(errors);
}

TEST(ScenarioParser, DuplicatePtypeName) {
  const auto errors = MustFail(
      "configurations: {\n"
      "  ptypes: mult32 mult32\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 2, "duplicate processor type 'mult32'"))
      << Dump(errors);
}

TEST(ScenarioParser, PtypeSelectionIsParsedInOrder) {
  auto result = ParseScenario(
      "configurations: {\n"
      "  ptypes: systolic8x8 mult32\n"
      "}\n");
  ASSERT_TRUE(result.has_value()) << Render(result.error());
  const auto& ptypes = result.value().config.configs.ptypes;
  ASSERT_EQ(ptypes.size(), 2u);
  EXPECT_EQ(ptypes[0], "systolic8x8");
  EXPECT_EQ(ptypes[1], "mult32");
}

TEST(ScenarioParser, PtypesAllMeansTheWholeCatalogue) {
  auto result = ParseScenario(
      "configurations: {\n"
      "  ptypes: all\n"
      "}\n");
  ASSERT_TRUE(result.has_value()) << Render(result.error());
  EXPECT_TRUE(result.value().config.configs.ptypes.empty());
}

TEST(ScenarioParser, MalformedRange) {
  const auto errors = MustFail(
      "configurations: {\n"
      "  area: 200-2000\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 2, "expected a range '[lo, hi]'"))
      << Dump(errors);
}

TEST(ScenarioParser, InvertedRange) {
  const auto errors = MustFail(
      "configurations: {\n"
      "  area: [2000, 200]\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 2, "area")) << Dump(errors);
}

TEST(ScenarioParser, UnknownMode) {
  const auto errors = MustFail(
      "simulation: {\n"
      "  mode: sideways\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 2, "mode")) << Dump(errors);
}

TEST(ScenarioParser, UnknownPolicy) {
  const auto errors = MustFail(
      "simulation: {\n"
      "  policy: magic\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 2, "unknown policy 'magic'")) << Dump(errors);
}

TEST(ScenarioParser, DeviceClassWithoutName) {
  const auto errors = MustFail(
      "device class: {\n"
      "  count: 10\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 1, "device class needs a 'name:'"))
      << Dump(errors);
}

TEST(ScenarioParser, DeviceClassWithoutCount) {
  const auto errors = MustFail(
      "device class: {\n"
      "  name: fabric\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 1, "needs a 'count:'")) << Dump(errors);
}

TEST(ScenarioParser, DuplicateDeviceClassName) {
  const auto errors = MustFail(
      "device class: {\n"
      "  name: fabric\n"
      "  count: 10\n"
      "}\n"
      "device class: {\n"
      "  name: fabric\n"
      "  count: 20\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 5, "duplicate device class name 'fabric'"))
      << Dump(errors);
}

TEST(ScenarioParser, DuplicateTaskClassName) {
  const auto errors = MustFail(
      "task class: {\n"
      "  name: t\n"
      "  count: 10\n"
      "}\n"
      "task class: {\n"
      "  name: t\n"
      "  count: 10\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 5, "duplicate task class name 't'"))
      << Dump(errors);
}

TEST(ScenarioParser, TaskClassCountDefaultsToTableII) {
  // An omitted count inherits the Table II budget of 1000 — minimal
  // scenarios stay minimal.
  auto result = ParseScenario(
      "task class: {\n"
      "  name: t\n"
      "  interval: [1, 50]\n"
      "}\n");
  ASSERT_TRUE(result.has_value()) << Render(result.error());
  ASSERT_EQ(result.value().config.task_classes.size(), 1u);
  EXPECT_EQ(result.value().config.task_classes[0].base.total_tasks, 1000);
}

TEST(ScenarioParser, TaskClassWithoutBudget) {
  // An explicit zero count with no end-time budget: the semantic
  // validator fires, anchored at the block header.
  const auto errors = MustFail(
      "task class: {\n"
      "  name: t\n"
      "  count: 0\n"
      "  interval: [1, 50]\n"
      "}\n");
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].line, 1) << Dump(errors);
}

TEST(ScenarioParser, WindowedTaskClassNeedsAnEndTime) {
  const auto errors = MustFail(
      "task class: {\n"
      "  name: t\n"
      "  arrivals: windowed\n"
      "  start time: 100\n"
      "}\n");
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].line, 1) << Dump(errors);
}

TEST(ScenarioParser, GraphFractionOutOfRange) {
  const auto errors = MustFail(
      "task class: {\n"
      "  name: t\n"
      "  count: 10\n"
      "  graph fraction: 1.5\n"
      "}\n");
  ASSERT_FALSE(errors.empty()) << Dump(errors);
}

TEST(ScenarioParser, LiteralZeroTaskClassSeedIsRejected) {
  const auto errors = MustFail(
      "task class: {\n"
      "  name: t\n"
      "  count: 10\n"
      "  seed: 0\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 4, "seed")) << Dump(errors);
}

TEST(ScenarioParser, ClosestMatchSlowdownMustBeFiniteAndCapped) {
  // NaN slipped past the old `d < 1.0` test; inf and 1e300 passed it.
  for (const std::string_view bad : {"nan", "inf", "-inf", "1e300", "1001",
                                     "0.5"}) {
    const std::string text = "simulation: {\n  closest match slowdown: " +
                             std::string(bad) + "\n}\n";
    const auto errors = MustFail(text);
    EXPECT_TRUE(HasError(errors, 2, "closest match slowdown")) << Dump(errors);
  }
  const auto parsed = ParseScenario(
      "simulation: {\n  closest match slowdown: 1000\n}\n");
  ASSERT_TRUE(parsed.has_value()) << Dump(parsed.error());
  EXPECT_EQ(parsed->config.closest_match_slowdown, 1000.0);
}

TEST(ScenarioParser, BadNameToken) {
  const auto errors = MustFail(
      "device class: {\n"
      "  name: two words\n"
      "  count: 10\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 2, "single tokens")) << Dump(errors);
}

TEST(ScenarioParser, OnePassReportsEveryProblem) {
  // Three independent mistakes on three lines: all reported, all anchored.
  const auto errors = MustFail(
      "simulation: {\n"
      "  seed: x\n"
      "  mode: diagonal\n"
      "  colour: red\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 2, "seed")) << Dump(errors);
  EXPECT_TRUE(HasError(errors, 3, "mode")) << Dump(errors);
  EXPECT_TRUE(HasError(errors, 4, "unknown key 'colour'")) << Dump(errors);
}

TEST(ScenarioParser, CommentsAndBlankLinesDoNotShiftLineNumbers) {
  const auto errors = MustFail(
      "# leading comment\n"
      "\n"
      "simulation: {\n"
      "  # inner comment\n"
      "  seed: banana\n"
      "}\n");
  EXPECT_TRUE(HasError(errors, 5, "seed")) << Dump(errors);
}

TEST(ScenarioParser, UnreadableFileReportsLineZero) {
  auto result = ParseScenarioFile("/nonexistent/path/to/scenario.scn");
  ASSERT_FALSE(result.has_value());
  ASSERT_EQ(result.error().size(), 1u);
  EXPECT_EQ(result.error()[0].line, 0);
}

TEST(ScenarioParser, RenderFormatsOnePerLine) {
  const std::vector<ScenarioError> errors = {{3, "bad thing"},
                                             {7, "worse thing"}};
  EXPECT_EQ(Render(errors), "line 3: bad thing\nline 7: worse thing\n");
}

TEST(ScenarioParser, TotalNodeBudgetIsEnforced) {
  const auto errors = MustFail(
      "device class: {\n"
      "  name: a\n"
      "  count: 16000000\n"
      "}\n"
      "device class: {\n"
      "  name: b\n"
      "  count: 16000000\n"
      "}\n");
  ASSERT_FALSE(errors.empty()) << Dump(errors);
}

}  // namespace
}  // namespace dreamsim::scenario
