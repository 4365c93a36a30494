// Lint-engine suite (DESIGN.md §17): tokenizer unit tests, suppression
// semantics, exit-code contract, and the fixture trees.
//
// Fixture protocol: every directory under tests/lint_fixtures/ is an
// independent mini-repo (its own src/ layout). A fixture file marks each
// line where a finding is expected with a comment containing
// `expect: <rule-id>`; the suite runs the full engine over the fixture
// root and requires the reported finding set to equal the marker set
// exactly — extra findings and missing findings both fail. A fixture with
// no markers is a pure negative and must lint clean.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "lint/engine.hpp"
#include "lint/source.hpp"

namespace {

namespace fs = std::filesystem;
using dreamsim::lint::Finding;
using dreamsim::lint::MakeSource;
using dreamsim::lint::RunLint;
using dreamsim::lint::RunLintCli;
using dreamsim::lint::RunLintOnTree;
using dreamsim::lint::RunResult;
using dreamsim::lint::Source;
using dreamsim::lint::TokKind;
using dreamsim::lint::Tokenize;
using dreamsim::lint::Tree;

const fs::path kFixtureDir = DREAMSIM_LINT_FIXTURE_DIR;

using Expected = std::tuple<std::string, std::size_t, std::string>;

/// Scans a fixture file for `expect: <rule-id>` markers.
std::vector<Expected> MarkersIn(const fs::path& abs, const std::string& rel) {
  std::vector<Expected> expected;
  std::ifstream in(abs);
  std::string line;
  std::size_t lineno = 0;
  const std::string tag = "expect: ";
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t pos = 0;
    while ((pos = line.find(tag, pos)) != std::string::npos) {
      std::size_t begin = pos + tag.size();
      std::size_t end = begin;
      while (end < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[end])) != 0 ||
              line[end] == '-')) {
        ++end;
      }
      expected.emplace_back(rel, lineno, line.substr(begin, end - begin));
      pos = end;
    }
  }
  return expected;
}

std::vector<Expected> Reported(const RunResult& result) {
  std::vector<Expected> actual;
  for (const Finding& f : result.findings) {
    actual.emplace_back(f.file, f.line, f.rule);
  }
  return actual;
}

std::string Render(const std::vector<Expected>& findings) {
  std::ostringstream os;
  for (const auto& [file, line, rule] : findings) {
    os << "  " << file << ":" << line << " [" << rule << "]\n";
  }
  return os.str();
}

/// Runs the CLI entry point with owned argv storage.
int Cli(std::vector<std::string> args) {
  args.insert(args.begin(), "dreamsim_lint");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return RunLintCli(static_cast<int>(argv.size()), argv.data());
}

// --- Fixture trees ---------------------------------------------------------

TEST(LintFixtures, EveryFixtureMatchesItsMarkersExactly) {
  ASSERT_TRUE(fs::exists(kFixtureDir)) << kFixtureDir;
  std::size_t fixtures = 0;
  for (const auto& entry : fs::directory_iterator(kFixtureDir)) {
    if (!entry.is_directory()) continue;
    ++fixtures;
    const fs::path root = entry.path();
    std::vector<Expected> expected;
    for (const auto& file : fs::recursive_directory_iterator(root)) {
      if (!file.is_regular_file()) continue;
      const std::string rel =
          fs::relative(file.path(), root).generic_string();
      const std::vector<Expected> markers = MarkersIn(file.path(), rel);
      expected.insert(expected.end(), markers.begin(), markers.end());
    }
    const RunResult result = RunLint(root, {"src", "tools"});
    std::vector<Expected> actual = Reported(result);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(expected, actual)
        << "fixture " << root.filename().string() << "\nexpected:\n"
        << Render(expected) << "actual:\n"
        << Render(actual);
  }
  EXPECT_GE(fixtures, 11u) << "fixture trees went missing";
}

// --- Tokenizer -------------------------------------------------------------

TEST(LintTokenizer, RawStringsAreBlankedFromTheCleanView) {
  const Source src = MakeSource(
      "src/core/x.cpp",
      "const char* k = R\"sql(select rand() from t)sql\";\nint live = 1;\n");
  EXPECT_EQ(src.clean.find("rand"), std::string::npos);
  EXPECT_NE(src.clean.find("live"), std::string::npos);
  EXPECT_EQ(src.clean.size(), src.raw.size());
}

TEST(LintTokenizer, DigitSeparatorsAreNotCharLiterals) {
  const Source src =
      MakeSource("src/core/x.cpp", "long n = 1'000'000; long m = rand();\n");
  // A naive char-literal scan would swallow `000` and the code after it.
  EXPECT_NE(src.clean.find("rand"), std::string::npos);
  EXPECT_NE(src.clean.find("1'000'000"), std::string::npos);
}

TEST(LintTokenizer, CommentMarkersInsideStringsStayStrings) {
  const std::vector<dreamsim::lint::Token> tokens =
      Tokenize("const char* u = \"http://x\"; int y = 2;");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokKind::kString);
}

TEST(LintTokenizer, BlockCommentsSpanLinesAndKeepLineNumbers) {
  const Source src = MakeSource("src/core/x.cpp",
                                "/* rand()\n   rand() */\nint z = rand();\n");
  const std::size_t hit = src.clean.find("rand");
  ASSERT_NE(hit, std::string::npos);
  EXPECT_EQ(src.LineOf(hit), 3u);
}

// --- Suppression semantics -------------------------------------------------

TEST(LintSuppressions, OnlyCommentsStartingWithTheTagRegister) {
  const Source annotated =
      MakeSource("src/core/x.cpp", "// lint: allow(nondeterminism)\n");
  ASSERT_EQ(annotated.suppressions.size(), 1u);
  EXPECT_EQ(annotated.suppressions[0].rule, "nondeterminism");
  EXPECT_FALSE(annotated.suppressions[0].file_wide);

  // Prose that merely mentions the tag mid-sentence is not an annotation
  // (and so can never be reported stale).
  const Source prose = MakeSource(
      "src/core/x.cpp", "// see the lint: allow(nondeterminism) syntax\n");
  EXPECT_TRUE(prose.suppressions.empty());
}

TEST(LintSuppressions, AllowFileSuppressesAnywhereInTheFile) {
  Tree tree;
  tree.sources.push_back(MakeSource(
      "src/core/x.cpp",
      "// lint: allow-file(nondeterminism)\nlong A() { return rand(); }\n"
      "long Pad() { return 0; }\nlong B() { return rand(); }\n"));
  const RunResult result = RunLintOnTree(tree);
  EXPECT_TRUE(result.findings.empty()) << Render(Reported(result));
}

TEST(LintSuppressions, UnusedAllowIsReportedStale) {
  Tree tree;
  tree.sources.push_back(MakeSource(
      "src/core/x.cpp",
      "// lint: allow(nondeterminism)\nlong A() { return 1; }\n"));
  const RunResult result = RunLintOnTree(tree);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "stale-suppression");
  EXPECT_EQ(result.findings[0].line, 1u);
  EXPECT_EQ(result.errors, 1u);
}

TEST(LintSuppressions, WrongRuleIdDoesNotSuppress) {
  Tree tree;
  tree.sources.push_back(MakeSource(
      "src/core/x.cpp",
      "// lint: allow(list-internals)\nlong A() { return rand(); }\n"));
  const RunResult result = RunLintOnTree(tree);
  // The real finding survives AND the mismatched allow is stale. Findings
  // sort by (file, line, rule): the allow sits on line 1, the call on 2.
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(result.findings[0].rule, "stale-suppression");
  EXPECT_EQ(result.findings[1].rule, "nondeterminism");
}

// --- Exit-code contract ----------------------------------------------------

TEST(LintCli, CleanTreeExitsZero) {
  testing::internal::CaptureStdout();
  const int code =
      Cli({"--root", (kFixtureDir / "clean").string(), "src"});
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("0 finding(s)"), std::string::npos) << out;
}

TEST(LintCli, FindingsExitOne) {
  testing::internal::CaptureStdout();
  const int code =
      Cli({"--root", (kFixtureDir / "nondeterminism").string(), "src"});
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(code, 1) << out;
  // Machine-readable format: file:line: [rule-id] message.
  EXPECT_NE(out.find("src/core/clock.cpp:4: [nondeterminism]"),
            std::string::npos)
      << out;
}

TEST(LintCli, InternalErrorsExitTwo) {
  // A root with no sources is a linter failure, not a clean tree.
  EXPECT_EQ(Cli({"--root", "/nonexistent/dreamsim"}), 2);
  // Unknown options are refused the same way.
  EXPECT_EQ(Cli({"--frobnicate"}), 2);
}

TEST(LintCli, FixHintsModePrintsHints) {
  testing::internal::CaptureStdout();
  const int code = Cli({"--root", (kFixtureDir / "nondeterminism").string(),
                        "--fix-hints", "src"});
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("hint: "), std::string::npos) << out;
}

TEST(LintCli, ListRulesNamesEveryRule) {
  testing::internal::CaptureStdout();
  const int code = Cli({"--list-rules"});
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(code, 0);
  for (const char* id :
       {"list-internals", "store-internals", "uncharged-index-query",
        "nondeterminism", "unordered-writer-iteration",
        "entry-cells-iteration", "metric-catalogue", "plane-discipline",
        "atomics-discipline", "stale-suppression"}) {
    EXPECT_NE(out.find(id), std::string::npos) << id;
  }
  // Retired rule ids must not linger in the registry.
  for (const char* id : {"unordered-merge", "merge-order"}) {
    EXPECT_EQ(out.find(id), std::string::npos) << id;
  }
}

}  // namespace
