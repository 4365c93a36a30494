// Lint-engine throughput gate, emitted as machine-readable JSON so the
// static-analysis cost stays visible across commits.
//
// The engine runs on every CI push and on developer loops, so it must be
// effectively free: the gate requires a full-repo scan (src, tools,
// tests, bench — the same tree CI lints) to finish in under 2 seconds of
// wall clock, and the tree itself to be clean (zero findings — a dirty
// tree is a real finding, not a perf artifact, and fails here too so the
// snapshot numbers always describe a clean baseline).
//
// The finding-count snapshot (files scanned, rules run) rides along so a
// rule-set change that silently stops scanning half the tree shows up as
// a files/rules drop in the JSON diff, not as a mysteriously faster run.
//
// Output: BENCH_lint.json next to the executable (override with --out).
// Exit status is non-zero on findings, a budget breach, or engine error.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lint/engine.hpp"

namespace {

using dreamsim::bench::Clock;
using dreamsim::bench::Fixed;
using dreamsim::bench::JsonFixed;
using dreamsim::bench::JsonWriter;
using dreamsim::bench::SecondsSince;
using dreamsim::lint::BuiltinRules;
using dreamsim::lint::RunLint;
using dreamsim::lint::RunResult;

constexpr double kBudgetSeconds = 2.0;

}  // namespace

int main(int argc, char** argv) {
  std::string root = DREAMSIM_REPO_ROOT;
  std::string out_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_flag = argv[++i];
    } else if (arg == "--quick") {
      // Accepted for CI-harness uniformity; the full scan IS the quick
      // mode (the budget gates it at 2 s).
    } else {
      std::cerr << "usage: bench_lint [--root <repo>] [--out <json>] "
                   "[--quick]\n";
      return 2;
    }
  }
  const std::string out_path =
      dreamsim::bench::OutputPath(out_flag, argv[0], "BENCH_lint.json");

  const std::vector<std::string> subdirs = {"src", "tools", "tests", "bench"};
  RunResult result;
  const auto begin = Clock::now();
  try {
    result = RunLint(root, subdirs);
  } catch (const std::exception& e) {
    std::cerr << "bench_lint: engine error: " << e.what() << "\n";
    return 2;
  }
  const double seconds = SecondsSince(begin);

  const std::size_t rules = BuiltinRules().size();
  const bool clean = result.errors == 0 && result.warnings == 0;
  const bool in_budget = seconds < kBudgetSeconds;

  std::cout << "bench_lint: " << result.files << " files, " << rules
            << " rules, " << result.findings.size() << " finding(s) in "
            << Fixed(seconds, 3) << "s (budget " << Fixed(kBudgetSeconds, 1)
            << "s)\n";
  JsonWriter json;
  json.Field("bench", "lint")
      .Field("root", root)
      .Field("files", result.files)
      .Field("rules", rules)
      .Field("findings", result.findings.size())
      .Field("errors", result.errors)
      .Field("warnings", result.warnings)
      .Field("wall_seconds", JsonFixed(seconds, 4))
      .Field("budget_seconds", JsonFixed(kBudgetSeconds, 1))
      .BeginObject("gate")
      .Field("clean", clean)
      .Field("in_budget", in_budget)
      .End();
  if (!json.Write(out_path)) return 1;
  if (!clean) {
    std::cerr << "bench_lint: tree is not clean; run dreamsim_lint for the "
                 "finding list\n";
    return 1;
  }
  if (!in_budget) {
    std::cerr << "bench_lint: full-repo scan blew the " << Fixed(kBudgetSeconds, 1)
              << "s budget\n";
    return 1;
  }
  return 0;
}
