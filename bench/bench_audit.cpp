// Structure-audit overhead smoke (DESIGN.md §12), emitted as
// machine-readable JSON so the perf trajectory can be tracked across
// commits.
//
// The auditor must be pay-for-what-you-use: with `--audit=off` the only
// residue on the simulator's hot path is one enum comparison per scheduler
// decision. That residue is not separable from runner noise directly, so
// the gate bounds it from above: an `--audit=end` run takes the identical
// hot path PLUS one full ground-truth reconstruction, and it must stay
// under 1% CPU of the off-mode baseline at the paper's 200-node scale.
// If end mode fits in 1%, the off-mode branch is far below noise.
//
// Step mode (a reconstruction after every decision) is reported as context
// and deliberately ungated — it is Debug-scale tooling, priced like a
// sanitizer, not a feature.
//
// Every mode must also leave the paper-facing metrics bit-identical: the
// auditor is read-only by construction and never charges the
// WorkloadMeter, and this bench is the executable proof.
//
// Output: BENCH_audit.json next to the executable (override with --out).
// --quick shrinks the workload for CI smoke runs. Exit status is non-zero
// if metrics diverge, the end-mode budget is breached, or an audit
// reports violations.
#include <iostream>
#include <string>

#include "bench_sim.hpp"
#include "core/simulator.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

namespace {

using namespace dreamsim;
using namespace dreamsim::bench;
using dreamsim::core::MetricsReport;
using dreamsim::core::SimulationConfig;
using dreamsim::core::Simulator;

SimulationConfig BaseConfig(int tasks) {
  SimulationConfig config;  // Table II: 200 nodes, 50 configs
  config.tasks.total_tasks = tasks;
  config.seed = 42;
  // A light fault mix keeps the fault-visibility checks on real work.
  config.faults.mtbf = 200'000;
  config.faults.mttr = 20'000;
  config.tasks.max_required_time = 3000;
  config.max_suspension_retries = 10;
  return config;
}

struct TimedRun {
  MetricsReport report;
  double seconds = 0.0;
  bool audit_clean = true;
  std::string first_violation;
};

TimedRun RunOnce(const SimulationConfig& config, analysis::AuditMode mode) {
  SimulationConfig copy = config;
  copy.audit = mode;
  TimedRun run;
  const double start = CpuSeconds();
  Simulator sim(std::move(copy));
  run.report = sim.Run();
  run.seconds = CpuSeconds() - start;
  // Explicit end-state audit on every run (including off mode): this bench
  // doubles as a large-scale clean-run check for the auditor itself.
  const analysis::AuditReport audit = sim.AuditStructures();
  run.audit_clean = audit.ok();
  if (!audit.ok()) run.first_violation = audit.Render(1);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Structure-audit overhead smoke; writes BENCH_audit.json");
  const BenchArgs args =
      ParseBenchArgs(cli, "CI smoke workload (fewer tasks, fewer reps)", argc,
                     argv, "BENCH_audit.json");

  const int tasks = args.quick ? 5000 : 20000;
  const int reps = args.quick ? 3 : 7;
  constexpr double kEndBudgetPct = 1.0;

  const SimulationConfig config = BaseConfig(tasks);

  // Off and end mode run as paired rounds (same noise discipline as
  // bench_obs); the reports compared below are the last round's.
  constexpr analysis::AuditMode kModes[] = {analysis::AuditMode::kOff,
                                            analysis::AuditMode::kEnd};
  TimedRun runs[2];
  bool audits_clean = true;
  std::string first_violation;
  const auto note_audit = [&](const TimedRun& run) {
    if (!run.audit_clean && audits_clean) first_violation = run.first_violation;
    audits_clean = audits_clean && run.audit_clean;
  };
  const RoundStats rounds = PairedRounds(2, reps, [&](std::size_t i) {
    runs[i] = RunOnce(config, kModes[i]);
    note_audit(runs[i]);
    return runs[i].seconds;
  });
  const double best_off = rounds.best_seconds[0];
  const double best_end = rounds.best_seconds[1];
  const double end_pct = rounds.MinPct(1);
  const double end_pct_median = rounds.MedianPct(1);

  // One step-mode run for context (ungated: Debug-scale tooling).
  const TimedRun step_run = RunOnce(config, analysis::AuditMode::kStep);
  note_audit(step_run);
  const double step_pct = OverheadPct(best_off, step_run.seconds);

  const bool identical = SameRun(runs[0].report, runs[1].report) &&
                         SameRun(runs[0].report, step_run.report);
  const bool within_budget = end_pct < kEndBudgetPct;

  std::cout << Format("structure-audit overhead @ {} nodes, {} tasks\n",
                      runs[0].report.total_nodes, tasks);
  std::cout << Format("  off: {}s (baseline; hot-path residue = one enum "
                      "compare per decision)\n",
                      Fixed(best_off, 3));
  std::cout << Format("  end: {}s ({}%, median {}%, budget {}%)\n",
                      Fixed(best_end, 3), Fixed(end_pct, 2),
                      Fixed(end_pct_median, 2), Fixed(kEndBudgetPct, 1));
  std::cout << Format("  step (context, ungated): {}s ({}%)\n",
                      Fixed(step_run.seconds, 3), Fixed(step_pct, 2));
  std::cout << Format("  paper metrics identical: {}\n",
                      identical ? "yes" : "NO");
  std::cout << Format("  audits clean: {}\n", audits_clean ? "yes" : "NO");
  if (!audits_clean) std::cout << "  " << first_violation << "\n";

  JsonWriter json;
  json.Field("bench", "audit")
      .Field("quick", args.quick)
      .Field("nodes", runs[0].report.total_nodes)
      .Field("tasks", tasks)
      .Field("off_seconds", best_off)
      .Field("end_seconds", best_end)
      .Field("end_overhead_pct", end_pct)
      .Field("end_budget_pct", kEndBudgetPct)
      .Field("step_seconds", step_run.seconds)
      .Field("step_overhead_pct", step_pct)
      .Field("metrics_identical", identical)
      .Field("audits_clean", audits_clean);
  if (!json.Write(args.out_path)) return 1;
  return identical && within_budget && audits_clean ? 0 : 1;
}
