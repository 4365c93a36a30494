// Fault-bookkeeping overhead smoke (DESIGN.md §10), emitted as
// machine-readable JSON so the perf trajectory can be tracked across
// commits.
//
// Fault injection must be pay-for-what-you-use: with the fault model
// disabled the simulator keeps its original zero-overhead paths, and with
// the model armed but never firing (astronomical MTBF) the extra
// bookkeeping — completion-handle tracking, per-node process events,
// terminal-task counting — must cost under 5% wall-clock at the paper's
// 200-node scale while leaving every paper-facing metric bit-identical to
// the disabled run. A third, actively failing run is reported for context.
//
// Output: BENCH_faults.json next to the executable (override with --out).
// --quick shrinks the workload for CI smoke runs. Exit status is non-zero
// if metrics diverge or the no-fire overhead breaches the 5% budget.
#include <algorithm>
#include <iostream>

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
  config.enable_monitoring = false;
  config.seed = 42;
  return config;
}

MetricsReport RunOnce(const SimulationConfig& config, double& seconds) {
  SimulationConfig copy = config;
  const auto start = Clock::now();
  Simulator sim(std::move(copy));
  MetricsReport report = sim.Run();
  seconds = SecondsSince(start);
  return report;
}

/// Min-of-N wall clock (N runs), so a background scheduling hiccup cannot
/// fake an overhead breach; returns the report of the last run.
MetricsReport RunTimed(const SimulationConfig& config, int reps,
                       double& best_seconds) {
  best_seconds = 1e300;
  MetricsReport report;
  for (int i = 0; i < reps; ++i) {
    double seconds = 0.0;
    report = RunOnce(config, seconds);
    best_seconds = std::min(best_seconds, seconds);
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Fault-bookkeeping overhead smoke; writes BENCH_faults.json");
  const BenchArgs args =
      ParseBenchArgs(cli, "CI smoke workload (fewer tasks, fewer reps)", argc,
                     argv, "BENCH_faults.json");

  const int tasks = args.quick ? 5000 : 20000;
  const int reps = args.quick ? 3 : 5;
  constexpr double kOverheadBudgetPct = 5.0;

  // Baseline: fault model disabled — the original zero-overhead paths.
  const SimulationConfig baseline_config = BaseConfig(tasks);
  double baseline_seconds = 0.0;
  const MetricsReport baseline =
      RunTimed(baseline_config, reps, baseline_seconds);

  // Armed but never firing: per-node MTBF far past any reachable tick, so
  // all the bookkeeping runs and no failure ever lands.
  SimulationConfig armed_config = BaseConfig(tasks);
  armed_config.faults.mtbf = 1e12;
  armed_config.faults.mttr = 1e6;
  double armed_seconds = 0.0;
  const MetricsReport armed = RunTimed(armed_config, reps, armed_seconds);

  const bool identical = SameRun(baseline, armed);
  const double overhead_pct = OverheadPct(baseline_seconds, armed_seconds);
  const bool within_budget = overhead_pct < kOverheadBudgetPct;

  // Context: an actively failing-and-repairing run at the same scale.
  SimulationConfig active_config = BaseConfig(tasks);
  active_config.tasks.max_required_time = 5000;  // keep kills recoverable
  active_config.max_suspension_retries = 10;
  active_config.faults.mtbf = 200'000;
  active_config.faults.mttr = 20'000;
  double active_seconds = 0.0;
  const MetricsReport active = RunOnce(active_config, active_seconds);

  std::cout << Format("fault bookkeeping @ {} nodes, {} tasks\n",
                      baseline.total_nodes, tasks);
  std::cout << Format("  disabled: {}s   armed-no-fire: {}s   overhead: {}%"
                      " (budget {}%)\n",
                      Fixed(baseline_seconds, 3), Fixed(armed_seconds, 3),
                      Fixed(overhead_pct, 2), Fixed(kOverheadBudgetPct, 1));
  std::cout << Format("  paper metrics identical: {}\n",
                      identical ? "yes" : "NO");
  std::cout << Format(
      "  active faults: {}s, {} failures, {} repairs, {} kills, {} recovered,"
      " {} lost\n",
      Fixed(active_seconds, 3), active.failures_injected,
      active.repairs_completed, active.tasks_killed, active.tasks_recovered,
      active.tasks_lost_to_failure);

  JsonWriter json;
  json.Field("bench", "faults")
      .Field("quick", args.quick)
      .Field("nodes", baseline.total_nodes)
      .Field("tasks", tasks)
      .Field("baseline_seconds", baseline_seconds)
      .Field("armed_seconds", armed_seconds)
      .Field("overhead_pct", overhead_pct)
      .Field("overhead_budget_pct", kOverheadBudgetPct)
      .Field("metrics_identical", identical)
      .BeginObject("active")
      .Field("seconds", active_seconds)
      .Field("failures_injected", active.failures_injected)
      .Field("repairs_completed", active.repairs_completed)
      .Field("tasks_killed", active.tasks_killed)
      .Field("tasks_recovered", active.tasks_recovered)
      .Field("tasks_lost_to_failure", active.tasks_lost_to_failure)
      .Field("total_downtime", active.total_downtime)
      .End();
  if (!json.Write(args.out_path)) return 1;
  return identical && within_budget ? 0 : 1;
}
