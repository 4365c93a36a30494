// Live-metrics overhead smoke (DESIGN.md §16), emitted as machine-readable
// JSON so the perf trajectory can be tracked across commits.
//
// The metrics registry must be pay-for-what-you-use: with the registry
// disabled a hot-path hook is one relaxed atomic load plus a branch (gated
// at < 5 ns per hook in optimized builds), and each enablement step — the
// registry recording alone, and registry + interval JSONL snapshots to
// disk — must cost under 5% CPU on its own at the paper's 200-node scale
// while leaving every paper-facing metric bit-identical to the unobserved
// run (the §9 pure-observer contract).
//
// Output: BENCH_metrics.json next to the executable (override with --out).
// --quick shrinks the workload for CI smoke runs. Exit status is non-zero
// if metrics diverge or an overhead budget is breached.
#include <cstdio>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>

#include "bench_sim.hpp"
#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
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
  config.enable_monitoring = true;
  config.seed = 42;
  return config;
}

enum class MetricsLevel {
  kOff,        // registry disabled: the zero-overhead baseline
  kRegistry,   // registry enabled, no exposition (hooks record only)
  kSnapshots,  // registry + interval JSONL snapshots to disk
};

/// One timed run at the given level. Snapshot files go to `scratch_prefix`
/// and are deleted afterwards (only the timing matters).
MetricsReport RunOnce(const SimulationConfig& config, MetricsLevel level,
                      const std::string& scratch_prefix, double& seconds) {
  const std::string snap_path = scratch_prefix + ".metrics.jsonl";
  SimulationConfig copy = config;
  obs::MetricsRegistry::SetEnabled(level != MetricsLevel::kOff);
  obs::MetricsRegistry::Instance().Reset();
  const double start = CpuSeconds();
  Simulator sim(std::move(copy));
  std::unique_ptr<obs::MetricsSnapshotWriter> writer;
  if (level == MetricsLevel::kSnapshots) {
    // The CLI's default snapshot cadence: one snapshot per ~75 tasks of
    // horizon on a Table II run, so the gate prices what users get.
    writer = std::make_unique<obs::MetricsSnapshotWriter>(
        snap_path, obs::MetricsFormat::kJson, Tick{10000});
    sim.SetEventLogger(
        [&writer](const core::SimEvent& e) { writer->OnEvent(e); });
  }
  const MetricsReport report = sim.Run();
  if (writer) writer->Finish(sim.kernel().now());
  seconds = CpuSeconds() - start;
  obs::MetricsRegistry::SetEnabled(false);
  obs::MetricsRegistry::Instance().Reset();
  if (writer) std::remove(snap_path.c_str());
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Live-metrics overhead smoke; writes BENCH_metrics.json");
  const BenchArgs args =
      ParseBenchArgs(cli, "CI smoke workload (fewer tasks, fewer reps)", argc,
                     argv, "BENCH_metrics.json");
  const std::string scratch_prefix = args.out_path + ".scratch";

  // Quick mode keeps full-run round count: the gate is min-across-rounds,
  // and short rounds need MORE samples, not fewer, to shed runner noise.
  const int tasks = args.quick ? 5000 : 20000;
  const int reps = 7;
  constexpr double kFeatureBudgetPct = 5.0;
  constexpr double kDisabledHookBudgetNs = 5.0;
  // The hook budget is an absolute latency, so it only means anything in an
  // optimized build; the relative gates hold anywhere.
#ifdef NDEBUG
  constexpr bool kGateHook = true;
#else
  constexpr bool kGateHook = false;
#endif

  const SimulationConfig config = BaseConfig(tasks);

  constexpr MetricsLevel kLevels[] = {MetricsLevel::kOff,
                                      MetricsLevel::kRegistry,
                                      MetricsLevel::kSnapshots};
  constexpr std::size_t kLevelCount = std::size(kLevels);
  MetricsReport report[kLevelCount];
  const RoundStats rounds = PairedRounds(kLevelCount, reps, [&](std::size_t i) {
    double seconds = 0.0;
    report[i] = RunOnce(config, kLevels[i], scratch_prefix, seconds);
    return seconds;
  });

  // A disabled hook is one relaxed atomic load plus a predictable branch,
  // no clock read, no allocation.
  obs::MetricsRegistry::SetEnabled(false);
  const double hook_ns =
      DisabledHookNs([] { obs::MetricInc(obs::MetricId::kEvqPushed); });

  bool identical = true;
  for (std::size_t i = 1; i < kLevelCount; ++i) {
    identical = identical && SameRun(report[0], report[i]);
  }
  const std::vector<double>& best = rounds.best_seconds;
  const double registry_pct = rounds.MinPct(1);
  const double snapshots_pct = rounds.MinPct(2);
  const bool within_budget = registry_pct < kFeatureBudgetPct &&
                             snapshots_pct < kFeatureBudgetPct &&
                             (!kGateHook || hook_ns < kDisabledHookBudgetNs);

  std::cout << Format("live-metrics overhead @ {} nodes, {} tasks\n",
                      report[0].total_nodes, tasks);
  std::cout << Format("  off: {}s (baseline, per-feature budget {}%)\n",
                      Fixed(best[0], 3), Fixed(kFeatureBudgetPct, 1));
  std::cout << Format("  registry enabled: {}s ({}%, median {}%)\n",
                      Fixed(best[1], 3), Fixed(registry_pct, 2),
                      Fixed(rounds.MedianPct(1), 2));
  std::cout << Format("  registry + jsonl snapshots: {}s ({}%, median {}%)\n",
                      Fixed(best[2], 3), Fixed(snapshots_pct, 2),
                      Fixed(rounds.MedianPct(2), 2));
  std::cout << Format("  disabled hook: {} ns (budget {} ns{})\n",
                      Fixed(hook_ns, 2), Fixed(kDisabledHookBudgetNs, 1),
                      kGateHook ? "" : "; unoptimized build, ungated");
  std::cout << Format("  paper metrics identical: {}\n",
                      identical ? "yes" : "NO");

  JsonWriter json;
  json.Field("bench", "metrics")
      .Field("quick", args.quick)
      .Field("nodes", report[0].total_nodes)
      .Field("tasks", tasks)
      .Field("off_seconds", best[0])
      .Field("registry_seconds", best[1])
      .Field("registry_overhead_pct", registry_pct)
      .Field("snapshots_seconds", best[2])
      .Field("snapshots_overhead_pct", snapshots_pct)
      .Field("feature_budget_pct", kFeatureBudgetPct)
      .Field("disabled_hook_ns", hook_ns)
      .Field("disabled_hook_budget_ns", kDisabledHookBudgetNs)
      .Field("metrics_identical", identical);
  if (!json.Write(args.out_path)) return 1;
  return identical && within_budget ? 0 : 1;
}
