// Observability overhead smoke (DESIGN.md §11), emitted as machine-readable
// JSON so the perf trajectory can be tracked across commits.
//
// The run-trace & telemetry layer must be pay-for-what-you-use: with every
// observability switch off the simulator keeps its original paths (the only
// residue is one relaxed atomic load per profiler hook), and each switch —
// JSONL event tracing to disk, interval time-series sampling — must cost
// under 5% CPU on its own at the paper's 200-node scale while leaving
// every paper-facing metric bit-identical to the unobserved run.
//
// Output: BENCH_obs.json next to the executable (override with --out).
// --quick shrinks the workload for CI smoke runs. Exit status is non-zero
// if metrics diverge or an overhead budget is breached.
#include <cstdio>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>

#include "bench_sim.hpp"
#include "core/simulator.hpp"
#include "obs/profiler.hpp"
#include "obs/run_tracer.hpp"
#include "obs/timeline.hpp"
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
  // Keep the tool-default monitoring on: it is what every CLI run pays, and
  // the state observer shares the monitor's per-event SystemSnapshot, so
  // this measures the observability layer's own cost (serialization +
  // sampling) rather than re-billing it for the O(1) snapshot the monitor
  // already takes.
  config.enable_monitoring = true;
  config.seed = 42;
  return config;
}

enum class ObsLevel {
  kOff,       // every switch off: the zero-overhead baseline
  kTracer,    // JSONL run tracer to disk (--run-trace)
  kSampler,   // time-series sampler to disk (--timeline-out)
  kFull,      // tracer + sampler together
  kProfiler,  // phase profiler only (two clock reads per timed scope)
};

/// One timed run at the given observability level. Trace artifacts go to
/// `scratch_prefix` and are deleted afterwards (only the timing matters).
MetricsReport RunOnce(const SimulationConfig& config, ObsLevel level,
                      const std::string& scratch_prefix, double& seconds) {
  const std::string trace_path = scratch_prefix + ".trace.jsonl";
  const std::string timeline_path = scratch_prefix + ".timeline.csv";
  const bool trace = level == ObsLevel::kTracer || level == ObsLevel::kFull;
  const bool sample = level == ObsLevel::kSampler || level == ObsLevel::kFull;
  SimulationConfig copy = config;
  obs::PhaseProfiler::SetEnabled(level == ObsLevel::kProfiler);
  obs::PhaseProfiler::Instance().Reset();
  const double start = CpuSeconds();
  Simulator sim(std::move(copy));
  std::unique_ptr<obs::RunTracer> tracer;
  std::unique_ptr<obs::TimeSeriesSampler> sampler;
  if (trace) {
    obs::RunTracer::RunInfo info;
    info.label = "bench_obs";
    info.mode = ToString(sim.config().mode);
    info.seed = sim.config().seed;
    info.nodes = sim.store().node_count();
    tracer = std::make_unique<obs::RunTracer>(trace_path,
                                              obs::TraceFormat::kJsonl, info);
    sim.SetEventLogger(
        [&tracer](const core::SimEvent& e) { tracer->OnEvent(e); });
  }
  if (sample) {
    sampler = std::make_unique<obs::TimeSeriesSampler>(timeline_path, 100);
    sim.SetStateObserver(
        [&sampler](const core::StateSample& s) { sampler->Observe(s); });
  }
  const MetricsReport report = sim.Run();
  if (tracer) tracer->Finish(sim.kernel().now());
  if (sampler) sampler->Finish(sim.kernel().now());
  seconds = CpuSeconds() - start;
  obs::PhaseProfiler::SetEnabled(false);
  if (trace) std::remove(trace_path.c_str());
  if (sample) std::remove(timeline_path.c_str());
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Observability overhead smoke; writes BENCH_obs.json");
  const BenchArgs args =
      ParseBenchArgs(cli, "CI smoke workload (fewer tasks, fewer reps)", argc,
                     argv, "BENCH_obs.json");
  const std::string scratch_prefix = args.out_path + ".scratch";

  const int tasks = args.quick ? 5000 : 20000;
  const int reps = args.quick ? 3 : 7;
  // Gates. Each observability switch is independent and each must stay
  // under 5% CPU on its own; a disabled profiler hook must stay within a
  // few ns (one relaxed atomic load + branch — the "~0% disabled" claim).
  // The all-on run and the profiler-enabled run are reported for context:
  // the former is roughly the sum of its parts, and precise per-phase
  // timing costs two steady_clock reads per scope by design — clock-read
  // latency is a property of the host, not of this code.
  constexpr double kFeatureBudgetPct = 5.0;
  constexpr double kDisabledHookBudgetNs = 5.0;
  // The hook budget is an absolute latency, so it only means anything in
  // an optimized build (Debug trees run the hook interpreter-slow without
  // saying anything about the product); the relative gates hold anywhere.
#ifdef NDEBUG
  constexpr bool kGateHook = true;
#else
  constexpr bool kGateHook = false;
#endif

  const SimulationConfig config = BaseConfig(tasks);

  constexpr ObsLevel kLevels[] = {ObsLevel::kOff, ObsLevel::kTracer,
                                  ObsLevel::kSampler, ObsLevel::kFull,
                                  ObsLevel::kProfiler};
  constexpr std::size_t kLevelCount = std::size(kLevels);
  MetricsReport report[kLevelCount];
  const RoundStats rounds = PairedRounds(kLevelCount, reps, [&](std::size_t i) {
    double seconds = 0.0;
    report[i] = RunOnce(config, kLevels[i], scratch_prefix, seconds);
    return seconds;
  });

  // The "~0% disabled" claim, measured directly: a disabled profiler hook
  // is one relaxed atomic load and a branch, no clock read.
  obs::PhaseProfiler::SetEnabled(false);
  const double hook_ns = DisabledHookNs(
      [] { const obs::ScopedPhaseTimer timer(obs::ProfPhase::kStoreQuery); });

  bool identical = true;
  for (std::size_t i = 1; i < kLevelCount; ++i) {
    identical = identical && SameRun(report[0], report[i]);
  }
  const std::vector<double>& best = rounds.best_seconds;
  const double tracer_pct = rounds.MinPct(1);
  const double sampler_pct = rounds.MinPct(2);
  const double full_pct = rounds.MinPct(3);
  const double prof_pct = rounds.MinPct(4);
  const bool within_budget = tracer_pct < kFeatureBudgetPct &&
                             sampler_pct < kFeatureBudgetPct &&
                             (!kGateHook || hook_ns < kDisabledHookBudgetNs);

  std::cout << Format("observability overhead @ {} nodes, {} tasks\n",
                      report[0].total_nodes, tasks);
  std::cout << Format("  off: {}s (baseline, per-feature budget {}%)\n",
                      Fixed(best[0], 3), Fixed(kFeatureBudgetPct, 1));
  std::cout << Format("  run tracer (jsonl): {}s ({}%, median {}%)\n",
                      Fixed(best[1], 3), Fixed(tracer_pct, 2),
                      Fixed(rounds.MedianPct(1), 2));
  std::cout << Format("  timeline sampler: {}s ({}%, median {}%)\n",
                      Fixed(best[2], 3), Fixed(sampler_pct, 2),
                      Fixed(rounds.MedianPct(2), 2));
  std::cout << Format("  disabled hook: {} ns (budget {} ns{})\n",
                      Fixed(hook_ns, 2), Fixed(kDisabledHookBudgetNs, 1),
                      kGateHook ? "" : "; unoptimized build, ungated");
  std::cout << Format("  tracer+sampler (context, ungated): {}s ({}%)\n",
                      Fixed(best[3], 3), Fixed(full_pct, 2));
  std::cout << Format("  profiler enabled (context, ungated): {}s ({}%)\n",
                      Fixed(best[4], 3), Fixed(prof_pct, 2));
  std::cout << Format("  paper metrics identical: {}\n",
                      identical ? "yes" : "NO");

  JsonWriter json;
  json.Field("bench", "obs")
      .Field("quick", args.quick)
      .Field("nodes", report[0].total_nodes)
      .Field("tasks", tasks)
      .Field("off_seconds", best[0])
      .Field("tracer_seconds", best[1])
      .Field("tracer_overhead_pct", tracer_pct)
      .Field("sampler_seconds", best[2])
      .Field("sampler_overhead_pct", sampler_pct)
      .Field("feature_budget_pct", kFeatureBudgetPct)
      .Field("disabled_hook_ns", hook_ns)
      .Field("disabled_hook_budget_ns", kDisabledHookBudgetNs)
      .Field("full_seconds", best[3])
      .Field("full_overhead_pct", full_pct)
      .Field("profiler_seconds", best[4])
      .Field("profiler_overhead_pct", prof_pct)
      .Field("metrics_identical", identical);
  if (!json.Write(args.out_path)) return 1;
  return identical && within_budget ? 0 : 1;
}
