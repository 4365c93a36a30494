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
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <iterator>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "obs/profiler.hpp"
#include "obs/run_tracer.hpp"
#include "obs/timeline.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace {

using namespace dreamsim;
using dreamsim::core::MetricsReport;
using dreamsim::core::SimulationConfig;
using dreamsim::core::Simulator;

/// Process CPU time. The bench gates a single-threaded workload at a few
/// percent, so it measures the CPU the process actually burned — wall
/// clock on a shared CI runner includes scheduler steal, which dwarfs the
/// signal being gated.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Fixed-point rendering (util::Format pads but has no precision specs).
std::string Fixed(double value, int precision) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

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

/// Direct measurement of the "~0% disabled" claim: a disabled profiler
/// hook is one relaxed atomic load and a branch — no clock read. Returns
/// nanoseconds per hook, amortized over a tight loop.
double DisabledHookNs() {
  constexpr std::uint64_t kIters = 20'000'000;
  obs::PhaseProfiler::SetEnabled(false);
  const double start = CpuSeconds();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kStoreQuery);
  }
  const double seconds = CpuSeconds() - start;
  return seconds / static_cast<double>(kIters) * 1e9;
}

bool PaperMetricsIdentical(const MetricsReport& a, const MetricsReport& b) {
  return a.completed_tasks == b.completed_tasks &&
         a.discarded_tasks == b.discarded_tasks &&
         a.suspended_ever == b.suspended_ever &&
         a.avg_wasted_area_per_task == b.avg_wasted_area_per_task &&
         a.avg_task_running_time == b.avg_task_running_time &&
         a.avg_reconfig_count_per_node == b.avg_reconfig_count_per_node &&
         a.avg_config_time_per_task == b.avg_config_time_per_task &&
         a.avg_waiting_time_per_task == b.avg_waiting_time_per_task &&
         a.avg_scheduling_steps_per_task == b.avg_scheduling_steps_per_task &&
         a.total_scheduler_workload == b.total_scheduler_workload &&
         a.total_simulation_time == b.total_simulation_time &&
         a.total_reconfigurations == b.total_reconfigurations;
}

/// Directory of argv[0] (with trailing separator), so the JSON lands next
/// to the executable regardless of the caller's working directory.
std::string ExecutableDir(const char* argv0) {
  const std::string path(argv0 != nullptr ? argv0 : "");
  const std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? std::string{} : path.substr(0, slash + 1);
}

double OverheadPct(double base, double with) {
  return base > 0.0 ? (with - base) / base * 100.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Observability overhead smoke; writes BENCH_obs.json");
  cli.AddBool("quick", false, "CI smoke workload (fewer tasks, fewer reps)");
  cli.AddString("out", "", "output JSON path (default: next to the binary)");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }
  const bool quick = cli.GetBool("quick");
  Log::SetLevel(LogLevel::kError);
  std::string out_path = cli.GetString("out");
  if (out_path.empty()) {
    out_path = ExecutableDir(argv[0]) + "BENCH_obs.json";
  }
  const std::string scratch_prefix = out_path + ".scratch";

  const int tasks = quick ? 5000 : 20000;
  const int reps = quick ? 3 : 7;
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

  // Noise discipline for shared runners: each round runs every level
  // back-to-back and the overhead of a level is computed against the SAME
  // round's baseline — adjacent runs share machine conditions, so slow
  // patches mostly cancel out of the ratio. Gating uses the MINIMUM of the
  // per-round overheads: noise is additive, so the cleanest round is the
  // closest estimate of the true cost, and a genuine code regression
  // inflates every round — including the minimum — and still trips the
  // budget. The median is reported alongside as context.
  constexpr ObsLevel kLevels[] = {ObsLevel::kOff, ObsLevel::kTracer,
                                  ObsLevel::kSampler, ObsLevel::kFull,
                                  ObsLevel::kProfiler};
  constexpr std::size_t kLevelCount = std::size(kLevels);
  double best[kLevelCount];
  std::vector<std::vector<double>> pct(kLevelCount);
  MetricsReport report[kLevelCount];
  std::fill(best, best + kLevelCount, 1e300);
  for (int rep = 0; rep < reps; ++rep) {
    double seconds[kLevelCount];
    for (std::size_t i = 0; i < kLevelCount; ++i) {
      report[i] = RunOnce(config, kLevels[i], scratch_prefix, seconds[i]);
      best[i] = std::min(best[i], seconds[i]);
    }
    for (std::size_t i = 0; i < kLevelCount; ++i) {
      pct[i].push_back(OverheadPct(seconds[0], seconds[i]));
    }
  }
  const auto min_pct = [&pct](std::size_t level) {
    return *std::min_element(pct[level].begin(), pct[level].end());
  };
  const auto median_pct = [&pct](std::size_t level) {
    std::vector<double> v = pct[level];
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };

  const double hook_ns = DisabledHookNs();

  bool identical = true;
  for (std::size_t i = 1; i < kLevelCount; ++i) {
    identical = identical && PaperMetricsIdentical(report[0], report[i]);
  }
  const double off_seconds = best[0];
  const double tracer_pct = min_pct(1);
  const double sampler_pct = min_pct(2);
  const double full_pct = min_pct(3);
  const double prof_pct = min_pct(4);
  const bool within_budget = tracer_pct < kFeatureBudgetPct &&
                             sampler_pct < kFeatureBudgetPct &&
                             (!kGateHook || hook_ns < kDisabledHookBudgetNs);

  std::cout << Format("observability overhead @ {} nodes, {} tasks\n",
                      report[0].total_nodes, tasks);
  std::cout << Format("  off: {}s (baseline, per-feature budget {}%)\n",
                      Fixed(off_seconds, 3), Fixed(kFeatureBudgetPct, 1));
  std::cout << Format("  run tracer (jsonl): {}s ({}%, median {}%)\n",
                      Fixed(best[1], 3), Fixed(tracer_pct, 2),
                      Fixed(median_pct(1), 2));
  std::cout << Format("  timeline sampler: {}s ({}%, median {}%)\n",
                      Fixed(best[2], 3), Fixed(sampler_pct, 2),
                      Fixed(median_pct(2), 2));
  std::cout << Format("  disabled hook: {} ns (budget {} ns{})\n",
                      Fixed(hook_ns, 2), Fixed(kDisabledHookBudgetNs, 1),
                      kGateHook ? "" : "; unoptimized build, ungated");
  std::cout << Format("  tracer+sampler (context, ungated): {}s ({}%)\n",
                      Fixed(best[3], 3), Fixed(full_pct, 2));
  std::cout << Format("  profiler enabled (context, ungated): {}s ({}%)\n",
                      Fixed(best[4], 3), Fixed(prof_pct, 2));
  std::cout << Format("  paper metrics identical: {}\n",
                      identical ? "yes" : "NO");

  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"bench\": \"obs\",\n";
  out << Format("  \"quick\": {},\n", quick ? "true" : "false");
  out << Format("  \"nodes\": {},\n", report[0].total_nodes);
  out << Format("  \"tasks\": {},\n", tasks);
  out << Format("  \"off_seconds\": {},\n", off_seconds);
  out << Format("  \"tracer_seconds\": {},\n", best[1]);
  out << Format("  \"tracer_overhead_pct\": {},\n", tracer_pct);
  out << Format("  \"sampler_seconds\": {},\n", best[2]);
  out << Format("  \"sampler_overhead_pct\": {},\n", sampler_pct);
  out << Format("  \"feature_budget_pct\": {},\n", kFeatureBudgetPct);
  out << Format("  \"disabled_hook_ns\": {},\n", hook_ns);
  out << Format("  \"disabled_hook_budget_ns\": {},\n", kDisabledHookBudgetNs);
  out << Format("  \"full_seconds\": {},\n", best[3]);
  out << Format("  \"full_overhead_pct\": {},\n", full_pct);
  out << Format("  \"profiler_seconds\": {},\n", best[4]);
  out << Format("  \"profiler_overhead_pct\": {},\n", prof_pct);
  out << Format("  \"metrics_identical\": {}\n",
                identical ? "true" : "false");
  out << "}\n";
  if (!out.good()) {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";
  return identical && within_budget ? 0 : 1;
}
