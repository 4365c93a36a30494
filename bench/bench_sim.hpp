// Helpers shared by the gated benches that drive the dreamsim libraries:
// the --quick/--out flag parse, the one metrics-identity predicate behind
// every "metrics_identical" gate, the paired-round overhead loop, the
// disabled-hook loop and the scan-vs-indexed end-to-end sweep.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace dreamsim::bench {

struct BenchArgs {
  bool quick = false;
  std::string out_path;
};

/// Adds the flags every gated bench shares (--quick, --out) to `cli`, which
/// may already hold the binary's own flags, and parses argv. --help prints
/// the usage and exits 0; a bad flag prints the error and exits 1. Logging
/// drops to errors only: saturated scenarios discard tasks by design.
inline BenchArgs ParseBenchArgs(CliParser& cli, std::string quick_help,
                                int argc, char** argv,
                                std::string_view json_file) {
  cli.AddBool("quick", false, std::move(quick_help));
  cli.AddString("out", "", "output JSON path (default: next to the binary)");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    std::exit(1);
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    std::exit(0);
  }
  Log::SetLevel(LogLevel::kError);
  return {cli.GetBool("quick"),
          OutputPath(cli.GetString("out"), argv[0], json_file)};
}

/// The Table I contract the gated benches prove: observers, audits, faults
/// and indexes leave every modeled metric bit-identical. CsvReportRow
/// covers the report rows; it prints doubles to six digits, so the Table I
/// averages are compared exactly as well, next to the step decomposition
/// and the placement counts that the CSV leaves out.
inline bool SameRun(const core::MetricsReport& a, const core::MetricsReport& b) {
  return core::CsvReportRow(a) == core::CsvReportRow(b) &&
         a.avg_wasted_area_per_task == b.avg_wasted_area_per_task &&
         a.avg_task_running_time == b.avg_task_running_time &&
         a.avg_reconfig_count_per_node == b.avg_reconfig_count_per_node &&
         a.avg_config_time_per_task == b.avg_config_time_per_task &&
         a.avg_waiting_time_per_task == b.avg_waiting_time_per_task &&
         a.avg_scheduling_steps_per_task == b.avg_scheduling_steps_per_task &&
         a.scheduling_steps_total == b.scheduling_steps_total &&
         a.housekeeping_steps_total == b.housekeeping_steps_total &&
         a.total_reconfigurations == b.total_reconfigurations &&
         a.total_configuration_time == b.total_configuration_time &&
         a.avg_suspension_retries == b.avg_suspension_retries &&
         std::equal(std::begin(a.placements_by_kind),
                    std::end(a.placements_by_kind),
                    std::begin(b.placements_by_kind)) &&
         a.placements_per_config == b.placements_per_config;
}

/// Timings of PairedRounds, per level.
struct RoundStats {
  std::vector<double> best_seconds;      // fastest round
  std::vector<std::vector<double>> pct;  // per round, vs that round's level 0

  [[nodiscard]] double MinPct(std::size_t level) const {
    return *std::min_element(pct[level].begin(), pct[level].end());
  }
  [[nodiscard]] double MedianPct(std::size_t level) const {
    std::vector<double> v = pct[level];
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  }
};

/// Noise discipline for the overhead gates on shared runners: each round
/// runs every level back-to-back (level 0 is the baseline), and a level's
/// overhead is computed against the SAME round's baseline, so adjacent
/// runs share machine conditions and slow patches mostly cancel out of the
/// ratio. Gates use the MINIMUM per-round overhead: noise is additive, so
/// the cleanest round is the closest estimate of the true cost, while a
/// genuine regression inflates every round, the minimum included. The
/// median is reported as context. `run_level(i)` runs level i once and
/// returns its CPU seconds.
template <typename RunLevel>
RoundStats PairedRounds(std::size_t levels, int rounds,
                        const RunLevel& run_level) {
  RoundStats stats{std::vector<double>(levels, 1e300),
                   std::vector<std::vector<double>>(levels)};
  std::vector<double> seconds(levels);
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < levels; ++i) {
      seconds[i] = run_level(i);
      stats.best_seconds[i] = std::min(stats.best_seconds[i], seconds[i]);
    }
    for (std::size_t i = 0; i < levels; ++i) {
      stats.pct[i].push_back(OverheadPct(seconds[0], seconds[i]));
    }
  }
  return stats;
}

/// Nanoseconds per call of a disabled observability hook, amortized over a
/// tight loop of CPU time. The caller disables the hook first; `hook` is a
/// template parameter so it inlines as it does on the hot path.
template <typename Hook>
double DisabledHookNs(const Hook& hook) {
  constexpr std::uint64_t kIters = 20'000'000;
  const double start = CpuSeconds();
  for (std::uint64_t i = 0; i < kIters; ++i) hook();
  return (CpuSeconds() - start) / static_cast<double>(kIters) * 1e9;
}

// --- Scan-vs-indexed end-to-end sweep ----------------------------------------

/// One end-to-end comparison point.
struct Scenario {
  std::string name;
  sched::ReconfigMode mode;
  int nodes;
  std::vector<int> task_counts;
  Tick max_interval;               // 0 = Table II default [1, 50]
  std::size_t queue_capacity = 0;  // 0 = unbounded
};

struct SweepResult {
  Scenario scenario;
  double scan_seconds = 0.0;
  double indexed_seconds = 0.0;
  bool metrics_identical = false;
  [[nodiscard]] double Speedup() const {
    return indexed_seconds > 0.0 ? scan_seconds / indexed_seconds : 0.0;
  }
};

/// Wall-clock of one single-threaded RunSweep with the index that `index`
/// names off, then on; every other index keeps its default (on), so the
/// toggled one is the only difference. Seed 42.
inline SweepResult RunEndToEnd(const Scenario& scenario,
                               bool core::SimulationConfig::*index) {
  SweepResult result;
  result.scenario = scenario;

  core::SweepParams params;
  params.base.nodes.count = scenario.nodes;
  params.base.seed = 42;
  params.base.enable_monitoring = false;
  if (scenario.max_interval > 0) {
    params.base.tasks.max_interval = scenario.max_interval;
  }
  params.base.suspension_capacity = scenario.queue_capacity;
  params.task_counts = scenario.task_counts;
  params.modes = {scenario.mode};
  params.threads = 1;  // honest wall-clock

  params.base.*index = false;
  auto start = Clock::now();
  const std::vector<core::MetricsReport> scan = core::RunSweep(params);
  result.scan_seconds = SecondsSince(start);

  params.base.*index = true;
  start = Clock::now();
  const std::vector<core::MetricsReport> indexed = core::RunSweep(params);
  result.indexed_seconds = SecondsSince(start);

  result.metrics_identical = scan.size() == indexed.size();
  for (std::size_t i = 0; result.metrics_identical && i < scan.size(); ++i) {
    result.metrics_identical = SameRun(scan[i], indexed[i]);
  }
  return result;
}

/// Runs RunEndToEnd on every scenario, printing one line each.
inline std::vector<SweepResult> RunSweeps(
    const std::vector<Scenario>& scenarios,
    bool core::SimulationConfig::*index) {
  std::cout << "\nend-to-end RunSweep\n";
  std::vector<SweepResult> sweeps;
  for (const Scenario& scenario : scenarios) {
    SweepResult sweep = RunEndToEnd(scenario, index);
    std::cout << Format(
        "  {:<18}{:<8}{:>7} nodes  scan: {}s  indexed: {}s  speedup: {}x  "
        "metrics identical: {}\n",
        scenario.name, sched::ToString(scenario.mode), scenario.nodes,
        Fixed(sweep.scan_seconds, 3), Fixed(sweep.indexed_seconds, 3),
        Fixed(sweep.Speedup(), 2), sweep.metrics_identical ? "yes" : "NO");
    sweeps.push_back(std::move(sweep));
  }
  return sweeps;
}

/// The `sweeps` array.
inline void WriteSweeps(JsonWriter& json,
                        const std::vector<SweepResult>& sweeps) {
  json.BeginArray("sweeps");
  for (const SweepResult& s : sweeps) {
    json.Element(JsonRow()
                     .Add("scenario", s.scenario.name)
                     .Add("mode", sched::ToString(s.scenario.mode))
                     .Add("nodes", s.scenario.nodes)
                     .Add("task_counts", JsonList(s.scenario.task_counts))
                     .Add("scan_seconds", s.scan_seconds)
                     .Add("indexed_seconds", s.indexed_seconds)
                     .Add("speedup", s.Speedup())
                     .Add("metrics_identical", s.metrics_identical));
  }
  json.End();
}

inline bool AllIdentical(const std::vector<SweepResult>& sweeps) {
  return std::all_of(sweeps.begin(), sweeps.end(), [](const SweepResult& s) {
    return s.metrics_identical;
  });
}

}  // namespace dreamsim::bench
