// Perf ladder: end-to-end Simulator::Run time of the indexed kernel on a
// node ladder (DESIGN.md §9, §13), emitted as machine-readable JSON so the
// per-task cost can be tracked across commits.
//
// Rungs of 200, 2k, 20k and 100k nodes (plus 1M with --big), tasks =
// 1.5 x nodes, run in ascending order. Each rung runs two configs:
//   defaults   SimulationConfig{} at seed 42 (the CLI defaults: monitoring
//              on, on-schedule waste accounting);
//   saturated  arrivals every one or two ticks, run times past the
//              arrival span and a bounded suspension queue, so decisions
//              fall through every Fig. 5 phase.
// Each indexed run is timed on a fresh Simulator with setup outside the
// timer and the PhaseProfiler off, at least kMinRepeats times (more while
// the time budget lasts) in --quick and full mode alike; the fastest of
// the repeats counts, so host noise reaches a large rung's time through a
// minimum of several runs, not one or two. The setup (the Simulator's
// construction: node generation plus the per-configuration EntryList
// reservations ResourceStore::InitNodes makes from the node-count hint,
// DESIGN.md §14) is timed on its own, fastest of the same repeats; the
// reservations keep list growth out of the timed run's first saturation
// wave. One extra profiled run per (rung, config) fills the phase rows.
// Up to 20k nodes (and at 100k without --quick) one literal-scan run
// (scheduler and drain index both off: the test oracle) per config checks
// every modeled metric against the indexed run (SameRun).
//
// A policy axis runs between the 2k and the 20k rungs: every PolicyChoice
// on the saturated config at 2k nodes (and 20k without --quick), timed
// the same way and each checked against its scan oracle. It runs before
// the large rungs because a run measured after them reads up to about
// 1.8x slower than the same run before them (the 2k dreamsim row against
// the identical 2k rung). It joins the metrics-identity gate but not the
// scaling gate: random-fit ranks by one RNG draw per node and keeps its
// scan, and round-robin and least-loaded have no index for their class B
// search yet.
//
// Each config's us/task ratio of 100k over 2k nodes comes from
// kRatioPairs interleaved pairs after the ladder (2k then 100k, then the
// other way round): back-to-back repeats of one rung share a host phase,
// so a per-rung minimum lets whole phases into the ratio, while the two
// sides of a pair see the same one. A pair's 100k side is one run and its
// 2k side the median of kSmallRunsPerSide runs, so a burst during one
// ~3 ms run cannot set the pair. The median per-pair ratio is reported
// and gated for both configs.
//
// Output: BENCH_ladder.json next to the executable (override with --out).
// Exit status 1 unless every oracle point (rungs and policies) is
// metrics-identical and each config's us/task at 100k nodes is at most 3x
// its value at 2k.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_sim.hpp"
#include "core/simulator.hpp"
#include "obs/profiler.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

namespace {

using namespace dreamsim;
using namespace dreamsim::bench;
using dreamsim::core::MetricsReport;
using dreamsim::core::SimulationConfig;
using dreamsim::core::Simulator;

constexpr int kMinRepeats = 5;
constexpr int kMaxRepeats = 50;
constexpr int kRatioPairs = 7;
constexpr int kSmallRunsPerSide = 5;
constexpr int kGateSmallNodes = 2000;
constexpr int kGateLargeNodes = 100000;
constexpr double kMaxPerTaskRatio = 3.0;

int LadderTasks(int nodes) { return nodes / 2 * 3; }

SimulationConfig DefaultsConfig(int nodes, int tasks) {
  SimulationConfig config;
  config.nodes.count = nodes;
  config.tasks.total_tasks = tasks;
  config.seed = 42;
  return config;
}

/// A cluster saturated well past its concurrent capacity: arrivals every
/// one or two ticks, execution times longer than the arrival span, and a
/// bounded suspension queue. Decisions routinely fall through every
/// scheduler phase, which is exactly the regime where the O(N) phase walks
/// dominate.
SimulationConfig SaturatedConfig(int nodes, int tasks) {
  SimulationConfig config;
  config.nodes.count = nodes;
  config.tasks.total_tasks = tasks;
  config.tasks.min_interval = 1;
  config.tasks.max_interval = 2;
  config.tasks.min_required_time = 50000;
  config.tasks.max_required_time = 100000;
  config.suspension_capacity = 256;
  config.max_suspension_retries = 6;
  config.enable_monitoring = false;
  config.seed = 42;
  return config;
}

struct NamedConfig {
  const char* name;
  SimulationConfig (*make)(int nodes, int tasks);
};

constexpr NamedConfig kDefaults = {"defaults", DefaultsConfig};
constexpr NamedConfig kSaturated = {"saturated", SaturatedConfig};
constexpr NamedConfig kConfigs[] = {kDefaults, kSaturated};

struct TimedRun {
  double setup_seconds = 0.0;
  double seconds = 0.0;
  MetricsReport report;
};

TimedRun RunOnce(const SimulationConfig& config) {
  TimedRun run;
  const auto setup_start = Clock::now();
  Simulator sim(config);  // setup (node generation) outside the run timer
  run.setup_seconds = SecondsSince(setup_start);
  const auto start = Clock::now();
  run.report = sim.Run();
  run.seconds = SecondsSince(start);
  return run;
}

struct PhaseRow {
  std::string phase;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
};

/// One more run of `config` with the PhaseProfiler on, so the timed
/// repeats carry no profiler cost.
std::vector<PhaseRow> ProfiledPhases(const SimulationConfig& config) {
  obs::PhaseProfiler& prof = obs::PhaseProfiler::Instance();
  prof.Reset();
  obs::PhaseProfiler::SetEnabled(true);
  (void)RunOnce(config);
  obs::PhaseProfiler::SetEnabled(false);
  std::vector<PhaseRow> rows;
  for (std::size_t i = 0; i < obs::kProfPhaseCount; ++i) {
    const auto phase = static_cast<obs::ProfPhase>(i);
    const auto stats = prof.stats(phase);
    if (stats.calls == 0) continue;
    rows.push_back(
        {std::string(obs::ToString(phase)), stats.calls, stats.total_ns});
  }
  return rows;
}

double RssHighWaterMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Row {
  int nodes = 0;
  int tasks = 0;
  std::string config;
  std::string policy;
  double seconds = 0.0;        // fastest repeat
  double setup_seconds = 0.0;  // fastest construction
  int repeats = 0;
  std::uint64_t completed = 0;
  bool oracle = false;  // scan_seconds and metrics_identical are set
  double scan_seconds = 0.0;
  bool metrics_identical = true;
  double rss_mb = 0.0;
  std::vector<PhaseRow> phases;

  [[nodiscard]] double UsPerTask() const {
    return seconds * 1e6 / static_cast<double>(tasks);
  }
};

/// Repeats the indexed run until `budget` seconds accumulate (at least
/// kMinRepeats, at most kMaxRepeats times), then the scan oracle when
/// asked, then, for a rung, the profiled run.
Row RunRow(int nodes, const NamedConfig& named, core::PolicyChoice policy,
           double budget, bool oracle, bool profile) {
  Row row;
  row.nodes = nodes;
  row.tasks = LadderTasks(nodes);
  row.config = named.name;
  row.policy = core::ToString(policy);
  SimulationConfig config = named.make(nodes, row.tasks);
  config.policy = policy;
  double spent = 0.0;
  MetricsReport indexed;
  while (row.repeats < kMaxRepeats &&
         (row.repeats < kMinRepeats || spent < budget)) {
    TimedRun run = RunOnce(config);
    spent += run.seconds;
    if (row.repeats++ == 0 || run.seconds < row.seconds) {
      row.seconds = run.seconds;
    }
    if (row.repeats == 1 || run.setup_seconds < row.setup_seconds) {
      row.setup_seconds = run.setup_seconds;
    }
    indexed = std::move(run.report);
  }
  row.completed = indexed.completed_tasks;
  if (oracle) {
    SimulationConfig scan_config = config;
    scan_config.scheduler_index = false;
    scan_config.drain_index = false;
    const TimedRun scan = RunOnce(scan_config);
    row.oracle = true;
    row.scan_seconds = scan.seconds;
    row.metrics_identical = SameRun(scan.report, indexed);
  }
  if (profile) row.phases = ProfiledPhases(config);
  row.rss_mb = RssHighWaterMb();
  return row;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// us/task of `named` at kGateLargeNodes over that at kGateSmallNodes,
/// one ratio per interleaved pair, the order alternating from pair to
/// pair: one large run against the median of kSmallRunsPerSide small ones.
std::vector<double> PairRatios(const NamedConfig& named) {
  const int small_tasks = LadderTasks(kGateSmallNodes);
  const int large_tasks = LadderTasks(kGateLargeNodes);
  const SimulationConfig small = named.make(kGateSmallNodes, small_tasks);
  const SimulationConfig large = named.make(kGateLargeNodes, large_tasks);
  const auto small_side = [&small] {
    std::vector<double> seconds;
    for (int run = 0; run < kSmallRunsPerSide; ++run) {
      seconds.push_back(RunOnce(small).seconds);
    }
    return Median(std::move(seconds));
  };
  std::vector<double> ratios;
  for (int pair = 0; pair < kRatioPairs; ++pair) {
    double small_s = 0.0;
    double large_s = 0.0;
    if (pair % 2 == 0) {
      small_s = small_side();
      large_s = RunOnce(large).seconds;
    } else {
      large_s = RunOnce(large).seconds;
      small_s = small_side();
    }
    ratios.push_back((large_s / static_cast<double>(large_tasks)) /
                     (small_s / static_cast<double>(small_tasks)));
  }
  return ratios;
}

/// `row` (a rung's or a policy row's key fields) with the timings and the
/// oracle check appended.
JsonRow WithTimings(JsonRow row, const Row& r) {
  row.Add("seconds", JsonFixed(r.seconds, 6))
      .Add("setup_s", JsonFixed(r.setup_seconds, 6))
      .Add("us_per_task", JsonFixed(r.UsPerTask(), 3))
      .Add("tasks_per_second",
           JsonFixed(static_cast<double>(r.tasks) / r.seconds, 1))
      .Add("completed_tasks", r.completed)
      .Add("repeats", r.repeats);
  if (r.oracle) {
    row.Add("scan_seconds", JsonFixed(r.scan_seconds, 6))
        .Add("metrics_identical", r.metrics_identical);
  }
  return row;
}

[[nodiscard]] bool WriteJson(const std::string& path, bool quick, bool big,
                             const std::vector<Row>& rows,
                             const std::vector<Row>& policies,
                             const std::vector<double>& defaults_pairs,
                             const std::vector<double>& saturated_pairs,
                             bool identical, bool defaults_scaling,
                             bool saturated_scaling) {
  JsonWriter json;
  json.Field("bench", "ladder")
      .Field("quick", quick)
      .Field("big", big)
      .Field("hardware_threads", std::thread::hardware_concurrency());
  json.BeginArray("rungs");
  for (const Row& r : rows) {
    json.Element(WithTimings(JsonRow()
                                 .Add("nodes", r.nodes)
                                 .Add("tasks", r.tasks)
                                 .Add("config", r.config),
                             r)
                     .Add("rss_high_water_mb", JsonFixed(r.rss_mb, 1)));
  }
  json.End().BeginArray("policies");
  for (const Row& r : policies) {
    json.Element(WithTimings(JsonRow()
                                 .Add("nodes", r.nodes)
                                 .Add("tasks", r.tasks)
                                 .Add("policy", r.policy),
                             r));
  }
  json.End().BeginArray("phases");
  for (const Row& r : rows) {
    for (const PhaseRow& p : r.phases) {
      json.Element(JsonRow()
                       .Add("nodes", r.nodes)
                       .Add("config", r.config)
                       .Add("phase", p.phase)
                       .Add("calls", p.calls)
                       .Add("total_ns", p.total_ns));
    }
  }
  json.End().BeginArray("defaults_pair_ratios");
  for (const double ratio : defaults_pairs) {
    json.Element(JsonFixed(ratio, 2));
  }
  json.End().BeginArray("saturated_pair_ratios");
  for (const double ratio : saturated_pairs) {
    json.Element(JsonFixed(ratio, 2));
  }
  json.End()
      .Field("per_task_ratio",
             JsonRow()
                 .Add("defaults", JsonFixed(Median(defaults_pairs), 2))
                 .Add("saturated", JsonFixed(Median(saturated_pairs), 2))
                 .Add("bound", kMaxPerTaskRatio))
      .Field("gate", JsonRow()
                         .Add("metrics_identical", identical)
                         .Add("defaults_per_task_ratio", defaults_scaling)
                         .Add("saturated_per_task_ratio", saturated_scaling));
  return json.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Perf ladder (200 to 100k nodes); writes BENCH_ladder.json");
  cli.AddBool("big", false, "add the 1M-node rung");
  const BenchArgs args = ParseBenchArgs(
      cli, "CI smoke: 0.1 s of repeats (5 at least), no 100k-node scan oracle", argc, argv,
      "BENCH_ladder.json");
  const bool big = cli.GetBool("big");
  const double budget = args.quick ? 0.1 : 0.5;
  std::vector<int> rungs = {200, 2000, 20000, 100000};
  if (big) rungs.push_back(1000000);

  const auto print = [](const std::string& label, const Row& row) {
    std::cout << Format(
        "{:>8} {:>12} {:>10} {:>9} {:>9} {:>8} {:>10} {:>10}\n", row.nodes,
        label, Fixed(row.seconds, 4), Fixed(row.UsPerTask(), 3),
        Fixed(row.setup_seconds, 4), row.repeats,
        row.oracle ? Fixed(row.scan_seconds, 3) : "-",
        row.oracle ? (row.metrics_identical ? "yes" : "NO") : "-");
  };
  std::cout << Format("{:>8} {:>12} {:>10} {:>9} {:>9} {:>8} {:>10} {:>10}\n",
                      "nodes", "config", "seconds", "us/task", "setup s",
                      "repeats", "scan s", "identical");
  std::vector<Row> rows;
  // The rungs of [lo, hi) nodes, in ascending order.
  const auto run_rungs = [&](int lo, int hi) {
    for (const int nodes : rungs) {
      if (nodes < lo || nodes >= hi) continue;
      const bool oracle = nodes <= 20000 || (nodes == 100000 && !args.quick);
      for (const NamedConfig& named : kConfigs) {
        rows.push_back(RunRow(nodes, named, core::PolicyChoice::kDreamSim,
                              budget, oracle, /*profile=*/true));
        print(rows.back().config, rows.back());
      }
    }
  };
  constexpr int kFirstLargeRung = 20000;
  run_rungs(0, kFirstLargeRung);

  std::cout << "\nsaturated, by policy\n";
  std::vector<Row> policies;
  for (const int nodes : args.quick ? std::vector<int>{kGateSmallNodes}
                                    : std::vector<int>{kGateSmallNodes,
                                                       20000}) {
    for (const auto policy :
         {core::PolicyChoice::kDreamSim, core::PolicyChoice::kFirstFit,
          core::PolicyChoice::kBestFit, core::PolicyChoice::kWorstFit,
          core::PolicyChoice::kRandomFit, core::PolicyChoice::kRoundRobin,
          core::PolicyChoice::kLeastLoaded}) {
      policies.push_back(RunRow(nodes, kSaturated, policy, budget,
                                /*oracle=*/true, /*profile=*/false));
      print(policies.back().policy, policies.back());
    }
  }

  std::cout << "\n";
  run_rungs(kFirstLargeRung, std::numeric_limits<int>::max());

  const auto same = [](const Row& r) { return r.metrics_identical; };
  const bool identical = std::all_of(rows.begin(), rows.end(), same) &&
                         std::all_of(policies.begin(), policies.end(), same);
  const std::vector<double> defaults_pairs = PairRatios(kDefaults);
  const std::vector<double> saturated_pairs = PairRatios(kSaturated);
  const double defaults_ratio = Median(defaults_pairs);
  const double saturated_ratio = Median(saturated_pairs);
  const bool defaults_scaling = defaults_ratio <= kMaxPerTaskRatio;
  const bool saturated_scaling = saturated_ratio <= kMaxPerTaskRatio;
  std::cout << Format(
      "\nus/task at {} over {} nodes, median of {} interleaved pairs "
      "(gate <= {}x): defaults {}x, saturated {}x\n",
      kGateLargeNodes, kGateSmallNodes, kRatioPairs, kMaxPerTaskRatio,
      Fixed(defaults_ratio, 2), Fixed(saturated_ratio, 2));

  if (!WriteJson(args.out_path, args.quick, big, rows, policies,
                 defaults_pairs, saturated_pairs, identical, defaults_scaling,
                 saturated_scaling)) {
    return 1;
  }
  if (!identical) {
    std::cerr << "gate FAILED: indexed metrics differ from the scan oracle\n";
    return 1;
  }
  bool scaling = true;
  for (const auto& [name, ok] : {std::pair{"defaults", defaults_scaling},
                                 std::pair{"saturated", saturated_scaling}}) {
    if (ok) continue;
    std::cerr << "gate FAILED: " << name << " us/task grows more than "
              << kMaxPerTaskRatio << "x from 2k to 100k nodes\n";
    scaling = false;
  }
  return scaling ? 0 : 1;
}
