// Million-node scale-out benchmark for the sequential indexed simulation
// kernel (DESIGN.md §9), emitted as machine-readable JSON so the perf
// trajectory can be tracked across commits.
//
// Two layers:
//   1. Oracle check: end-to-end Simulator wall-clock on a saturating
//      large-cluster workload, the literal scan kernel (scheduler and
//      drain index both off: the test oracle) vs the indexed kernel, plus
//      a cross-check that every modeled metric is bit-identical (SameRun)
//      — the modeled-effort contract at benchmark scale.
//   2. Trajectory: indexed runs at increasing scale toward the
//      million-node / ten-million-task point (--big runs the full point;
//      the default stops at 100k nodes so the bench stays minutes-scale).
//
// The scheduler-phase breakdown of every run is captured with the
// PhaseProfiler (host wall time; never the WorkloadMeter).
//
// Output: BENCH_scale.json next to the executable (override with --out).
// --quick shrinks the grid for CI smoke runs. Exit status 1 unless the
// indexed run's metrics are bit-identical to the scan run's.
#include <cstdint>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_sim.hpp"
#include "core/parallel_for.hpp"
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

/// A cluster saturated well past its concurrent capacity: arrivals every
/// tick, execution times longer than the arrival span, and a bounded
/// suspension queue. Decisions routinely fall through every scheduler
/// phase, which is exactly the regime where the O(N) phase walks dominate.
SimulationConfig ScaleConfig(int nodes, int tasks, bool indexed) {
  SimulationConfig config;
  config.nodes.count = nodes;
  config.tasks.total_tasks = tasks;
  config.tasks.min_interval = 1;
  config.tasks.max_interval = 2;
  config.tasks.min_required_time = 50000;
  config.tasks.max_required_time = 100000;
  config.suspension_capacity = 256;
  config.max_suspension_retries = 6;
  config.scheduler_index = indexed;
  config.drain_index = indexed;
  config.enable_monitoring = false;
  config.seed = 42;
  return config;
}

struct ScaleRun {
  double seconds = 0.0;
  MetricsReport report;
};

ScaleRun RunScale(const SimulationConfig& config) {
  Simulator sim(config);  // setup (node generation) outside the timer
  ScaleRun run;
  const auto start = Clock::now();
  run.report = sim.Run();
  run.seconds = SecondsSince(start);
  return run;
}

struct OracleCheck {
  double scan_seconds = 0.0;
  double indexed_seconds = 0.0;
  bool metrics_identical = true;
};

struct TrajectoryRow {
  int nodes = 0;
  int tasks = 0;
  double seconds = 0.0;
  std::uint64_t completed = 0;
  double tasks_per_second = 0.0;
};

struct PhaseRow {
  std::string run;
  std::string phase;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
};

struct ReplicationRow {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::uint64_t completed = 0;
};

struct ReplicationSummary {
  int count = 0;
  double wall_seconds = 0.0;
  std::uint64_t total_tasks = 0;
  double aggregate_tasks_per_second = 0.0;
  std::vector<ReplicationRow> rows;
};

/// `count` independent replications of the same scenario under disjoint
/// seeds, run CONCURRENTLY (up to one worker per hardware thread). The
/// aggregate throughput is total tasks over the whole wall-clock span — the
/// "many seeds at once" mode a parameter sweep actually runs in.
ReplicationSummary RunReplications(int count, int nodes, int tasks) {
  ReplicationSummary summary;
  summary.count = count;
  summary.rows.resize(static_cast<std::size_t>(count));
  // The PhaseProfiler is a process-wide singleton; concurrent kernels
  // would interleave their samples into one meaningless stream.
  obs::PhaseProfiler::SetEnabled(false);
  const auto start = Clock::now();
  core::ParallelFor(summary.rows.size(), 0, [&](std::size_t r) {
    SimulationConfig config = ScaleConfig(nodes, tasks, true);
    config.seed = 42 + r;
    const ScaleRun run = RunScale(config);
    summary.rows[r] = {config.seed, run.seconds, run.report.completed_tasks};
  });
  summary.wall_seconds = SecondsSince(start);
  summary.total_tasks =
      static_cast<std::uint64_t>(tasks) * static_cast<std::uint64_t>(count);
  summary.aggregate_tasks_per_second =
      summary.wall_seconds > 0.0
          ? static_cast<double>(summary.total_tasks) / summary.wall_seconds
          : 0.0;
  obs::PhaseProfiler::SetEnabled(true);
  return summary;
}

std::vector<PhaseRow> CapturePhases(const std::string& run) {
  std::vector<PhaseRow> rows;
  const obs::PhaseProfiler& prof = obs::PhaseProfiler::Instance();
  for (std::size_t i = 0; i < obs::kProfPhaseCount; ++i) {
    const auto phase = static_cast<obs::ProfPhase>(i);
    const auto stats = prof.stats(phase);
    if (stats.calls == 0) continue;
    rows.push_back(
        {run, std::string(obs::ToString(phase)), stats.calls, stats.total_ns});
  }
  return rows;
}

[[nodiscard]] bool WriteJson(const std::string& path, bool quick, bool big,
                             int sweep_nodes, int sweep_tasks,
                             const OracleCheck& oracle,
                             const std::vector<TrajectoryRow>& trajectory,
                             const std::vector<PhaseRow>& phases,
                             const ReplicationSummary& reps) {
  JsonWriter json;
  json.Field("bench", "scale")
      .Field("quick", quick)
      .Field("big", big)
      .Field("hardware_threads", std::thread::hardware_concurrency())
      .Field("sweep_nodes", sweep_nodes)
      .Field("sweep_tasks", sweep_tasks)
      .Field("oracle_check",
             JsonRow()
                 .Add("scan_seconds", JsonFixed(oracle.scan_seconds, 4))
                 .Add("indexed_seconds", JsonFixed(oracle.indexed_seconds, 4))
                 .Add("indexed_speedup",
                      JsonFixed(oracle.indexed_seconds > 0.0
                                    ? oracle.scan_seconds /
                                          oracle.indexed_seconds
                                    : 0.0,
                                1)));
  json.BeginArray("trajectory");
  for (const TrajectoryRow& r : trajectory) {
    json.Element(JsonRow()
                     .Add("nodes", r.nodes)
                     .Add("tasks", r.tasks)
                     .Add("indexed", true)
                     .Add("seconds", JsonFixed(r.seconds, 4))
                     .Add("completed_tasks", r.completed)
                     .Add("tasks_per_second", JsonFixed(r.tasks_per_second, 1)));
  }
  json.End().BeginArray("phases");
  for (const PhaseRow& r : phases) {
    json.Element(JsonRow()
                     .Add("run", r.run)
                     .Add("phase", r.phase)
                     .Add("calls", r.calls)
                     .Add("total_ns", r.total_ns));
  }
  json.End();
  if (reps.count > 0) {
    json.BeginObject("replications")
        .Field("count", reps.count)
        .Field("wall_seconds", JsonFixed(reps.wall_seconds, 4))
        .Field("total_tasks", reps.total_tasks)
        .Field("aggregate_tasks_per_second",
               JsonFixed(reps.aggregate_tasks_per_second, 1))
        .BeginArray("runs");
    for (const ReplicationRow& r : reps.rows) {
      json.Element(JsonRow()
                       .Add("seed", r.seed)
                       .Add("seconds", JsonFixed(r.seconds, 4))
                       .Add("completed_tasks", r.completed));
    }
    json.End().End();
  }
  json.Field("gate", JsonRow().Add("metrics_identical", oracle.metrics_identical));
  return json.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Scale-out benchmark; writes BENCH_scale.json");
  cli.AddBool("big", false,
              "run the 1M-node / 10M-task trajectory point (minutes-scale)");
  cli.AddInt("replications", 0,
             "also run R concurrent independent seeds (42..42+R-1) and "
             "report aggregate tasks/second");
  const BenchArgs args = ParseBenchArgs(
      cli, "CI smoke grid (20k-node oracle check, short trajectory)", argc,
      argv, "BENCH_scale.json");
  const bool quick = args.quick;
  const bool big = cli.GetBool("big");
  int replications = 0;
  try {
    replications = static_cast<int>(IntInRange(
        cli, "replications", 0, std::numeric_limits<int>::max()));
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }

  // --- Layer 1: scan oracle vs indexed kernel ----------------------------
  const int sweep_nodes = quick ? 20000 : 100000;
  const int sweep_tasks = quick ? 30000 : 150000;
  obs::PhaseProfiler::SetEnabled(true);

  std::cout << Format("oracle check: {} nodes, {} tasks\n", sweep_nodes,
                      sweep_tasks);
  obs::PhaseProfiler::Instance().Reset();
  const ScaleRun scan = RunScale(ScaleConfig(sweep_nodes, sweep_tasks, false));
  std::vector<PhaseRow> phases = CapturePhases("scan");
  obs::PhaseProfiler::Instance().Reset();
  const ScaleRun indexed =
      RunScale(ScaleConfig(sweep_nodes, sweep_tasks, true));
  const std::vector<PhaseRow> indexed_phases = CapturePhases("indexed");
  phases.insert(phases.end(), indexed_phases.begin(), indexed_phases.end());
  OracleCheck oracle;
  oracle.scan_seconds = scan.seconds;
  oracle.indexed_seconds = indexed.seconds;
  oracle.metrics_identical = SameRun(scan.report, indexed.report);
  std::cout << Format("  scan     {}s\n  indexed  {}s  metrics identical: {}\n",
                      Fixed(scan.seconds, 3), Fixed(indexed.seconds, 3),
                      oracle.metrics_identical ? "yes" : "NO");

  // --- Layer 2: indexed trajectory toward 1M nodes / 10M tasks -----------
  struct Point {
    int nodes;
    int tasks;
  };
  std::vector<Point> points;
  if (quick) {
    points = {{10000, 15000}};
  } else {
    points = {{10000, 30000}, {100000, 150000}};
  }
  if (big) points.push_back({1000000, 10000000});

  std::cout << "\ntrajectory (indexed kernel)\n";
  std::vector<TrajectoryRow> trajectory;
  for (const Point& p : points) {
    SimulationConfig config = ScaleConfig(p.nodes, p.tasks, true);
    if (p.tasks >= 1000000) {
      // The million-node point needs completions to free capacity, or the
      // bounded queue discards the bulk of the workload.
      config.tasks.min_required_time = 2000;
      config.tasks.max_required_time = 20000;
    }
    // Each trajectory point gets its own phase rows: the indexed breakdown
    // is the one that actually scales toward 1M nodes, and comparing it
    // against the scan rows above is the point of the file.
    obs::PhaseProfiler::Instance().Reset();
    const ScaleRun run = RunScale(config);
    const std::vector<PhaseRow> point_phases =
        CapturePhases(Format("indexed-{}n", p.nodes));
    phases.insert(phases.end(), point_phases.begin(), point_phases.end());
    TrajectoryRow row;
    row.nodes = p.nodes;
    row.tasks = p.tasks;
    row.seconds = run.seconds;
    row.completed = run.report.completed_tasks;
    row.tasks_per_second =
        run.seconds > 0.0 ? static_cast<double>(p.tasks) / run.seconds : 0.0;
    std::cout << Format("  {} nodes, {} tasks: {}s ({} tasks/s)\n", p.nodes,
                        p.tasks, Fixed(run.seconds, 3),
                        Fixed(row.tasks_per_second, 0));
    trajectory.push_back(row);
  }

  // --- Optional layer 3: concurrent independent replications -------------
  ReplicationSummary rep_summary;
  if (replications > 0) {
    const int rep_nodes = quick ? 5000 : 20000;
    const int rep_tasks = quick ? 8000 : 30000;
    std::cout << Format("\nreplications: {} concurrent seeds, {} nodes, "
                        "{} tasks each\n",
                        replications, rep_nodes, rep_tasks);
    rep_summary = RunReplications(replications, rep_nodes, rep_tasks);
    std::cout << Format("  {}s wall, {} tasks total ({} tasks/s aggregate)\n",
                        Fixed(rep_summary.wall_seconds, 3),
                        rep_summary.total_tasks,
                        Fixed(rep_summary.aggregate_tasks_per_second, 0));
  }

  if (!WriteJson(args.out_path, quick, big, sweep_nodes, sweep_tasks, oracle,
                 trajectory, phases, rep_summary)) {
    return 1;
  }
  if (!oracle.metrics_identical) {
    std::cerr << "gate FAILED: indexed metrics differ from the scan oracle\n";
    return 1;
  }
  return 0;
}
