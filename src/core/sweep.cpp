#include "core/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel_for.hpp"
#include "util/fmt.hpp"

namespace dreamsim::core {

std::vector<int> PaperTaskCounts(double scale) {
  if (!(0.0 < scale && scale <= 1.0)) {  // NaN fails too
    // Named after the flag that both front ends (dreamsim --sweep,
    // reproduce) read the scale from.
    throw std::invalid_argument(
        Format("--scale must be in (0, 1], got {}", scale));
  }
  std::vector<int> counts;
  const auto scaled = [scale](int n) {
    return std::max(1000, static_cast<int>(std::lround(n * scale)));
  };
  counts.push_back(scaled(1000));
  for (int n = 10000; n <= 100000; n += 10000) counts.push_back(scaled(n));
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

std::vector<MetricsReport> RunSweep(const SweepParams& params) {
  struct Point {
    sched::ReconfigMode mode;
    int tasks;
  };
  std::vector<Point> points;
  points.reserve(params.modes.size() * params.task_counts.size());
  for (const sched::ReconfigMode mode : params.modes) {
    for (const int tasks : params.task_counts) {
      points.push_back(Point{mode, tasks});
    }
  }

  std::vector<MetricsReport> reports(points.size());
  ParallelFor(points.size(), params.threads, [&](std::size_t i) {
    SimulationConfig config = params.base;
    config.mode = points[i].mode;
    config.tasks.total_tasks = points[i].tasks;
    if (config.label.empty()) {
      config.label = Format("{}-n{}-t{}", sched::ToString(points[i].mode),
                            config.nodes.count, points[i].tasks);
      if (config.faults.enabled()) config.label += "-faults";
    }
    Simulator simulator(std::move(config));
    reports[i] = simulator.Run();
  });
  return reports;
}

std::vector<ReplicationReport> RunReplicatedSweep(const SweepParams& params) {
  if (params.replications == 0) {
    throw std::invalid_argument("need at least one replication per point");
  }
  struct Job {
    sched::ReconfigMode mode;
    int tasks;
    std::size_t replication;
  };
  std::vector<Job> jobs;
  const std::size_t points = params.modes.size() * params.task_counts.size();
  jobs.reserve(points * params.replications);
  for (const sched::ReconfigMode mode : params.modes) {
    for (const int tasks : params.task_counts) {
      for (std::size_t r = 0; r < params.replications; ++r) {
        jobs.push_back(Job{mode, tasks, r});
      }
    }
  }

  // Flat job list: point-major, replication-minor, so jobs for one point
  // are contiguous and the reduce below is a simple slice.
  std::vector<MetricsReport> runs(jobs.size());
  ParallelFor(jobs.size(), params.threads, [&](std::size_t i) {
    SimulationConfig config = params.base;
    config.mode = jobs[i].mode;
    config.tasks.total_tasks = jobs[i].tasks;
    config.seed = DeriveSeed(params.base.seed, jobs[i].replication);
    if (config.label.empty()) {
      config.label = Format("{}-n{}-t{}#{}", sched::ToString(jobs[i].mode),
                            config.nodes.count, jobs[i].tasks,
                            jobs[i].replication);
    }
    Simulator simulator(std::move(config));
    runs[i] = simulator.Run();
  });

  std::vector<ReplicationReport> reports;
  reports.reserve(points);
  for (std::size_t p = 0; p < points; ++p) {
    const auto first =
        runs.begin() + static_cast<std::ptrdiff_t>(p * params.replications);
    reports.push_back(SummarizeReplications(std::vector<MetricsReport>(
        first, first + static_cast<std::ptrdiff_t>(params.replications))));
  }
  return reports;
}

}  // namespace dreamsim::core
