#include "core/replication.hpp"

#include <cmath>
#include <stdexcept>

#include "core/parallel_for.hpp"
#include "core/simulator.hpp"
#include "util/fmt.hpp"

namespace dreamsim::core {
namespace {

struct MetricExtractor {
  const char* name;
  double (*get)(const MetricsReport&);
};

constexpr MetricExtractor kExtractors[] = {
    {"avg_wasted_area_per_task",
     [](const MetricsReport& r) { return r.avg_wasted_area_per_task; }},
    {"avg_task_running_time",
     [](const MetricsReport& r) { return r.avg_task_running_time; }},
    {"avg_reconfig_count_per_node",
     [](const MetricsReport& r) { return r.avg_reconfig_count_per_node; }},
    {"avg_config_time_per_task",
     [](const MetricsReport& r) { return r.avg_config_time_per_task; }},
    {"avg_waiting_time_per_task",
     [](const MetricsReport& r) { return r.avg_waiting_time_per_task; }},
    {"avg_scheduling_steps_per_task",
     [](const MetricsReport& r) { return r.avg_scheduling_steps_per_task; }},
    {"total_scheduler_workload",
     [](const MetricsReport& r) {
       return static_cast<double>(r.total_scheduler_workload);
     }},
    {"discarded_tasks",
     [](const MetricsReport& r) {
       return static_cast<double>(r.discarded_tasks);
     }},
    {"total_simulation_time",
     [](const MetricsReport& r) {
       return static_cast<double>(r.total_simulation_time);
     }},
};

}  // namespace

double MetricSummary::ci95_half_width() const {
  if (stats.count() < 2) return 0.0;
  return 1.96 * stats.stddev() /
         std::sqrt(static_cast<double>(stats.count()));
}

const MetricSummary& ReplicationReport::Metric(std::string_view name) const {
  for (const MetricSummary& m : metrics) {
    if (m.name == name) return m;
  }
  throw std::out_of_range(Format("no metric summary named '{}'", name));
}

ReplicationReport SummarizeReplications(std::vector<MetricsReport> runs) {
  if (runs.empty()) {
    throw std::invalid_argument("need at least one replication");
  }
  ReplicationReport report;
  report.replications = runs.size();
  report.runs = std::move(runs);
  for (const MetricExtractor& extractor : kExtractors) {
    MetricSummary summary;
    summary.name = extractor.name;
    for (const MetricsReport& run : report.runs) {
      summary.stats.Add(extractor.get(run));
    }
    report.metrics.push_back(std::move(summary));
  }
  return report;
}

ReplicationReport RunReplications(const SimulationConfig& base,
                                  std::size_t replications,
                                  unsigned threads) {
  if (replications == 0) {
    throw std::invalid_argument("need at least one replication");
  }
  std::vector<MetricsReport> runs(replications);

  ParallelFor(replications, threads, [&](std::size_t i) {
    SimulationConfig config = base;
    config.seed = DeriveSeed(base.seed, i);
    config.label = Format("{}#{}", base.label, i);
    Simulator sim(std::move(config));
    runs[i] = sim.Run();
  });
  return SummarizeReplications(std::move(runs));
}

std::string RenderReplicationTable(const ReplicationReport& report) {
  std::string out = Format("{} replications\n", report.replications);
  out += Format("{:<34}{:>14}{:>12}{:>12}{:>14}{:>14}\n", "metric", "mean",
                "ci95", "stddev", "min", "max");
  for (const MetricSummary& m : report.metrics) {
    out += Format("{:<34}{:>14}{:>12}{:>12}{:>14}{:>14}\n", m.name,
                  Format("{}", m.mean()),
                  Format("{}", m.ci95_half_width()),
                  Format("{}", m.stddev()), Format("{}", m.stats.min()),
                  Format("{}", m.stats.max()));
  }
  return out;
}

}  // namespace dreamsim::core
