// Differential proof of the metrics determinism contract (DESIGN.md §16):
// model-plane metric snapshots are a pure function of (seed, config), and
// the query indexes never change what the model observed. Two checks:
//  - MetricsRepeat: the same (seed, config) run twice in one process
//    renders byte-identical model-plane snapshots, mode counters included,
//    so no state leaks from one run into the next.
//  - MetricsDiff: for the same seed, the rendered model-plane snapshot bytes
//    of the indexed run (scheduler and drain indexes on) equal those of the
//    literal-scan run, once the counters that by definition describe the
//    answering mode are masked: the scan-fallback counters and the
//    drain-index query counters.
// The paper metrics must match as well.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "util/rng.hpp"

namespace dreamsim {
namespace {

using core::MetricsReport;
using core::SimulationConfig;
using core::Simulator;
using obs::MetricId;

struct MetricsDiffCase {
  bool faults = false;
};

void PrintTo(const MetricsDiffCase& c, std::ostream* os) {
  *os << (c.faults ? "faults" : "fault-free");
}

/// Counters whose values name the answering mode rather than the model.
constexpr MetricId kModeCounters[] = {
    MetricId::kStoreScanFallback,         MetricId::kSusqScanFallback,
    MetricId::kSusqQueryOldestExact,      MetricId::kSusqQueryBestPrioExact,
    MetricId::kSusqQueryOldestEligible,   MetricId::kSusqQueryBestPrioEligible,
};

std::uint64_t ValueOf(const obs::MetricsSnapshot& snap, MetricId id) {
  return snap.value[static_cast<std::size_t>(id)];
}

std::vector<workload::GeneratedTask> MakeWorkload(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  std::vector<workload::GeneratedTask> tasks;
  Tick at = 0;
  for (int i = 0; i < 180; ++i) {
    workload::GeneratedTask t;
    at += rng.uniform_int(1, 5);
    t.create_time = at;
    if (rng.uniform_int(0, 9) < 8) {
      t.preferred_config =
          ConfigId{static_cast<std::uint32_t>(rng.uniform_int(0, 9))};
    }
    t.needed_area = rng.uniform_int(200, 2000);
    t.required_time = rng.uniform_int(80, 900);
    t.priority = static_cast<double>(rng.uniform_int(0, 9));
    tasks.push_back(t);
  }
  return tasks;
}

struct RunResult {
  obs::MetricsSnapshot snap;
  /// Model-plane snapshot bytes (fixed tick/seq labels so only the metric
  /// values themselves can differ).
  std::string model_json;
  /// The same bytes with the mode counters masked.
  std::string masked_json;
  MetricsReport report;
};

std::string RenderModelPlane(const obs::MetricsSnapshot& snap) {
  return obs::RenderMetricsJson(snap, Tick{0}, 0, /*final=*/true);
}

RunResult RunOne(bool faults, std::uint64_t seed, bool indexed) {
  SimulationConfig config;
  config.nodes.count = 30;
  config.configs.count = 10;
  config.scheduler_index = indexed;
  config.drain_index = indexed;
  config.max_suspension_retries = 8;
  if (faults) {
    config.faults.mtbf = 4'000;
    config.faults.mttr = 800;
  }
  config.seed = seed;
  obs::MetricsRegistry::SetEnabled(true);
  obs::MetricsRegistry::Instance().Reset();
  Simulator sim(std::move(config));
  RunResult result;
  result.report = sim.RunWithWorkload(MakeWorkload(seed));
  result.snap = obs::MetricsRegistry::Instance().TakeSnapshot();
  obs::MetricsRegistry::SetEnabled(false);
  obs::MetricsRegistry::Instance().Reset();
  result.model_json = RenderModelPlane(result.snap);
  obs::MetricsSnapshot masked = result.snap;
  for (const MetricId id : kModeCounters) {
    masked.value[static_cast<std::size_t>(id)] = 0;
  }
  result.masked_json = RenderModelPlane(masked);
  return result;
}

void ExpectSameReport(const RunResult& run, const RunResult& base,
                      const std::string& label) {
  const MetricsReport& x = run.report;
  const MetricsReport& y = base.report;
  EXPECT_EQ(x.completed_tasks, y.completed_tasks) << label;
  EXPECT_EQ(x.discarded_tasks, y.discarded_tasks) << label;
  EXPECT_EQ(x.suspended_ever, y.suspended_ever) << label;
  EXPECT_EQ(x.total_scheduler_workload, y.total_scheduler_workload) << label;
  EXPECT_EQ(x.scheduling_steps_total, y.scheduling_steps_total) << label;
  EXPECT_EQ(x.total_simulation_time, y.total_simulation_time) << label;
  EXPECT_EQ(x.failures_injected, y.failures_injected) << label;
  EXPECT_EQ(x.tasks_killed, y.tasks_killed) << label;
}

struct MetricsRepeatCase {
  bool indexed = true;
  bool faults = false;
};

void PrintTo(const MetricsRepeatCase& c, std::ostream* os) {
  *os << (c.indexed ? "indexed" : "scan") << (c.faults ? " faults" : "");
}

class MetricsRepeat : public ::testing::TestWithParam<MetricsRepeatCase> {};

TEST_P(MetricsRepeat, SnapshotBytesArePureFunctionOfSeed) {
  const MetricsRepeatCase c = GetParam();
  for (const std::uint64_t seed : {42ull, 9ull}) {
    const std::string label = "seed=" + std::to_string(seed);
    const RunResult base = RunOne(c.faults, seed, c.indexed);
    // The snapshot must have actually observed the run.
    ASSERT_GT(base.report.completed_tasks, 0u) << label;
    EXPECT_EQ(base.model_json.find("\"dreamsim_tasks_completed_total\":0,"),
              std::string::npos);
    if (c.faults) {
      EXPECT_GT(ValueOf(base.snap, MetricId::kFaultFailures), 0u) << label;
    }
    const RunResult again = RunOne(c.faults, seed, c.indexed);
    EXPECT_EQ(again.model_json, base.model_json) << label;
    ExpectSameReport(again, base, label);
  }
}

INSTANTIATE_TEST_SUITE_P(MetricsCombos, MetricsRepeat,
                         ::testing::Values(MetricsRepeatCase{true, false},
                                           MetricsRepeatCase{false, false},
                                           MetricsRepeatCase{true, true}));

class MetricsDiff : public ::testing::TestWithParam<MetricsDiffCase> {};

TEST_P(MetricsDiff, SnapshotBytesAreIndexModeInvariant) {
  const MetricsDiffCase c = GetParam();
  for (const std::uint64_t seed : {42ull, 9ull}) {
    const std::string label = "seed=" + std::to_string(seed);
    const RunResult scan = RunOne(c.faults, seed, /*indexed=*/false);
    const RunResult indexed = RunOne(c.faults, seed, /*indexed=*/true);
    // The snapshots must have actually observed the run...
    ASSERT_GT(scan.report.completed_tasks, 0u) << label;
    EXPECT_EQ(scan.model_json.find("\"dreamsim_tasks_completed_total\":0,"),
              std::string::npos);
    if (c.faults) {
      EXPECT_GT(ValueOf(scan.snap, MetricId::kFaultFailures), 0u) << label;
    }
    // ...and the two runs must really have answered in different modes.
    EXPECT_GT(ValueOf(scan.snap, MetricId::kStoreScanFallback), 0u) << label;
    EXPECT_EQ(ValueOf(indexed.snap, MetricId::kStoreScanFallback), 0u)
        << label;
    EXPECT_GT(ValueOf(scan.snap, MetricId::kSusqScanFallback), 0u) << label;
    EXPECT_EQ(ValueOf(indexed.snap, MetricId::kSusqScanFallback), 0u)
        << label;
    EXPECT_EQ(indexed.masked_json, scan.masked_json) << label;
    ExpectSameReport(indexed, scan, label);
  }
}

INSTANTIATE_TEST_SUITE_P(MetricsCombos, MetricsDiff,
                         ::testing::Values(MetricsDiffCase{false},
                                           MetricsDiffCase{true}));

}  // namespace
}  // namespace dreamsim
