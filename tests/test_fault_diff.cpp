// Differential proof that fault injection preserves the indexed fast-path
// contracts (DESIGN.md "Scheduler index", §10): with `scheduler_index` and
// `drain_index` on or off, runs with node failures and repairs produce
// identical event streams (including kKilled/kNodeFailed/kNodeRepaired) and
// bit-identical MetricsReport fields — fault block included — across > 50
// seeded differential run pairs.
#include <gtest/gtest.h>

#include <vector>

#include "core/simulator.hpp"
#include "util/rng.hpp"

namespace dreamsim {
namespace {

using core::FaultAction;
using core::MetricsReport;
using core::SimEvent;
using core::SimulationConfig;
using core::Simulator;

struct FaultCase {
  sched::ReconfigMode mode = sched::ReconfigMode::kPartial;
  double mtbf = 0.0;
  double mttr = 0.0;
  bool scripted = false;
  std::uint32_t retries = 8;   // max_suspension_retries
  std::size_t capacity = 0;    // suspension_capacity (0 = unbounded)
  bool priority = false;
};

void PrintTo(const FaultCase& c, std::ostream* os) {
  *os << (c.mode == sched::ReconfigMode::kPartial ? "partial" : "full")
      << " mtbf=" << c.mtbf << " mttr=" << c.mttr
      << (c.scripted ? " scripted" : "") << " retries=" << c.retries
      << " capacity=" << c.capacity << (c.priority ? " priority" : "");
}

/// A saturating workload whose execution times are short relative to the
/// MTBF, so failures interrupt running tasks without statistically
/// livelocking the retry loop.
workload::Workload MakeWorkload(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  workload::Workload tasks;
  Tick at = 0;
  for (int i = 0; i < 160; ++i) {
    workload::GeneratedTask t;
    at += rng.uniform_int(1, 5);
    t.create_time = at;
    if (rng.uniform_int(0, 9) < 8) {
      t.preferred_config =
          ConfigId{static_cast<std::uint32_t>(rng.uniform_int(0, 7))};
    }
    t.needed_area = rng.uniform_int(200, 2000);
    t.required_time = rng.uniform_int(80, 900);
    t.priority = static_cast<double>(rng.uniform_int(0, 9));
    tasks.push_back(t);
  }
  return tasks;
}

struct RunResult {
  std::vector<SimEvent> events;
  MetricsReport report;
};

RunResult RunOne(const FaultCase& c, std::uint64_t seed, bool indexed) {
  SimulationConfig config;
  config.nodes.count = 14;
  config.configs.count = 8;
  config.mode = c.mode;
  config.priority_scheduling = c.priority;
  config.max_suspension_retries = c.retries;
  config.suspension_capacity = c.capacity;
  config.scheduler_index = indexed;
  config.drain_index = indexed;
  config.faults.mtbf = c.mtbf;
  config.faults.mttr = c.mttr;
  if (c.scripted) {
    config.faults.script = {{200, NodeId{0}, FaultAction::kFail},
                            {200, NodeId{1}, FaultAction::kFail},
                            {205, NodeId{2}, FaultAction::kFail},
                            {900, NodeId{0}, FaultAction::kRepair},
                            {1400, NodeId{1}, FaultAction::kRepair},
                            {2500, NodeId{5}, FaultAction::kFail}};
  }
  config.seed = seed;
  // Structure audit rides along: every decision in Debug, end-of-run in
  // Release (see test_simulator_fuzz.cpp).
#ifndef NDEBUG
  config.audit = analysis::AuditMode::kStep;
#else
  config.audit = analysis::AuditMode::kEnd;
#endif
  Simulator sim(std::move(config));
  RunResult result;
  sim.SetEventLogger([&](const SimEvent& e) { result.events.push_back(e); });
  EXPECT_EQ(sim.store().indexed(), indexed);
  // Only FIFO order builds the drain index; priority order always walks.
  EXPECT_EQ(sim.suspension().drain_indexed(), indexed && !c.priority);
  const workload::Workload wl = MakeWorkload(seed);
  result.report = sim.RunWithWorkload(wl);
  const analysis::AuditReport audit = sim.AuditStructures();
  EXPECT_TRUE(audit.ok()) << audit.Render();
  return result;
}

void ExpectIdentical(const RunResult& idx, const RunResult& ref) {
  ASSERT_EQ(idx.events.size(), ref.events.size());
  for (std::size_t i = 0; i < idx.events.size(); ++i) {
    const SimEvent& a = idx.events[i];
    const SimEvent& b = ref.events[i];
    ASSERT_EQ(a.kind, b.kind) << "event " << i;
    ASSERT_EQ(a.tick, b.tick) << "event " << i;
    ASSERT_EQ(a.task, b.task) << "event " << i;
    ASSERT_EQ(a.node, b.node) << "event " << i;
    ASSERT_EQ(a.config, b.config) << "event " << i;
  }
  const MetricsReport& x = idx.report;
  const MetricsReport& y = ref.report;
  EXPECT_EQ(x.total_tasks, y.total_tasks);
  EXPECT_EQ(x.completed_tasks, y.completed_tasks);
  EXPECT_EQ(x.discarded_tasks, y.discarded_tasks);
  EXPECT_EQ(x.suspended_ever, y.suspended_ever);
  EXPECT_EQ(x.closest_match_tasks, y.closest_match_tasks);
  EXPECT_EQ(x.avg_wasted_area_per_task, y.avg_wasted_area_per_task);
  EXPECT_EQ(x.avg_task_running_time, y.avg_task_running_time);
  EXPECT_EQ(x.avg_reconfig_count_per_node, y.avg_reconfig_count_per_node);
  EXPECT_EQ(x.avg_config_time_per_task, y.avg_config_time_per_task);
  EXPECT_EQ(x.avg_waiting_time_per_task, y.avg_waiting_time_per_task);
  EXPECT_EQ(x.avg_scheduling_steps_per_task, y.avg_scheduling_steps_per_task);
  EXPECT_EQ(x.total_scheduler_workload, y.total_scheduler_workload);
  EXPECT_EQ(x.total_used_nodes, y.total_used_nodes);
  EXPECT_EQ(x.total_simulation_time, y.total_simulation_time);
  EXPECT_EQ(x.scheduling_steps_total, y.scheduling_steps_total);
  EXPECT_EQ(x.housekeeping_steps_total, y.housekeeping_steps_total);
  EXPECT_EQ(x.total_reconfigurations, y.total_reconfigurations);
  EXPECT_EQ(x.total_configuration_time, y.total_configuration_time);
  EXPECT_EQ(x.avg_suspension_retries, y.avg_suspension_retries);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(x.placements_by_kind[k], y.placements_by_kind[k]) << "kind " << k;
  }
  EXPECT_EQ(x.placements_per_config, y.placements_per_config);
  // The fault block itself must match bit for bit.
  EXPECT_EQ(x.failures_injected, y.failures_injected);
  EXPECT_EQ(x.repairs_completed, y.repairs_completed);
  EXPECT_EQ(x.tasks_killed, y.tasks_killed);
  EXPECT_EQ(x.tasks_recovered, y.tasks_recovered);
  EXPECT_EQ(x.tasks_lost_to_failure, y.tasks_lost_to_failure);
  EXPECT_EQ(x.lost_work_area_ticks, y.lost_work_area_ticks);
  EXPECT_EQ(x.total_downtime, y.total_downtime);
}

class FaultSimDiff : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultSimDiff, IndexedFaultRunsAreBitIdenticalAcrossSeeds) {
  const FaultCase c = GetParam();
  // 6 combos x 9 seeds = 54 seeded differential run pairs overall.
  std::uint64_t failures_total = 0;
  std::uint64_t killed_total = 0;
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    const RunResult idx = RunOne(c, seed * 7919, true);
    const RunResult ref = RunOne(c, seed * 7919, false);
    ExpectIdentical(idx, ref);
    failures_total += idx.report.failures_injected;
    killed_total += idx.report.tasks_killed;
    if (HasFatalFailure()) return;
  }
  // The comparison is vacuous unless faults actually fired and killed work.
  EXPECT_GT(failures_total, 0u);
  EXPECT_GT(killed_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FaultCombos, FaultSimDiff,
    ::testing::Values(
        FaultCase{sched::ReconfigMode::kPartial, 3000, 600, false, 8, 0,
                  false},
        FaultCase{sched::ReconfigMode::kPartial, 2000, 0, false, 6, 0, false},
        FaultCase{sched::ReconfigMode::kPartial, 4000, 800, false, 8, 20,
                  true},
        FaultCase{sched::ReconfigMode::kPartial, 0, 0, true, 8, 0, false},
        FaultCase{sched::ReconfigMode::kFull, 3000, 600, false, 8, 0, false},
        FaultCase{sched::ReconfigMode::kFull, 0, 0, true, 6, 16, false}));

}  // namespace
}  // namespace dreamsim
