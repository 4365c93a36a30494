// Targeted tests for the suspension-queue drain semantics (DESIGN.md §4):
// the reproduction decision that produces the paper's Fig. 7-10 orderings.
// Each scenario pins the node/configuration population exactly (degenerate
// generation ranges) and hand-builds the workload.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "task_times.hpp"

namespace dreamsim::core {
namespace {

/// One node of exactly `node_area`; `configs` configurations of exactly
/// 900 area units and 10-tick configuration time.
SimulationConfig PinnedConfig(Area node_area, int configs,
                              sched::ReconfigMode mode) {
  SimulationConfig config;
  config.nodes.count = 1;
  config.nodes.min_area = node_area;
  config.nodes.max_area = node_area;
  config.configs.count = configs;
  config.configs.min_area = 900;
  config.configs.max_area = 900;
  config.configs.min_config_time = 10;
  config.configs.max_config_time = 10;
  config.mode = mode;
  config.seed = 1;
  return config;
}

workload::GeneratedTask TaskFor(std::uint32_t config_id, Tick at,
                                Tick run = 100) {
  workload::GeneratedTask t;
  t.create_time = at;
  t.preferred_config = ConfigId{config_id};
  t.needed_area = 900;
  t.required_time = run;
  return t;
}

TEST(DrainSemantics, FullModeReusesMatchingQueuedTaskWithoutReconfig) {
  // Two tasks want the same configuration on a one-task node: the second
  // waits in the queue and must reuse the freed configuration — exactly
  // one (re)configuration in the whole run (the Fig. 7 "full stays low"
  // mechanism).
  Simulator sim(PinnedConfig(1000, 1, sched::ReconfigMode::kFull));
  const MetricsReport report = sim.RunWithWorkload(
      {TaskFor(0, 1), TaskFor(0, 2)});
  EXPECT_EQ(report.completed_tasks, 2u);
  EXPECT_EQ(report.suspended_ever, 1u);
  EXPECT_EQ(report.total_reconfigurations, 1u);
  // Second placement was a pure allocation.
  EXPECT_EQ(report.placements_by_kind[0], 1u);  // allocation
  EXPECT_EQ(report.placements_by_kind[1], 1u);  // initial configuration
}

TEST(DrainSemantics, PartialModeReconfiguresRegionForNonMatchingTask) {
  // The queued task wants a *different* configuration; partial mode
  // reclaims the freed idle region and reconfigures it (the Fig. 7
  // "partial reconfigures more" mechanism).
  Simulator sim(PinnedConfig(1000, 2, sched::ReconfigMode::kPartial));
  const MetricsReport report = sim.RunWithWorkload(
      {TaskFor(0, 1), TaskFor(1, 2)});
  EXPECT_EQ(report.completed_tasks, 2u);
  EXPECT_EQ(report.total_reconfigurations, 2u);
  EXPECT_EQ(report.placements_by_kind[3], 1u);  // partial-reconfiguration
}

TEST(DrainSemantics, FullModeFallbackPreventsStranding) {
  // Full mode, non-matching queued task, arrivals over: without the
  // area-based fallback the node would idle forever and the task would be
  // bulk-discarded at drain-out.
  Simulator sim(PinnedConfig(1000, 2, sched::ReconfigMode::kFull));
  const MetricsReport report = sim.RunWithWorkload(
      {TaskFor(0, 1), TaskFor(1, 2)});
  EXPECT_EQ(report.completed_tasks, 2u);
  EXPECT_EQ(report.discarded_tasks, 0u);
  EXPECT_EQ(report.placements_by_kind[4], 1u);  // full-reconfiguration
  EXPECT_EQ(report.total_reconfigurations, 2u);
}

TEST(DrainSemantics, FullModePrefersMatchOverOlderNonMatch) {
  // Queue holds an older non-matching task and a younger matching one:
  // the freed node serves the *matching* task (configuration reuse), the
  // non-matching one waits for the next completion.
  Simulator sim(PinnedConfig(1000, 2, sched::ReconfigMode::kFull));
  const testtimes::TaskTimeLog log(sim);
  const MetricsReport report = sim.RunWithWorkload({
      TaskFor(0, 1, 100),   // runs first
      TaskFor(1, 2, 100),   // older queued non-match
      TaskFor(0, 3, 100),   // younger queued match
  });
  EXPECT_EQ(report.completed_tasks, 3u);
  // Reuse for the matching task + one reconfiguration for the non-match.
  EXPECT_EQ(report.total_reconfigurations, 2u);
  EXPECT_GT(log[TaskId{1}].placed, log[TaskId{2}].placed);
}

TEST(DrainSemantics, PartialModeFifoAmongEquallyEligible) {
  // Two queued tasks both fit the freed region: FIFO order wins.
  Simulator sim(PinnedConfig(1000, 2, sched::ReconfigMode::kPartial));
  const testtimes::TaskTimeLog log(sim);
  const MetricsReport report = sim.RunWithWorkload({
      TaskFor(0, 1, 100),
      TaskFor(1, 2, 100),  // older
      TaskFor(1, 3, 100),  // younger, same needs
  });
  EXPECT_EQ(report.completed_tasks, 3u);
  EXPECT_LT(log[TaskId{1}].placed, log[TaskId{2}].placed);
}

TEST(DrainSemantics, PriorityOverridesFifoWhenEnabled) {
  SimulationConfig config = PinnedConfig(1000, 2,
                                         sched::ReconfigMode::kPartial);
  config.priority_scheduling = true;
  Simulator sim(std::move(config));
  const testtimes::TaskTimeLog log(sim);
  workload::GeneratedTask older = TaskFor(1, 2, 100);
  older.priority = 1.0;
  workload::GeneratedTask younger = TaskFor(1, 3, 100);
  younger.priority = 10.0;  // jumps the queue
  const MetricsReport report =
      sim.RunWithWorkload({TaskFor(0, 1, 100), older, younger});
  EXPECT_EQ(report.completed_tasks, 3u);
  EXPECT_GT(log[TaskId{1}].placed, log[TaskId{2}].placed);
}

TEST(DrainSemantics, QueueScanChargedAsSchedulerEffort) {
  // The per-completion queue walk must appear in the step accounting
  // (it is what makes the paper's Fig. 9 full-mode curves grow).
  Simulator with_queue(PinnedConfig(1000, 1, sched::ReconfigMode::kFull));
  const MetricsReport queued = with_queue.RunWithWorkload(
      {TaskFor(0, 1), TaskFor(0, 2), TaskFor(0, 3), TaskFor(0, 4)});

  Simulator without_queue(PinnedConfig(1000, 1, sched::ReconfigMode::kFull));
  // Arrivals spaced beyond completion: the queue never forms.
  const MetricsReport unqueued = without_queue.RunWithWorkload(
      {TaskFor(0, 1), TaskFor(0, 500), TaskFor(0, 1000), TaskFor(0, 1500)});

  EXPECT_EQ(queued.completed_tasks, 4u);
  EXPECT_EQ(unqueued.completed_tasks, 4u);
  EXPECT_GT(queued.scheduling_steps_total, unqueued.scheduling_steps_total);
}

}  // namespace
}  // namespace dreamsim::core
