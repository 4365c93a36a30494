// Tests for the experiment sweep driver.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace dreamsim::core {
namespace {

SweepParams SmallSweep() {
  SweepParams params;
  params.base.nodes.count = 8;
  params.base.configs.count = 6;
  params.base.seed = 5;
  params.task_counts = {50, 100};
  params.modes = {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial};
  return params;
}

TEST(PaperTaskCounts, FullScale) {
  const auto counts = PaperTaskCounts();
  ASSERT_EQ(counts.size(), 11u);
  EXPECT_EQ(counts.front(), 1000);
  EXPECT_EQ(counts[1], 10000);
  EXPECT_EQ(counts.back(), 100000);
}

TEST(PaperTaskCounts, ScaledDown) {
  const auto counts = PaperTaskCounts(0.1);
  EXPECT_EQ(counts.front(), 1000);  // floor at 1000
  EXPECT_EQ(counts.back(), 10000);
  // Duplicates collapse after flooring.
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GT(counts[i], counts[i - 1]);
  }
}

TEST(PaperTaskCounts, RejectsBadScale) {
  EXPECT_THROW((void)PaperTaskCounts(0.0), std::invalid_argument);
  EXPECT_THROW((void)PaperTaskCounts(1.5), std::invalid_argument);
  EXPECT_THROW((void)PaperTaskCounts(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)PaperTaskCounts(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(RunSweep, ProducesModeMajorOrder) {
  const auto reports = RunSweep(SmallSweep());
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].mode_name, "full");
  EXPECT_EQ(reports[0].total_tasks, 50u);
  EXPECT_EQ(reports[1].total_tasks, 100u);
  EXPECT_EQ(reports[2].mode_name, "partial");
  EXPECT_EQ(reports[3].total_tasks, 100u);
}

TEST(RunSweep, LabelsEncodeThePoint) {
  const auto reports = RunSweep(SmallSweep());
  EXPECT_NE(reports[0].label.find("full"), std::string::npos);
  EXPECT_NE(reports[0].label.find("50"), std::string::npos);
}

TEST(RunSweep, ParallelMatchesSequential) {
  SweepParams params = SmallSweep();
  params.threads = 1;
  const auto sequential = RunSweep(params);
  params.threads = 4;
  const auto parallel = RunSweep(params);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].total_scheduler_workload,
              parallel[i].total_scheduler_workload);
    EXPECT_EQ(sequential[i].total_simulation_time,
              parallel[i].total_simulation_time);
    EXPECT_DOUBLE_EQ(sequential[i].avg_waiting_time_per_task,
                     parallel[i].avg_waiting_time_per_task);
  }
}

TEST(RunSweep, SharedSeedAcrossModes) {
  // The paper compares modes "for the same set of parameters in each
  // simulation run": both modes must see the same workload.
  const auto reports = RunSweep(SmallSweep());
  EXPECT_EQ(reports[0].seed, reports[2].seed);
  EXPECT_EQ(reports[0].total_tasks, reports[2].total_tasks);
}

TEST(RunSweep, EmptyGridYieldsNothing) {
  SweepParams params = SmallSweep();
  params.task_counts.clear();
  EXPECT_TRUE(RunSweep(params).empty());
}

TEST(RunReplicatedSweep, PointOrderMatchesRunSweep) {
  SweepParams params = SmallSweep();
  params.replications = 3;
  const auto grid = RunReplicatedSweep(params);
  ASSERT_EQ(grid.size(), 4u);  // 2 modes x 2 task counts
  for (const auto& point : grid) {
    EXPECT_EQ(point.replications, 3u);
    ASSERT_EQ(point.runs.size(), 3u);
  }
  EXPECT_EQ(grid[0].runs[0].mode_name, "full");
  EXPECT_EQ(grid[0].runs[0].total_tasks, 50u);
  EXPECT_EQ(grid[1].runs[0].total_tasks, 100u);
  EXPECT_EQ(grid[2].runs[0].mode_name, "partial");
}

TEST(RunReplicatedSweep, Column0IsBitIdenticalToRunSweepAtDerivedSeed) {
  // The documented contract: replication r simulates DeriveSeed(base.seed,
  // r), so the r=0 column of the replicated grid IS the single-seed grid
  // run at DeriveSeed(base.seed, 0).
  SweepParams params = SmallSweep();
  params.replications = 2;
  const auto replicated = RunReplicatedSweep(params);

  SweepParams single = SmallSweep();
  single.base.seed = DeriveSeed(params.base.seed, 0);
  const auto grid = RunSweep(single);

  ASSERT_EQ(replicated.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const MetricsReport& a = replicated[i].runs[0];
    const MetricsReport& b = grid[i];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.completed_tasks, b.completed_tasks);
    EXPECT_EQ(a.total_scheduler_workload, b.total_scheduler_workload);
    EXPECT_EQ(a.total_simulation_time, b.total_simulation_time);
    EXPECT_DOUBLE_EQ(a.avg_waiting_time_per_task, b.avg_waiting_time_per_task);
  }
}

TEST(RunReplicatedSweep, ReplicationsUseIndependentSeeds) {
  SweepParams params = SmallSweep();
  params.replications = 3;
  const auto grid = RunReplicatedSweep(params);
  for (const auto& point : grid) {
    EXPECT_NE(point.runs[0].seed, point.runs[1].seed);
    EXPECT_NE(point.runs[1].seed, point.runs[2].seed);
  }
}

TEST(RunReplicatedSweep, SummaryReducesItsOwnRuns) {
  // Each point's summary must equal SummarizeReplications over its runs —
  // the sweep driver may not reduce across points or reorder replications.
  SweepParams params = SmallSweep();
  params.replications = 3;
  const auto grid = RunReplicatedSweep(params);
  for (const auto& point : grid) {
    const ReplicationReport direct = SummarizeReplications(point.runs);
    ASSERT_EQ(direct.metrics.size(), point.metrics.size());
    for (std::size_t m = 0; m < direct.metrics.size(); ++m) {
      EXPECT_EQ(point.metrics[m].name, direct.metrics[m].name);
      EXPECT_DOUBLE_EQ(point.metrics[m].mean(), direct.metrics[m].mean());
      EXPECT_DOUBLE_EQ(point.metrics[m].stddev(), direct.metrics[m].stddev());
    }
  }
}

TEST(RunReplicatedSweep, ParallelMatchesSequential) {
  SweepParams params = SmallSweep();
  params.replications = 2;
  params.threads = 1;
  const auto sequential = RunReplicatedSweep(params);
  params.threads = 4;
  const auto parallel = RunReplicatedSweep(params);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(sequential[i].runs.size(), parallel[i].runs.size());
    for (std::size_t r = 0; r < sequential[i].runs.size(); ++r) {
      EXPECT_EQ(sequential[i].runs[r].total_scheduler_workload,
                parallel[i].runs[r].total_scheduler_workload);
      EXPECT_EQ(sequential[i].runs[r].total_simulation_time,
                parallel[i].runs[r].total_simulation_time);
    }
  }
}

TEST(RunReplicatedSweep, LabelsEncodePointAndReplication) {
  SweepParams params = SmallSweep();
  params.replications = 2;
  const auto grid = RunReplicatedSweep(params);
  EXPECT_NE(grid[0].runs[0].label.find("#0"), std::string::npos);
  EXPECT_NE(grid[0].runs[1].label.find("#1"), std::string::npos);
  EXPECT_NE(grid[0].runs[0].label.find("full"), std::string::npos);
}

}  // namespace
}  // namespace dreamsim::core
