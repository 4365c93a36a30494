// Property sweep over the whole simulator: for a grid of (seed, mode,
// policy, extensions) the end state must satisfy the global invariants —
// every task terminal, every structure consistent, every metric sane.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "task_times.hpp"
#include "util/fmt.hpp"

namespace dreamsim::core {
namespace {

/// Fault-injection scenario exercised by a grid point (DESIGN.md §10).
enum class FaultScenario : std::uint8_t {
  kNone,
  kMtbfMttr,          // random failures with repair
  kMtbfPermanent,     // random failures, nodes never come back
  kMassFailure,       // scripted: half the fleet dies at one tick
  kRepairAfterDrain,  // scripted repair far past the likely workload end
};

std::string_view ToString(FaultScenario scenario) {
  switch (scenario) {
    case FaultScenario::kNone: return "nofault";
    case FaultScenario::kMtbfMttr: return "mtbf";
    case FaultScenario::kMtbfPermanent: return "perm";
    case FaultScenario::kMassFailure: return "mass";
    case FaultScenario::kRepairAfterDrain: return "latefix";
  }
  return "?";
}

struct FuzzPoint {
  std::uint64_t seed;
  sched::ReconfigMode mode;
  PolicyChoice policy;
  bool contiguous;
  bool ship_bitstreams;
  int families;
  std::size_t queue_capacity;
  FaultScenario faults = FaultScenario::kNone;
};

std::string PrintPoint(const ::testing::TestParamInfo<FuzzPoint>& info) {
  const FuzzPoint& p = info.param;
  std::string name = Format("seed{}_{}_{}_{}{}f{}q{}_{}", p.seed,
                            sched::ToString(p.mode), ToString(p.policy),
                            p.contiguous ? "ctg_" : "",
                            p.ship_bitstreams ? "ship_" : "", p.families,
                            p.queue_capacity, ToString(p.faults));
  // gtest parameter names must be [A-Za-z0-9_].
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class SimulatorFuzz : public ::testing::TestWithParam<FuzzPoint> {};

TEST_P(SimulatorFuzz, GlobalInvariantsHold) {
  const FuzzPoint& p = GetParam();
  SimulationConfig config;
  config.nodes.count = 15;
  config.nodes.contiguous_placement = p.contiguous;
  config.nodes.family_count = p.families;
  config.configs.count = 8;
  config.configs.family_count = p.families;
  config.tasks.total_tasks = 400;
  config.seed = p.seed;
  config.mode = p.mode;
  config.policy = p.policy;
  config.ship_bitstreams = p.ship_bitstreams;
  config.bitstream_cache_capacity = p.ship_bitstreams ? 500'000 : 0;
  config.network.bytes_per_tick = p.ship_bitstreams ? 1000 : 0;
  config.suspension_capacity = p.queue_capacity;
  if (p.faults != FaultScenario::kNone) {
    // Bound execution times and retries so a kill-happy schedule cannot
    // statistically livelock (a task whose runtime rivals the MTBF could be
    // killed and re-queued near-forever under unbounded retries).
    config.tasks.max_required_time = 3000;
    config.max_suspension_retries = 10;
  }
  switch (p.faults) {
    case FaultScenario::kNone:
      break;
    case FaultScenario::kMtbfMttr:
      config.faults.mtbf = 20'000;
      config.faults.mttr = 4'000;
      break;
    case FaultScenario::kMtbfPermanent:
      config.faults.mtbf = 60'000;
      break;
    case FaultScenario::kMassFailure:
      // Half the fleet dies at once mid-run; three nodes come back later.
      for (std::uint32_t n = 0; n < 7; ++n) {
        config.faults.script.push_back(
            {3'000, NodeId{n}, FaultAction::kFail});
      }
      for (std::uint32_t n = 0; n < 3; ++n) {
        config.faults.script.push_back(
            {9'000, NodeId{n}, FaultAction::kRepair});
      }
      break;
    case FaultScenario::kRepairAfterDrain:
      // The repair is scheduled far past the likely workload end: it must
      // either drain the queue or be cancelled cleanly, never hang the run.
      config.faults.script.push_back({2'000, NodeId{2}, FaultAction::kFail});
      config.faults.script.push_back({5'000, NodeId{4}, FaultAction::kFail});
      config.faults.script.push_back(
          {5'000'000, NodeId{2}, FaultAction::kRepair});
      break;
  }

  // Structure audit across the whole grid: after every scheduler decision
  // in Debug, once at end of run in Release (step-mode reconstruction over
  // every decision would dominate optimized CI runs).
#ifndef NDEBUG
  config.audit = analysis::AuditMode::kStep;
#else
  config.audit = analysis::AuditMode::kEnd;
#endif

  Simulator sim(std::move(config));
  const testtimes::TaskTimeLog log(sim);
  const MetricsReport report = sim.Run();

  // Explicit auditor hook on top of the config-driven audits: the end
  // state (Fig. 3 lists, Eq. 4 accounting, fabric layouts, suspension
  // queue, event queue) must reconstruct cleanly.
  const analysis::AuditReport audit = sim.AuditStructures();
  EXPECT_TRUE(audit.ok()) << audit.Render();

  // Conservation: every generated task reached a terminal state.
  EXPECT_EQ(report.total_tasks, 400u);
  EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 400u);
  std::size_t non_terminal = 0;
  for (const resource::Task& t : sim.tasks().all()) {
    if (t.state != resource::TaskState::kCompleted &&
        t.state != resource::TaskState::kDiscarded) {
      ++non_terminal;
    }
  }
  EXPECT_EQ(non_terminal, 0u);

  // Nothing left running and no dangling events.
  for (const resource::Node& n : sim.store().nodes()) {
    EXPECT_FALSE(n.busy());
  }
  EXPECT_TRUE(sim.kernel().queue().empty());

  // Metric sanity.
  EXPECT_GE(report.avg_waiting_time_per_task, 0.0);
  EXPECT_GE(report.avg_wasted_area_per_task, 0.0);
  EXPECT_EQ(report.total_scheduler_workload,
            report.scheduling_steps_total + report.housekeeping_steps_total);
  std::uint64_t placements = 0;
  for (const std::uint64_t count : report.placements_by_kind) {
    placements += count;
  }
  // Every placement either ran to completion or was destroyed by a node
  // failure (fault-free runs: placements == completions).
  EXPECT_EQ(placements, report.completed_tasks + report.tasks_killed);

  // Fault bookkeeping: kill victims are classified exhaustively, failed
  // nodes end blank, and fault-free runs report all-zero fault metrics.
  std::uint64_t killed_ever = 0;
  for (const resource::Task& t : sim.tasks().all()) {
    if (t.killed) ++killed_ever;
  }
  EXPECT_EQ(report.tasks_recovered + report.tasks_lost_to_failure,
            killed_ever);
  for (const resource::Node& n : sim.store().nodes()) {
    if (n.failed()) EXPECT_TRUE(n.blank());
  }
  EXPECT_EQ(sim.store().failed_node_count(),
            report.failures_injected - report.repairs_completed);
  if (p.faults == FaultScenario::kNone) {
    EXPECT_EQ(report.failures_injected, 0u);
    EXPECT_EQ(report.tasks_killed, 0u);
    EXPECT_EQ(report.total_downtime, 0);
  } else if (p.faults == FaultScenario::kMassFailure ||
             p.faults == FaultScenario::kRepairAfterDrain) {
    EXPECT_GT(report.failures_injected, 0u);
  }

  // Completed tasks carry coherent records.
  for (std::uint32_t i = 0; i < sim.tasks().size(); ++i) {
    const resource::Task& t = sim.tasks().Get(TaskId{i});
    const resource::TaskSpec& spec = sim.tasks().Spec(TaskId{i});
    if (t.state != resource::TaskState::kCompleted) continue;
    const testtimes::TaskTimes& times = log[TaskId{i}];
    EXPECT_GE(times.placed, spec.create_time);
    EXPECT_GE(times.completed, times.placed + spec.required_time);
    EXPECT_EQ(times.slot_ready, times.ready());
    EXPECT_TRUE(times.config.valid());
  }
}

std::vector<FuzzPoint> MakeGrid() {
  std::vector<FuzzPoint> points;
  const PolicyChoice policies[] = {PolicyChoice::kDreamSim,
                                   PolicyChoice::kBestFit,
                                   PolicyChoice::kRoundRobin};
  std::uint64_t seed = 100;
  for (const auto mode :
       {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial}) {
    for (const PolicyChoice policy : policies) {
      // Heuristic policies always use partial semantics; skip redundant
      // full-mode variants for them.
      if (mode == sched::ReconfigMode::kFull &&
          policy != PolicyChoice::kDreamSim) {
        continue;
      }
      points.push_back(FuzzPoint{seed++, mode, policy, false, false, 1, 0});
      points.push_back(FuzzPoint{seed++, mode, policy, true, false, 1, 0});
      points.push_back(FuzzPoint{seed++, mode, policy, false, true, 1, 0});
      points.push_back(FuzzPoint{seed++, mode, policy, false, false, 3, 0});
      points.push_back(FuzzPoint{seed++, mode, policy, true, true, 2, 64});
      // Fault-injection scenarios over the same structural invariants.
      for (const FaultScenario faults :
           {FaultScenario::kMtbfMttr, FaultScenario::kMtbfPermanent,
            FaultScenario::kMassFailure, FaultScenario::kRepairAfterDrain}) {
        points.push_back(
            FuzzPoint{seed++, mode, policy, false, false, 1, 0, faults});
      }
      points.push_back(FuzzPoint{seed++, mode, policy, true, false, 2, 48,
                                 FaultScenario::kMtbfMttr});
    }
  }
  return points;
}

INSTANTIATE_TEST_SUITE_P(Grid, SimulatorFuzz, ::testing::ValuesIn(MakeGrid()),
                         PrintPoint);

}  // namespace
}  // namespace dreamsim::core
