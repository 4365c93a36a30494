// Tests for the Simulator facade: lifecycle correctness, accounting,
// determinism, suspension handling, and failure injection.
#include "core/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "task_times.hpp"

namespace dreamsim::core {
namespace {

SimulationConfig SmallConfig(int tasks = 200, int nodes = 10,
                             std::uint64_t seed = 42) {
  SimulationConfig config;
  config.nodes.count = nodes;
  config.configs.count = 8;
  config.tasks.total_tasks = tasks;
  config.seed = seed;
  return config;
}

TEST(Simulator, AllTasksReachTerminalState) {
  Simulator sim(SmallConfig());
  const MetricsReport report = sim.Run();
  EXPECT_EQ(report.total_tasks, 200u);
  EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 200u);
  for (std::uint32_t i = 0; i < sim.tasks().size(); ++i) {
    const resource::Task& t = sim.tasks().Get(TaskId{i});
    EXPECT_TRUE(t.state == resource::TaskState::kCompleted ||
                t.state == resource::TaskState::kDiscarded)
        << "task " << i << " ended as " << ToString(t.state);
  }
}

TEST(Simulator, StoreConsistentAfterRun) {
  Simulator sim(SmallConfig(500, 20));
  (void)sim.Run();
  const analysis::AuditReport audit = sim.AuditStructures();
  EXPECT_TRUE(audit.ok()) << audit.Render();
  // No tasks left running anywhere.
  for (const resource::Node& n : sim.store().nodes()) {
    EXPECT_FALSE(n.busy());
  }
}

TEST(Simulator, CompletedTaskTimestampsAreCoherent) {
  Simulator sim(SmallConfig());
  const testtimes::TaskTimeLog log(sim);
  (void)sim.Run();
  for (std::uint32_t i = 0; i < sim.tasks().size(); ++i) {
    const resource::Task& t = sim.tasks().Get(TaskId{i});
    const resource::TaskSpec& spec = sim.tasks().Spec(TaskId{i});
    if (t.state != resource::TaskState::kCompleted) continue;
    const testtimes::TaskTimes& times = log[TaskId{i}];
    EXPECT_GE(times.placed, spec.create_time);
    EXPECT_EQ(times.completed, times.ready() + spec.required_time);
    EXPECT_EQ(times.slot_ready, times.ready());
    EXPECT_GE(resource::WaitingTime(spec, times.slot_ready), 0);
    EXPECT_TRUE(times.config.valid());
    EXPECT_TRUE(times.node.valid());
  }
}

TEST(Simulator, Eq8And9MeansFollowFromTheEventStream) {
  // Waiting time (Eq. 8) and turnaround recomputed from the kPlaced and
  // kCompleted events must equal the report's Table I means, also when
  // kills re-place tasks and closest matches stretch their execution.
  SimulationConfig config = SmallConfig(400, 15, 7);
  config.tasks.max_required_time = 3000;
  config.tasks.closest_match_fraction = 0.3;
  config.closest_match_slowdown = 1.5;
  config.max_suspension_retries = 10;
  config.faults.mtbf = 20'000;
  config.faults.mttr = 4'000;
  Simulator sim(std::move(config));
  const testtimes::TaskTimeLog log(sim);
  const MetricsReport report = sim.Run();
  ASSERT_GT(report.tasks_killed, 0u);
  ASSERT_GT(report.closest_match_tasks, 0u);

  OnlineStats waiting;
  OnlineStats turnaround;
  for (const TaskId id : log.completions()) {
    const resource::TaskSpec& spec = sim.tasks().Spec(id);
    const testtimes::TaskTimes& times = log[id];
    waiting.Add(static_cast<double>(times.ready() - spec.create_time));
    turnaround.Add(static_cast<double>(times.completed - spec.create_time));
  }
  ASSERT_EQ(waiting.count(), report.completed_tasks);
  ASSERT_GT(waiting.count(), 0u);
  const auto n = static_cast<double>(waiting.count());
  // Integer ticks sum exactly in any order.
  EXPECT_EQ(report.waiting_time_stats.sum(), waiting.sum());
  EXPECT_EQ(report.turnaround_stats.sum(), turnaround.sum());
  EXPECT_EQ(report.waiting_time_stats.min(), waiting.min());
  EXPECT_EQ(report.waiting_time_stats.max(), waiting.max());
  EXPECT_EQ(report.turnaround_stats.min(), turnaround.min());
  EXPECT_EQ(report.turnaround_stats.max(), turnaround.max());
  // The report's means are Welford running means: equal to sum / n up to
  // rounding.
  const double want_waiting = waiting.sum() / n;
  const double want_turnaround = turnaround.sum() / n;
  EXPECT_NEAR(report.avg_waiting_time_per_task, want_waiting,
              1e-12 * want_waiting);
  EXPECT_NEAR(report.avg_task_running_time, want_turnaround,
              1e-12 * want_turnaround);
}

// Run() keeps the workload it generated: the task store reads the specs
// from it, so they must still be there after Run() returns.
TEST(Simulator, SpecsOutliveRun) {
  const SimulationConfig config = SmallConfig(300, 12, 9);
  Simulator sim(config);
  (void)sim.Run();
  Rng rng(DeriveSeed(config.seed, 1));  // the stream Run() draws from
  const workload::Workload regenerated =
      workload::GenerateWorkload(config.tasks, sim.store().configs(), rng);
  ASSERT_EQ(sim.tasks().size(), regenerated.size());
  for (std::uint32_t i = 0; i < regenerated.size(); ++i) {
    const resource::TaskSpec& spec = sim.tasks().Spec(TaskId{i});
    const workload::GeneratedTask want = regenerated[i];
    EXPECT_EQ(spec.create_time, want.create_time) << "task " << i;
    EXPECT_EQ(spec.preferred_config, want.preferred_config) << "task " << i;
    EXPECT_EQ(spec.needed_area, want.needed_area) << "task " << i;
    EXPECT_EQ(spec.required_time, want.required_time) << "task " << i;
    EXPECT_EQ(sim.tasks().DataSize(TaskId{i}), want.data_size) << "task " << i;
    EXPECT_EQ(sim.tasks().Priority(TaskId{i}), want.priority) << "task " << i;
  }
}

// A missing side column reads 0 for every task: the same workload with
// explicit all-zero data-size and priority columns runs the same
// decisions, events, meter charges and Table I metrics, in FIFO and in
// priority order, with the network model on.
TEST(Simulator, AllZeroColumnsRunLikeMissingOnes) {
  for (const bool by_priority : {false, true}) {
    SCOPED_TRACE(by_priority ? "priority order" : "FIFO order");
    SimulationConfig config = SmallConfig(600, 10, 5);
    config.priority_scheduling = by_priority;
    config.network.bytes_per_tick = 10;
    config.network.base_latency = 3;
    Rng rng(DeriveSeed(config.seed, 1));
    const Simulator probe(config);
    const workload::Workload bare =
        workload::GenerateWorkload(config.tasks, probe.store().configs(), rng);
    ASSERT_TRUE(bare.data_sizes().empty());
    ASSERT_TRUE(bare.priorities().empty());
    const workload::Workload zeros(
        std::vector<resource::TaskSpec>(bare.specs().begin(),
                                        bare.specs().end()),
        std::vector<Bytes>(bare.size(), 0),
        std::vector<double>(bare.size(), 0.0));
    ASSERT_EQ(zeros.data_sizes().size(), bare.size());
    ASSERT_EQ(zeros.priorities().size(), bare.size());

    struct Outcome {
      std::vector<std::string> row;
      std::vector<SimEvent> events;
      Steps scheduling = 0;
      Steps housekeeping = 0;
      Steps total = 0;
    };
    const auto run = [&config](const workload::Workload& wl) {
      Simulator sim(config);
      Outcome out;
      sim.SetEventLogger([&](const SimEvent& e) { out.events.push_back(e); });
      out.row = CsvReportRow(sim.RunWithWorkload(wl));
      out.scheduling = sim.store().meter().scheduling_steps_total();
      out.housekeeping = sim.store().meter().housekeeping_steps_total();
      out.total = sim.store().meter().total_workload();
      return out;
    };
    const Outcome a = run(bare);
    const Outcome b = run(zeros);
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.scheduling, b.scheduling);
    EXPECT_EQ(a.housekeeping, b.housekeeping);
    EXPECT_EQ(a.total, b.total);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      const SimEvent& x = a.events[i];
      const SimEvent& y = b.events[i];
      EXPECT_TRUE(x.kind == y.kind && x.tick == y.tick && x.task == y.task &&
                  x.node == y.node && x.config == y.config &&
                  x.placement == y.placement && x.comm_time == y.comm_time &&
                  x.config_wait == y.config_wait)
          << "event " << i;
    }
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  Simulator a(SmallConfig(300, 15, 7));
  Simulator b(SmallConfig(300, 15, 7));
  const MetricsReport ra = a.Run();
  const MetricsReport rb = b.Run();
  EXPECT_EQ(ra.completed_tasks, rb.completed_tasks);
  EXPECT_EQ(ra.discarded_tasks, rb.discarded_tasks);
  EXPECT_EQ(ra.total_scheduler_workload, rb.total_scheduler_workload);
  EXPECT_EQ(ra.total_simulation_time, rb.total_simulation_time);
  EXPECT_DOUBLE_EQ(ra.avg_waiting_time_per_task, rb.avg_waiting_time_per_task);
  EXPECT_DOUBLE_EQ(ra.avg_wasted_area_per_task, rb.avg_wasted_area_per_task);
}

TEST(Simulator, DifferentSeedsDiffer) {
  Simulator a(SmallConfig(300, 15, 1));
  Simulator b(SmallConfig(300, 15, 2));
  const MetricsReport ra = a.Run();
  const MetricsReport rb = b.Run();
  EXPECT_NE(ra.total_simulation_time, rb.total_simulation_time);
}

TEST(Simulator, SingleUseEnforced) {
  Simulator sim(SmallConfig(10));
  (void)sim.Run();
  EXPECT_THROW((void)sim.Run(), std::logic_error);
}

TEST(Simulator, ShardsOtherThanOneThrows) {
  // The field is vestigial (DESIGN.md §13): 1 is its only legal value.
  SimulationConfig config = SmallConfig(10);
  config.shards = 2;
  EXPECT_THROW(Simulator{config}, std::invalid_argument);
}

TEST(Simulator, NegativeNetworkParamsThrow) {
  // A negative latency shifts events into the past; a negative bandwidth
  // or jitter was silently read as 0.
  for (int field = 0; field < 3; ++field) {
    SimulationConfig config = SmallConfig(10);
    net::NetworkParams& net = config.network;
    (field == 0 ? net.bytes_per_tick
                : field == 1 ? net.base_latency : net.max_jitter) = -1;
    EXPECT_THROW(Simulator{config}, std::invalid_argument) << "field " << field;
  }
}

TEST(Simulator, ImpossibleTasksAreDiscardedNotLost) {
  // Node fabric smaller than every configuration: nothing can ever run.
  SimulationConfig config = SmallConfig(50, 5);
  config.nodes.min_area = 100;
  config.nodes.max_area = 150;
  config.configs.min_area = 200;
  config.configs.max_area = 400;
  Simulator sim(std::move(config));
  const MetricsReport report = sim.Run();
  EXPECT_EQ(report.discarded_tasks, 50u);
  EXPECT_EQ(report.completed_tasks, 0u);
}

TEST(Simulator, ZeroTasksRunsClean) {
  Simulator sim(SmallConfig(0));
  const MetricsReport report = sim.Run();
  EXPECT_EQ(report.total_tasks, 0u);
  EXPECT_EQ(report.total_simulation_time, 0);
}

TEST(Simulator, SuspensionQueueOverflowDiscards) {
  SimulationConfig config = SmallConfig(400, 2);
  config.suspension_capacity = 3;  // tiny queue under heavy saturation
  Simulator sim(std::move(config));
  const MetricsReport report = sim.Run();
  EXPECT_GT(report.discarded_tasks, 0u);
  EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 400u);
}

TEST(Simulator, MaxSuspensionRetriesDiscards) {
  SimulationConfig config = SmallConfig(400, 2);
  config.max_suspension_retries = 1;
  Simulator sim(std::move(config));
  const MetricsReport report = sim.Run();
  EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 400u);
}

TEST(Simulator, RetryBudgetPastTheRetryFieldThrows) {
  // A task holds at most 2^28 - 1 retries: a larger budget is unreachable.
  SimulationConfig config = SmallConfig(10);
  config.max_suspension_retries = resource::kMaxSusRetry;
  EXPECT_NO_THROW(Simulator{config});
  config.max_suspension_retries = resource::kMaxSusRetry + 1;
  try {
    Simulator sim(config);
    FAIL() << "a budget of 2^28 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_suspension_retries"),
              std::string::npos)
        << e.what();
  }
}

TEST(Simulator, ArrivalBurstHandled) {
  SimulationConfig config = SmallConfig(500, 5);
  config.tasks.min_interval = 0;  // bursts: many tasks in the same tick
  config.tasks.max_interval = 1;
  Simulator sim(std::move(config));
  const MetricsReport report = sim.Run();
  EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 500u);
}

TEST(Simulator, NetworkDelayEntersWaitingTime) {
  SimulationConfig with_net = SmallConfig(100, 50);
  with_net.tasks.min_data_size = 1000;
  with_net.tasks.max_data_size = 2000;
  with_net.network.bytes_per_tick = 10;
  with_net.network.base_latency = 5;
  Simulator sim(std::move(with_net));
  const testtimes::TaskTimeLog log(sim);
  (void)sim.Run();
  bool saw_comm = false;
  for (const TaskId id : log.completions()) {
    const Tick comm_time = log[id].comm_time;
    if (comm_time > 0) {
      saw_comm = true;
      EXPECT_GE(comm_time, 5);
    }
  }
  EXPECT_TRUE(saw_comm);
}

TEST(Simulator, ConfigTimeZeroOnAllocationReuse) {
  // Plenty of nodes and few configs: after warmup, reuse dominates and
  // some tasks must start with zero configuration wait.
  SimulationConfig config = SmallConfig(300, 60);
  config.configs.count = 3;
  Simulator sim(std::move(config));
  const testtimes::TaskTimeLog log(sim);
  (void)sim.Run();
  bool saw_reuse = false;
  for (const TaskId id : log.completions()) {
    if (log[id].config_wait == 0) {
      saw_reuse = true;
      break;
    }
  }
  EXPECT_TRUE(saw_reuse);
}

TEST(Simulator, CompletionHookFires) {
  Simulator sim(SmallConfig(50, 20));
  std::size_t completions = 0;
  Tick last = -1;
  sim.SetCompletionHook([&](TaskId, Tick now) {
    ++completions;
    EXPECT_GE(now, last);
    last = now;
  });
  const MetricsReport report = sim.Run();
  EXPECT_EQ(completions, report.completed_tasks);
}

TEST(Simulator, SubmitTaskAtFromHook) {
  Simulator sim(SmallConfig(5, 20));
  bool injected = false;
  sim.SetCompletionHook([&](TaskId, Tick now) {
    if (!injected) {
      injected = true;
      workload::GeneratedTask extra;
      extra.needed_area = 300;
      extra.required_time = 10;
      extra.preferred_config = ConfigId{0};
      (void)sim.SubmitTaskAt(extra, now + 1);
    }
  });
  const MetricsReport report = sim.Run();
  EXPECT_EQ(report.total_tasks, 6u);  // 5 generated + 1 injected
}

TEST(Simulator, HeuristicPoliciesRunCleanly) {
  for (const PolicyChoice choice :
       {PolicyChoice::kFirstFit, PolicyChoice::kBestFit,
        PolicyChoice::kWorstFit, PolicyChoice::kRandomFit,
        PolicyChoice::kRoundRobin, PolicyChoice::kLeastLoaded}) {
    SimulationConfig config = SmallConfig(200, 10);
    config.policy = choice;
    Simulator sim(std::move(config));
    const MetricsReport report = sim.Run();
    EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 200u)
        << "policy " << ToString(choice);
    const analysis::AuditReport audit = sim.AuditStructures();
    EXPECT_TRUE(audit.ok()) << "policy " << ToString(choice) << "\n"
                            << audit.Render();
  }
}

TEST(Simulator, MonitoringCanBeDisabled) {
  SimulationConfig config = SmallConfig(100, 10);
  config.enable_monitoring = false;
  Simulator sim(std::move(config));
  (void)sim.Run();
  EXPECT_EQ(sim.utilization().observed_until, sim.kernel().now());
  EXPECT_DOUBLE_EQ(sim.utilization().avg_running_tasks, 0.0);
}

TEST(Simulator, MonitoringProducesUtilization) {
  SimulationConfig config = SmallConfig(300, 10);
  Simulator sim(std::move(config));
  (void)sim.Run();
  const rms::UtilizationReport& u = sim.utilization();
  EXPECT_GT(u.avg_running_tasks, 0.0);
  EXPECT_GT(u.peak_running_tasks, 0u);
}

class WasteAccountingTest
    : public ::testing::TestWithParam<WasteAccounting> {};

TEST_P(WasteAccountingTest, PartialWastesLessThanFull) {
  double waste[2];
  int i = 0;
  for (const auto mode :
       {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial}) {
    SimulationConfig config = SmallConfig(800, 20, 11);
    config.mode = mode;
    config.waste_accounting = GetParam();
    Simulator sim(std::move(config));
    waste[i++] = sim.Run().avg_wasted_area_per_task;
  }
  // The paper's headline claim (Fig. 6) must hold under every Eq. 6
  // *sampling* policy. kIdleConfigured can degenerate to 0 == 0 under
  // deep saturation (no configured node is ever idle), hence <=.
  EXPECT_LE(waste[1], waste[0]);
  if (GetParam() == WasteAccounting::kOnSchedule ||
      GetParam() == WasteAccounting::kTimeWeighted) {
    EXPECT_LT(waste[1], waste[0]);
  }
}

// kOnConfigure is intentionally absent: it charges waste per configuration
// event, and under the paper-faithful drain the full scenario configures
// rarely (Fig. 7), which inverts the comparison. DESIGN.md §4 discusses it.
INSTANTIATE_TEST_SUITE_P(SamplingPolicies, WasteAccountingTest,
                         ::testing::Values(WasteAccounting::kOnSchedule,
                                           WasteAccounting::kTimeWeighted,
                                           WasteAccounting::kIdleConfigured));

TEST(Simulator, ContiguousPlacementRunsConsistently) {
  // The fabric-placement extension: simulations complete and stores stay
  // consistent (including the layout/scalar-accounting agreement that the
  // auditor's fabric.layout pass checks per node).
  for (const bool contiguous : {false, true}) {
    SimulationConfig config = SmallConfig(600, 15, 13);
    config.nodes.contiguous_placement = contiguous;
    Simulator sim(std::move(config));
    const MetricsReport report = sim.Run();
    EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 600u);
    const analysis::AuditReport audit = sim.AuditStructures();
    EXPECT_TRUE(audit.ok()) << audit.Render();
  }
}

TEST(Simulator, ContiguousPlacementHeuristicsAllRun) {
  for (const auto placement :
       {resource::Placement::kFirstFit, resource::Placement::kBestFit,
        resource::Placement::kWorstFit}) {
    SimulationConfig config = SmallConfig(300, 10, 5);
    config.nodes.contiguous_placement = true;
    config.nodes.placement = placement;
    Simulator sim(std::move(config));
    const MetricsReport report = sim.Run();
    EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 300u)
        << resource::ToString(placement);
    const analysis::AuditReport audit = sim.AuditStructures();
    EXPECT_TRUE(audit.ok()) << resource::ToString(placement) << "\n"
                            << audit.Render();
  }
}

TEST(WasteAccountingOnConfigure, AccumulatesPerConfigurationEvent) {
  SimulationConfig config = SmallConfig(400, 20, 11);
  config.waste_accounting = WasteAccounting::kOnConfigure;
  Simulator sim(std::move(config));
  const MetricsReport report = sim.Run();
  // Sanity: some configurations happened and produced samples.
  EXPECT_GT(report.total_reconfigurations, 0u);
  EXPECT_GT(report.wasted_area_samples.count(), 0u);
  EXPECT_GE(report.avg_wasted_area_per_task, 0.0);
}

}  // namespace
}  // namespace dreamsim::core
