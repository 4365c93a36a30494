// Golden-metrics regression pin: the seed-42 Table II fault-free runs
// (default SimulationConfig, both reconfiguration modes) must reproduce
// these MetricsReport values exactly. Any intentional change to scheduling,
// metering, or metrics must update the constants here — silently shifted
// numbers are the bug this test exists to catch. The fault block must stay
// all-zero: fault injection is disabled by default and must not perturb
// fault-free runs.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "obs/metrics.hpp"

namespace dreamsim::core {
namespace {

struct Golden {
  const char* policy_name;
  const char* mode_name;
  std::uint64_t completed_tasks;
  std::uint64_t discarded_tasks;
  std::uint64_t suspended_ever;
  std::uint64_t closest_match_tasks;
  double avg_wasted_area_per_task;
  double avg_task_running_time;
  double avg_reconfig_count_per_node;
  double avg_config_time_per_task;
  double avg_waiting_time_per_task;
  double avg_scheduling_steps_per_task;
  Steps total_scheduler_workload;
  std::size_t total_used_nodes;
  Tick total_simulation_time;
  Steps scheduling_steps_total;
  Steps housekeeping_steps_total;
  std::uint64_t total_reconfigurations;
  Tick total_configuration_time;
  double avg_suspension_retries;
  std::uint64_t placements_by_kind[5];
};

void ExpectGolden(sched::ReconfigMode mode, const Golden& g) {
  SimulationConfig config;  // Table II defaults, seed 42, faults disabled
  config.mode = mode;
  Simulator sim(std::move(config));
  const MetricsReport r = sim.Run();

  EXPECT_EQ(r.policy_name, g.policy_name);
  EXPECT_EQ(r.mode_name, g.mode_name);
  EXPECT_EQ(r.seed, 42u);
  EXPECT_EQ(r.total_nodes, 200u);
  EXPECT_EQ(r.total_configs, 50u);
  EXPECT_EQ(r.total_tasks, 1000u);
  EXPECT_EQ(r.completed_tasks, g.completed_tasks);
  EXPECT_EQ(r.discarded_tasks, g.discarded_tasks);
  EXPECT_EQ(r.suspended_ever, g.suspended_ever);
  EXPECT_EQ(r.closest_match_tasks, g.closest_match_tasks);
  EXPECT_DOUBLE_EQ(r.avg_wasted_area_per_task, g.avg_wasted_area_per_task);
  EXPECT_DOUBLE_EQ(r.avg_task_running_time, g.avg_task_running_time);
  EXPECT_DOUBLE_EQ(r.avg_reconfig_count_per_node,
                   g.avg_reconfig_count_per_node);
  EXPECT_DOUBLE_EQ(r.avg_config_time_per_task, g.avg_config_time_per_task);
  EXPECT_DOUBLE_EQ(r.avg_waiting_time_per_task, g.avg_waiting_time_per_task);
  EXPECT_DOUBLE_EQ(r.avg_scheduling_steps_per_task,
                   g.avg_scheduling_steps_per_task);
  EXPECT_EQ(r.total_scheduler_workload, g.total_scheduler_workload);
  EXPECT_EQ(r.total_used_nodes, g.total_used_nodes);
  EXPECT_EQ(r.total_simulation_time, g.total_simulation_time);
  EXPECT_EQ(r.scheduling_steps_total, g.scheduling_steps_total);
  EXPECT_EQ(r.housekeeping_steps_total, g.housekeeping_steps_total);
  EXPECT_EQ(r.total_reconfigurations, g.total_reconfigurations);
  EXPECT_EQ(r.total_configuration_time, g.total_configuration_time);
  EXPECT_DOUBLE_EQ(r.avg_suspension_retries, g.avg_suspension_retries);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(r.placements_by_kind[k], g.placements_by_kind[k])
        << "kind " << k;
  }

  // Extension knobs are off by default: their metrics must be zero.
  EXPECT_EQ(r.bitstream_hits, 0u);
  EXPECT_EQ(r.bitstream_misses, 0u);
  EXPECT_EQ(r.bitstream_transfer_time, 0);
  EXPECT_EQ(r.failures_injected, 0u);
  EXPECT_EQ(r.repairs_completed, 0u);
  EXPECT_EQ(r.tasks_killed, 0u);
  EXPECT_EQ(r.tasks_recovered, 0u);
  EXPECT_EQ(r.tasks_lost_to_failure, 0u);
  EXPECT_EQ(r.lost_work_area_ticks, 0u);
  EXPECT_EQ(r.total_downtime, 0);
}

TEST(GoldenMetrics, Seed42FullMode) {
  ExpectGolden(sched::ReconfigMode::kFull,
               Golden{"dreamsim-full",
                      "full",
                      999,
                      1,
                      791,
                      157,
                      252044.84899999999,
                      132316.4974974975,
                      1.6399999999999999,
                      5.0519999999999996,
                      81847.36036036037,
                      566.94000000000005,
                      584999,
                      200,
                      305126,
                      566940,
                      18059,
                      328,
                      5052,
                      0.0,
                      {671, 200, 0, 0, 128}});
}

TEST(GoldenMetrics, Seed42PartialMode) {
  ExpectGolden(sched::ReconfigMode::kPartial,
               Golden{"dreamsim-partial",
                      "partial",
                      999,
                      1,
                      488,
                      157,
                      70573.197,
                      66251.045045045044,
                      4.415,
                      13.787000000000001,
                      15781.9079079079,
                      1158.2629999999999,
                      1178318,
                      200,
                      187696,
                      1158263,
                      20055,
                      883,
                      13787,
                      0.36536536536536535,
                      {116, 200, 291, 392, 0}});
}

// --- Event-queue counters ----------------------------------------------------
//
// The kernel's model-plane event-queue metrics, pinned exactly: any change to
// how events are stored (heap layout, arrival feeding, cancellation) must
// leave every push, pop, cancel, lazy drop and simulated-time gap as it was.

struct EventCounters {
  std::uint64_t pushed;
  std::uint64_t popped;
  std::uint64_t cancelled;
  std::uint64_t dead_dropped;
  std::uint64_t heap_sifts;
  std::uint64_t depth_peak;
  std::uint64_t gap_count;
  std::uint64_t gap_sum;
};

MetricsReport ExpectEventCounters(SimulationConfig config,
                                  const EventCounters& g) {
  obs::MetricsRegistry::SetEnabled(true);
  obs::MetricsRegistry::Instance().Reset();
  Simulator sim(std::move(config));
  const MetricsReport report = sim.Run();
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Instance().TakeSnapshot();
  obs::MetricsRegistry::SetEnabled(false);
  obs::MetricsRegistry::Instance().Reset();
  const auto value = [&snap](obs::MetricId id) {
    return snap.value[static_cast<std::size_t>(id)];
  };
  const obs::MetricsSnapshot::Hist& gaps = snap.hist[obs::kHistSlotOf[
      static_cast<std::size_t>(obs::MetricId::kEventGapTicks)]];
  EXPECT_EQ(value(obs::MetricId::kEvqPushed), g.pushed);
  EXPECT_EQ(value(obs::MetricId::kEvqPopped), g.popped);
  EXPECT_EQ(value(obs::MetricId::kEvqCancelled), g.cancelled);
  EXPECT_EQ(value(obs::MetricId::kEvqDeadDropped), g.dead_dropped);
  EXPECT_EQ(value(obs::MetricId::kEvqHeapSifts), g.heap_sifts);
  EXPECT_EQ(value(obs::MetricId::kEvqDepthPeak), g.depth_peak);
  EXPECT_EQ(value(obs::MetricId::kEvqDepth), 0u);
  EXPECT_EQ(gaps.count, g.gap_count);
  EXPECT_EQ(gaps.sum, g.gap_sum);
  EXPECT_EQ(report.total_simulation_time,
            static_cast<Tick>(g.gap_sum));  // gaps telescope to the end tick
  return report;
}

TEST(GoldenEventCounters, Seed42FullMode) {
  SimulationConfig config;
  config.mode = sched::ReconfigMode::kFull;
  (void)ExpectEventCounters(
      std::move(config),
      EventCounters{1999, 1999, 0, 0, 3998, 1000, 1999, 305126});
}

TEST(GoldenEventCounters, Seed42PartialMode) {
  SimulationConfig config;
  config.mode = sched::ReconfigMode::kPartial;
  (void)ExpectEventCounters(
      std::move(config),
      EventCounters{1999, 1999, 0, 0, 3998, 1000, 1999, 187696});
}

// MTBF faults: node failures cancel the killed tasks' completions, and the
// end of the workload cancels every node's pending failure/repair renewal,
// so cancelled and lazily dropped events both appear.
TEST(GoldenEventCounters, Seed42PartialModeWithFaults) {
  SimulationConfig config;
  config.mode = sched::ReconfigMode::kPartial;
  config.faults.mtbf = 150'000;
  config.faults.mttr = 5'000;
  const MetricsReport report = ExpectEventCounters(
      std::move(config),
      EventCounters{3798, 3146, 652, 452, 7396, 1200, 3146, 424341});
  EXPECT_GT(report.tasks_killed, 0u);  // completions were cancelled
}

}  // namespace
}  // namespace dreamsim::core
