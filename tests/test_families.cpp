// Tests for device-family bitstream compatibility (the `family` of Eq. 1:
// "a device family defines the group of compatible nodes") and for the
// closest-match execution slowdown.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>

#include "core/simulator.hpp"
#include "sched/dreamsim_policy.hpp"
#include "task_times.hpp"

namespace dreamsim {
namespace {

using resource::Caps;
using resource::ConfigCatalogue;
using resource::Configuration;
using resource::EntryRef;
using resource::ResourceStore;

Configuration FamilyConfig(std::uint32_t id, Area area, std::uint32_t family) {
  Configuration c;
  c.id = ConfigId{id};
  c.required_area = area;
  c.config_time = 10;
  c.family = FamilyId{family};
  return c;
}

TEST(FamilyCompatibility, UniversalConfigMatchesEverything) {
  Configuration c;
  c.required_area = 100;
  EXPECT_TRUE(c.CompatibleWith(FamilyId{0}));
  EXPECT_TRUE(c.CompatibleWith(FamilyId{7}));
}

TEST(FamilyCompatibility, FamilyBoundConfigMatchesOnlyItsFamily) {
  const Configuration c = FamilyConfig(0, 100, 2);
  EXPECT_TRUE(c.CompatibleWith(FamilyId{2}));
  EXPECT_FALSE(c.CompatibleWith(FamilyId{0}));
  EXPECT_FALSE(c.CompatibleWith(FamilyId{3}));
}

TEST(FamilyCompatibility, GenerateAssignsFamiliesRoundRobin) {
  resource::ConfigGenParams params;
  params.count = 10;
  params.family_count = 3;
  Rng rng(3);
  const auto catalogue = ConfigCatalogue::Generate(
      params, ptype::Catalogue::Default(), rng);
  EXPECT_EQ(catalogue.Get(ConfigId{0}).family, FamilyId{0});
  EXPECT_EQ(catalogue.Get(ConfigId{1}).family, FamilyId{1});
  EXPECT_EQ(catalogue.Get(ConfigId{2}).family, FamilyId{2});
  EXPECT_EQ(catalogue.Get(ConfigId{3}).family, FamilyId{0});
}

TEST(FamilyCompatibility, SingleFamilyKeepsConfigsUniversal) {
  resource::ConfigGenParams params;
  params.count = 5;
  params.family_count = 1;
  Rng rng(3);
  const auto catalogue = ConfigCatalogue::Generate(
      params, ptype::Catalogue::Default(), rng);
  for (const Configuration& c : catalogue.all()) {
    EXPECT_FALSE(c.family.valid());
  }
}

TEST(FamilyCompatibility, ConfigureRejectsWrongFamily) {
  ConfigCatalogue catalogue;
  catalogue.Add(FamilyConfig(0, 300, 1));
  ResourceStore store(std::move(catalogue));
  const NodeId wrong = store.AddNode(1000, FamilyId{0});
  const NodeId right = store.AddNode(1000, FamilyId{1});
  EXPECT_THROW((void)store.Configure(wrong, ConfigId{0}), std::logic_error);
  EXPECT_NO_THROW((void)store.Configure(right, ConfigId{0}));
}

TEST(FamilyCompatibility, QueriesFilterByFamily) {
  ConfigCatalogue catalogue;
  catalogue.Add(FamilyConfig(0, 300, 1));
  ResourceStore store(std::move(catalogue));
  (void)store.AddNode(1000, FamilyId{0});   // incompatible, bigger
  const NodeId right = store.AddNode(900, FamilyId{1});

  const auto blank = store.FindBestBlankNode(300, FamilyId{1});
  ASSERT_TRUE(blank.has_value());
  EXPECT_EQ(*blank, right);
  EXPECT_FALSE(store.FindBestBlankNode(300, FamilyId{5}).has_value());
  EXPECT_FALSE(store.AnyBusyNodeCouldFit(300, FamilyId{1}));

  const auto plan = store.FindAnyIdleNode(300, FamilyId{1});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->node, right);
}

TEST(FamilyCompatibility, PolicyPlacesOnlyOnCompatibleNodes) {
  ConfigCatalogue catalogue;
  catalogue.Add(FamilyConfig(0, 300, 0));
  catalogue.Add(FamilyConfig(1, 300, 1));
  ResourceStore store(std::move(catalogue));
  const NodeId family0 = store.AddNode(4000, FamilyId{0});
  const NodeId family1 = store.AddNode(1000, FamilyId{1});

  sched::DreamSimPolicy policy(sched::ReconfigMode::kPartial);
  resource::TaskSpec spec;
  spec.preferred_config = ConfigId{1};
  spec.needed_area = 300;
  spec.required_time = 100;

  const sched::Decision d = policy.Schedule(TaskId{1}, spec, store);
  ASSERT_EQ(d.outcome, sched::Outcome::kPlaced);
  EXPECT_EQ(d.entry.node, family1);  // the big family-0 node is off limits
  (void)family0;
}

TEST(FamilyCompatibility, EndToEndSimulationWithFamilies) {
  core::SimulationConfig config;
  config.nodes.count = 20;
  config.nodes.family_count = 4;
  config.configs.count = 12;
  config.configs.family_count = 4;
  config.tasks.total_tasks = 500;
  config.seed = 19;
  core::Simulator sim(std::move(config));
  const core::MetricsReport report = sim.Run();
  EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 500u);
  const analysis::AuditReport audit = sim.AuditStructures();
  EXPECT_TRUE(audit.ok()) << audit.Render();
  // Spot-check: every configuration landed on a compatible node.
  for (const resource::Node& n : sim.store().nodes()) {
    n.ForEachSlot([&](resource::SlotIndex,
                      const resource::ConfigTaskPair& pair) {
      EXPECT_TRUE(
          sim.store().configs().Get(pair.config).CompatibleWith(n.family()));
    });
  }
}

TEST(FamilyCompatibility, MoreFamiliesMeanMoreContention) {
  // Splitting nodes/configs into incompatible groups shrinks each task's
  // candidate set; waiting cannot improve.
  double waits[2];
  int i = 0;
  for (const int families : {1, 4}) {
    core::SimulationConfig config;
    config.nodes.count = 40;
    config.nodes.family_count = families;
    config.configs.count = 12;
    config.configs.family_count = families;
    config.tasks.total_tasks = 1500;
    config.seed = 23;
    core::Simulator sim(std::move(config));
    waits[i++] = sim.Run().avg_waiting_time_per_task;
  }
  EXPECT_GE(waits[1], waits[0] * 0.9);  // allow noise, expect >= roughly
}

// ---- Closest-match slowdown ----

TEST(ClosestMatchSlowdown, StretchesExecutionOnClosestMatch) {
  const auto run = [](double slowdown) {
    core::SimulationConfig config;
    config.nodes.count = 40;
    config.configs.count = 10;
    config.tasks.total_tasks = 400;
    config.tasks.closest_match_fraction = 0.5;  // plenty of affected tasks
    config.seed = 29;
    config.closest_match_slowdown = slowdown;
    core::Simulator sim(std::move(config));
    return sim.Run();
  };
  const core::MetricsReport baseline = run(1.0);
  const core::MetricsReport slowed = run(2.0);
  EXPECT_EQ(baseline.completed_tasks, slowed.completed_tasks);
  // Longer executions => longer turnaround and total simulation time.
  EXPECT_GT(slowed.avg_task_running_time, baseline.avg_task_running_time);
  EXPECT_GT(slowed.total_simulation_time, baseline.total_simulation_time);
}

TEST(ClosestMatchSlowdown, DefaultReproducesPaperTiming) {
  core::SimulationConfig config;
  config.nodes.count = 20;
  config.configs.count = 8;
  config.tasks.total_tasks = 200;
  config.seed = 31;
  core::Simulator sim(std::move(config));
  const testtimes::TaskTimeLog log(sim);
  (void)sim.Run();
  ASSERT_FALSE(log.completions().empty());
  for (const TaskId id : log.completions()) {
    const testtimes::TaskTimes& times = log[id];
    EXPECT_EQ(times.completed,
              times.ready() + sim.tasks().Spec(id).required_time);
  }
}

TEST(ClosestMatchSlowdown, RejectsValuesOutsideTheFiniteRange) {
  // A NaN, infinite, sub-1 or oversized slowdown used to reach a
  // double-to-Tick cast whose result is undefined.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, 0.0, -2.0, 0.999, 1e300,
                           core::kMaxClosestMatchSlowdown * 2}) {
    core::SimulationConfig config;
    config.closest_match_slowdown = bad;
    EXPECT_THROW(core::Simulator sim(std::move(config)),
                 std::invalid_argument)
        << bad;
  }
  for (const double good : {1.0, core::kMaxClosestMatchSlowdown}) {
    core::SimulationConfig config;
    config.closest_match_slowdown = good;
    EXPECT_NO_THROW(core::Simulator sim(std::move(config))) << good;
  }
}

/// Runs one closest-match task (its C_pref is not in the catalogue) with
/// `required` ticks alone under `slowdown`; returns its final state and
/// its placement and completion times.
std::pair<resource::Task, testtimes::TaskTimes> RunOneClosestMatchTask(
    Tick required, double slowdown) {
  core::SimulationConfig config;
  config.nodes.count = 4;
  config.tasks.total_tasks = 0;
  config.closest_match_slowdown = slowdown;
  core::Simulator sim(std::move(config));
  workload::GeneratedTask task;
  task.needed_area = 500;
  task.required_time = required;
  const testtimes::TaskTimeLog log(sim);
  const TaskId id = sim.SubmitTaskAt(task, 0);
  (void)sim.RunWithWorkload({});
  return {sim.tasks().Get(id), log[id]};
}

TEST(ClosestMatchSlowdown, LargeStretchIsExactOrThrowsPastTheTickRange) {
  const Tick required = Tick{1} << 40;
  const auto [t, times] =
      RunOneClosestMatchTask(required, core::kMaxClosestMatchSlowdown);
  ASSERT_EQ(t.state, resource::TaskState::kCompleted);
  EXPECT_EQ(times.completed, times.ready() + required * 1000);
  EXPECT_EQ(times.slot_ready, times.ready());
  // 2^62 x 4 leaves the Tick range: a diagnostic, never a wrapped time.
  EXPECT_THROW((void)RunOneClosestMatchTask(Tick{1} << 62, 4.0),
               std::overflow_error);
}

}  // namespace
}  // namespace dreamsim
