// Unit tests for the multi-class workload generator: per-class seed
// streams, the deterministic k-way merge, arrival shapes, chains, and the
// validator. The bit-identity contract with GenerateWorkload is pinned
// separately in test_scenario_diff.cpp.
#include "workload/task_classes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "ptype/catalogue.hpp"
#include "workload/generator.hpp"

namespace dreamsim::workload {
namespace {

resource::ConfigCatalogue MakeConfigs(int count, std::uint64_t seed) {
  Rng rng(seed);
  resource::ConfigGenParams params;
  params.count = count;
  return resource::ConfigCatalogue::Generate(params,
                                             ptype::Catalogue::Default(), rng);
}

TaskClassParams Steady(const char* name, int tasks) {
  TaskClassParams p;
  p.name = name;
  p.base.total_tasks = tasks;
  return p;
}

TEST(TaskClasses, IsPlainSteadyMatchesTheDelegationContract) {
  TaskClassParams p = Steady("s", 100);
  EXPECT_TRUE(IsPlainSteady(p));
  p.start_time = 10;
  EXPECT_FALSE(IsPlainSteady(p));
  p.start_time = 0;
  p.graph_fraction = 0.5;
  EXPECT_FALSE(IsPlainSteady(p));
  p.graph_fraction = 0.0;
  p.shape = ArrivalShape::kBursty;
  EXPECT_FALSE(IsPlainSteady(p));
}

TEST(TaskClasses, MergeIsNonDecreasingAndClassTagged) {
  const auto configs = MakeConfigs(10, 3);
  const auto wl = GenerateMultiClassWorkload(
      std::vector<TaskClassParams>{Steady("a", 50), Steady("b", 70)}, configs,
      11);
  ASSERT_EQ(wl.tasks.size(), 120u);
  ASSERT_EQ(wl.class_of.size(), 120u);
  for (std::size_t i = 1; i < wl.tasks.size(); ++i) {
    EXPECT_LE(wl.tasks[i - 1].create_time, wl.tasks[i].create_time);
  }
  EXPECT_EQ(std::count(wl.class_of.begin(), wl.class_of.end(), 0u), 50);
  EXPECT_EQ(std::count(wl.class_of.begin(), wl.class_of.end(), 1u), 70);
}

TEST(TaskClasses, SameTickArrivalsMergeLowestClassFirst) {
  // Two identical classes with explicit equal seeds produce identical
  // timelines; ties must break to the lower class index, making the merge
  // fully deterministic.
  TaskClassParams a = Steady("a", 30);
  TaskClassParams b = Steady("b", 30);
  a.seed = 5;
  b.seed = 5;
  const auto configs = MakeConfigs(10, 3);
  const auto wl = GenerateMultiClassWorkload(
      std::vector<TaskClassParams>{a, b}, configs, 11);
  ASSERT_EQ(wl.tasks.size(), 60u);
  for (std::size_t i = 1; i < wl.tasks.size(); ++i) {
    if (wl.tasks[i - 1].create_time == wl.tasks[i].create_time) {
      EXPECT_LE(wl.class_of[i - 1], wl.class_of[i]);
    }
  }
}

TEST(TaskClasses, ExplicitSeedIsolatesAClassStream) {
  // Re-rolling class b's seed must not disturb class a's draws.
  const auto configs = MakeConfigs(10, 3);
  TaskClassParams a = Steady("a", 40);
  a.seed = 100;
  TaskClassParams b = Steady("b", 40);
  b.seed = 200;
  const auto before = GenerateMultiClassWorkload(
      std::vector<TaskClassParams>{a, b}, configs, 11);
  b.seed = 201;
  const auto after = GenerateMultiClassWorkload(
      std::vector<TaskClassParams>{a, b}, configs, 11);

  auto extract = [](const MultiClassWorkload& wl, std::uint32_t cls) {
    std::vector<GeneratedTask> out;
    for (std::size_t i = 0; i < wl.tasks.size(); ++i) {
      if (wl.class_of[i] == cls) out.push_back(wl.tasks[i]);
    }
    return out;
  };
  const auto a_before = extract(before, 0);
  const auto a_after = extract(after, 0);
  ASSERT_EQ(a_before.size(), a_after.size());
  for (std::size_t i = 0; i < a_before.size(); ++i) {
    EXPECT_EQ(a_before[i].create_time, a_after[i].create_time);
    EXPECT_EQ(a_before[i].required_time, a_after[i].required_time);
    EXPECT_EQ(a_before[i].needed_area, a_after[i].needed_area);
  }
  // And b's stream really did change.
  const auto b_before = extract(before, 1);
  const auto b_after = extract(after, 1);
  bool b_changed = b_before.size() != b_after.size();
  for (std::size_t i = 0; !b_changed && i < b_before.size(); ++i) {
    b_changed = b_before[i].create_time != b_after[i].create_time ||
                b_before[i].required_time != b_after[i].required_time;
  }
  EXPECT_TRUE(b_changed);
}

TEST(TaskClasses, GenerationIsDeterministic) {
  const auto configs = MakeConfigs(10, 3);
  TaskClassParams burst = Steady("burst", 60);
  burst.shape = ArrivalShape::kBursty;
  burst.min_burst = 2;
  burst.max_burst = 6;
  burst.min_burst_gap = 100;
  burst.max_burst_gap = 500;
  const std::vector<TaskClassParams> classes{Steady("a", 40), burst};
  const auto x = GenerateMultiClassWorkload(classes, configs, 77);
  const auto y = GenerateMultiClassWorkload(classes, configs, 77);
  ASSERT_EQ(x.tasks.size(), y.tasks.size());
  for (std::size_t i = 0; i < x.tasks.size(); ++i) {
    EXPECT_EQ(x.tasks[i].create_time, y.tasks[i].create_time);
    EXPECT_EQ(x.tasks[i].required_time, y.tasks[i].required_time);
    EXPECT_EQ(x.class_of[i], y.class_of[i]);
  }
}

TEST(TaskClasses, StartTimeDelaysTheFirstArrival) {
  const auto configs = MakeConfigs(10, 3);
  TaskClassParams late = Steady("late", 20);
  late.start_time = 5000;
  const auto wl = GenerateMultiClassWorkload(
      std::vector<TaskClassParams>{late}, configs, 9);
  ASSERT_FALSE(wl.tasks.empty());
  EXPECT_GT(wl.tasks.front().create_time, 5000);
}

TEST(TaskClasses, WindowedClassStopsAtItsEndTime) {
  const auto configs = MakeConfigs(10, 3);
  TaskClassParams windowed;
  windowed.name = "w";
  windowed.shape = ArrivalShape::kWindowed;
  windowed.base.total_tasks = 0;  // end-time budget, no count cap
  windowed.start_time = 100;
  windowed.end_time = 2000;
  const auto wl = GenerateMultiClassWorkload(
      std::vector<TaskClassParams>{windowed}, configs, 9);
  ASSERT_FALSE(wl.tasks.empty());
  for (const auto& task : wl.tasks) {
    EXPECT_GT(task.create_time, 100);
    EXPECT_LE(task.create_time, 2000);
  }
}

TEST(TaskClasses, BurstyClassClumpsArrivals) {
  const auto configs = MakeConfigs(10, 3);
  TaskClassParams burst = Steady("burst", 100);
  burst.shape = ArrivalShape::kBursty;
  burst.min_burst = 5;
  burst.max_burst = 5;
  burst.min_burst_gap = 10000;
  burst.max_burst_gap = 10000;
  burst.base.min_interval = 1;
  burst.base.max_interval = 2;
  const auto wl = GenerateMultiClassWorkload(
      std::vector<TaskClassParams>{burst}, configs, 9);
  ASSERT_EQ(wl.tasks.size(), 100u);
  // Exactly every 5th gap is the large inter-burst one.
  int large_gaps = 0;
  for (std::size_t i = 1; i < wl.tasks.size(); ++i) {
    const Tick gap = wl.tasks[i].create_time - wl.tasks[i - 1].create_time;
    if (gap >= 10000) ++large_gaps;
  }
  EXPECT_EQ(large_gaps, 19);  // 20 bursts of 5 => 19 inter-burst gaps
}

TEST(TaskClasses, ChainsHeadIntoTheTimeline) {
  const auto configs = MakeConfigs(10, 3);
  TaskClassParams chained = Steady("chained", 100);
  chained.graph_fraction = 1.0;  // every arrival heads a chain
  chained.min_chain = 3;
  chained.max_chain = 3;
  const auto wl = GenerateMultiClassWorkload(
      std::vector<TaskClassParams>{chained}, configs, 9);
  EXPECT_EQ(wl.tasks.size(), 100u);
  ASSERT_EQ(wl.chains.size(), 100u);
  std::set<std::size_t> heads;
  for (const auto& chain : wl.chains) {
    EXPECT_EQ(chain.links.size(), 2u);  // head + 2 successors = length 3
    EXPECT_LT(chain.head_index, wl.tasks.size());
    heads.insert(chain.head_index);
  }
  EXPECT_EQ(heads.size(), wl.chains.size());  // one chain per head
  // Chains are sorted by head index for the simulator's merge cursor.
  for (std::size_t i = 1; i < wl.chains.size(); ++i) {
    EXPECT_LT(wl.chains[i - 1].head_index, wl.chains[i].head_index);
  }
  EXPECT_EQ(wl.TotalTasks(), 300u);
}

TEST(TaskClasses, PriorityRangeOnlyDrawsWhenSpread) {
  const auto configs = MakeConfigs(10, 3);
  TaskClassParams ranked = Steady("ranked", 50);
  ranked.min_priority = 0.25;
  ranked.max_priority = 0.75;
  const auto wl = GenerateMultiClassWorkload(
      std::vector<TaskClassParams>{ranked}, configs, 9);
  for (const auto& task : wl.tasks) {
    EXPECT_GE(task.priority, 0.25);
    EXPECT_LE(task.priority, 0.75);
  }
}

TEST(TaskClasses, ValidatorRejectsNonsense) {
  TaskClassParams p = Steady("bad", 0);
  EXPECT_FALSE(ValidateTaskClass(p).empty());  // no budget at all

  p = Steady("bad", 10);
  p.graph_fraction = 2.0;
  EXPECT_FALSE(ValidateTaskClass(p).empty());

  p = Steady("bad", 10);
  p.base.closest_match_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ValidateTaskClass(p).empty());

  p = Steady("bad", 10);
  p.shape = ArrivalShape::kWindowed;
  EXPECT_FALSE(ValidateTaskClass(p).empty());  // windowed needs end_time

  p = Steady("bad", 10);
  p.min_chain = 1;  // a chain of one is not a chain
  p.graph_fraction = 0.5;
  EXPECT_FALSE(ValidateTaskClass(p).empty());

  EXPECT_TRUE(ValidateTaskClass(Steady("good", 10)).empty());
}

// `min > max` is false for NaN, so the range check alone let a NaN
// priority through to the task store; a non-finite bound is an error.
TEST(TaskClasses, ValidatorRejectsANonFinitePriorityRange) {
  const auto configs = MakeConfigs(10, 3);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (const bool at_min : {true, false}) {
      TaskClassParams p = Steady("bad", 10);
      (at_min ? p.min_priority : p.max_priority) = bad;
      if (!at_min) p.min_priority = 1.0;
      const std::vector<std::string> violations = ValidateTaskClass(p);
      ASSERT_EQ(violations.size(), 1u) << "bad " << bad << " at_min " << at_min;
      EXPECT_EQ(violations[0], "task class 'bad': priority range must be finite");
      EXPECT_THROW((void)GenerateMultiClassWorkload(
                       std::vector<TaskClassParams>{p}, configs, 1),
                   std::invalid_argument);
    }
  }
}

TEST(TaskClasses, GeneratorThrowsOnInvalidInput) {
  const auto configs = MakeConfigs(10, 3);
  EXPECT_THROW((void)GenerateMultiClassWorkload(
                   std::vector<TaskClassParams>{}, configs, 1),
               std::invalid_argument);
  TaskClassParams bad = Steady("bad", 0);
  EXPECT_THROW((void)GenerateMultiClassWorkload(
                   std::vector<TaskClassParams>{bad}, configs, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace dreamsim::workload
