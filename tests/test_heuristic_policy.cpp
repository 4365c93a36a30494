// Tests for the baseline scheduling policies.
#include "sched/heuristic_policy.hpp"

#include <gtest/gtest.h>

#include <set>

#include "analysis/structure_auditor.hpp"

namespace dreamsim::sched {
namespace {

using resource::ConfigCatalogue;
using resource::Configuration;
using resource::EntryRef;
using resource::ResourceStore;
using resource::Task;

ConfigCatalogue MakeCatalogue(std::initializer_list<Area> areas) {
  ConfigCatalogue c;
  for (const Area a : areas) {
    Configuration cfg;
    cfg.required_area = a;
    cfg.config_time = 10;
    c.Add(cfg);
  }
  return c;
}

Task MakeTask(std::uint32_t preferred, Area area, std::uint32_t id = 0) {
  Task t;
  t.id = TaskId{id};
  t.preferred_config = ConfigId{preferred};
  t.needed_area = area;
  t.required_time = 100;
  return t;
}

TEST(HeuristicNames, AllDistinct) {
  std::set<std::string_view> names;
  for (const Heuristic h :
       {Heuristic::kFirstFit, Heuristic::kBestFit, Heuristic::kWorstFit,
        Heuristic::kRandomFit, Heuristic::kRoundRobin,
        Heuristic::kLeastLoaded}) {
    names.insert(ToString(h));
  }
  EXPECT_EQ(names.size(), 6u);
}

class HeuristicFixture : public ::testing::Test {
 protected:
  HeuristicFixture() : store_(MakeCatalogue({300, 500})) {
    n1_ = store_.AddNode(1000);
    n2_ = store_.AddNode(2000);
    n3_ = store_.AddNode(4000);
  }
  ResourceStore store_;
  NodeId n1_, n2_, n3_;
};

class FirstFitTest : public HeuristicFixture {};

TEST_F(FirstFitTest, TakesFirstFeasibleNode) {
  HeuristicPolicy policy(Heuristic::kFirstFit);
  const Decision d = policy.Schedule(MakeTask(0, 300), store_);
  EXPECT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_EQ(d.entry.node, n1_);
  const analysis::AuditReport audit =
      analysis::StructureAuditor::AuditStore(store_);
  EXPECT_TRUE(audit.ok()) << audit.Render();
}

TEST_F(FirstFitTest, PrefersIdleEntryOverNewConfiguration) {
  HeuristicPolicy policy(Heuristic::kFirstFit);
  (void)store_.Configure(n3_, ConfigId{0});
  const Decision d = policy.Schedule(MakeTask(0, 300), store_);
  EXPECT_EQ(d.kind, PlacementKind::kAllocation);
  EXPECT_EQ(d.entry.node, n3_);
  EXPECT_EQ(d.config_time, 0);
}

class BestFitTest : public HeuristicFixture {};

TEST_F(BestFitTest, PicksMinimalLeftoverNode) {
  HeuristicPolicy policy(Heuristic::kBestFit);
  const Decision d = policy.Schedule(MakeTask(1, 500), store_);
  EXPECT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_EQ(d.entry.node, n1_);  // 1000 is the tightest
}

class WorstFitTest : public HeuristicFixture {};

TEST_F(WorstFitTest, PicksLargestLeftoverNode) {
  HeuristicPolicy policy(Heuristic::kWorstFit);
  const Decision d = policy.Schedule(MakeTask(1, 500), store_);
  EXPECT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_EQ(d.entry.node, n3_);  // 4000 is the roomiest
}

class RoundRobinTest : public HeuristicFixture {};

TEST_F(RoundRobinTest, RotatesAcrossNodes) {
  HeuristicPolicy policy(Heuristic::kRoundRobin);
  std::vector<std::uint32_t> picks;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const Decision d = policy.Schedule(MakeTask(0, 300, i), store_);
    ASSERT_EQ(d.outcome, Outcome::kPlaced);
    picks.push_back(d.entry.node.value());
  }
  // Each placement advances the cursor past the chosen node.
  EXPECT_EQ(picks, (std::vector<std::uint32_t>{0, 1, 2}));
}

class RandomFitTest : public HeuristicFixture {};

TEST_F(RandomFitTest, DeterministicPerSeedAndSpreads) {
  HeuristicPolicy a(Heuristic::kRandomFit, 5);
  HeuristicPolicy b(Heuristic::kRandomFit, 5);
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < 12; ++i) {
    ResourceStore sa(MakeCatalogue({300}));
    ResourceStore sb(MakeCatalogue({300}));
    for (int n = 0; n < 3; ++n) {
      (void)sa.AddNode(1000);
      (void)sb.AddNode(1000);
    }
    const Decision da = a.Schedule(MakeTask(0, 300, i), sa);
    const Decision db = b.Schedule(MakeTask(0, 300, i), sb);
    ASSERT_EQ(da.outcome, Outcome::kPlaced);
    EXPECT_EQ(da.entry.node, db.entry.node);
    seen.insert(da.entry.node.value());
  }
  EXPECT_GT(seen.size(), 1u);  // actually randomizes
}

class LeastLoadedTest : public HeuristicFixture {};

TEST_F(LeastLoadedTest, AvoidsBusyNodes) {
  HeuristicPolicy policy(Heuristic::kLeastLoaded);
  // Load up n1 and n2 with running tasks.
  const EntryRef e1 = store_.Configure(n1_, ConfigId{0});
  store_.AssignTask(e1, TaskId{90});
  const EntryRef e2 = store_.Configure(n2_, ConfigId{0});
  store_.AssignTask(e2, TaskId{91});
  const Decision d = policy.Schedule(MakeTask(1, 500, 1), store_);
  ASSERT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_EQ(d.entry.node, n3_);  // zero running tasks
}

TEST(HeuristicPolicy, ReclaimPathWhenNoSpareArea) {
  ResourceStore store(MakeCatalogue({300, 500}));
  const NodeId node = store.AddNode(600);
  const EntryRef busy = store.Configure(node, ConfigId{0});  // 300 busy
  store.AssignTask(busy, TaskId{99});
  (void)store.Configure(node, ConfigId{0});  // 300 idle; avail 0

  HeuristicPolicy policy(Heuristic::kFirstFit);
  // Wants 500: no idle entry with config 1, no spare area anywhere, but
  // reclaiming the idle 300-entry frees 300 -> 300 avail < 500? avail was
  // 0; reclaim gives 300 -> still short. Expect suspend (busy node total
  // 600 >= 500).
  const Decision d = policy.Schedule(MakeTask(1, 500, 1), store);
  EXPECT_EQ(d.outcome, Outcome::kSuspend);

  // A 300-area task CAN be placed via allocation on the idle entry.
  const Decision d2 = policy.Schedule(MakeTask(0, 300, 2), store);
  EXPECT_EQ(d2.outcome, Outcome::kPlaced);
  EXPECT_EQ(d2.kind, PlacementKind::kAllocation);
}

TEST(HeuristicPolicy, PartialReconfigurationViaAlgorithm1) {
  ResourceStore store(MakeCatalogue({300, 500}));
  const NodeId node = store.AddNode(800);
  const EntryRef idle_a = store.Configure(node, ConfigId{0});  // 300
  (void)idle_a;
  (void)store.Configure(node, ConfigId{0});  // 300; avail 200

  HeuristicPolicy policy(Heuristic::kFirstFit);
  // Wants 500: spare 200 < 500; reclaim one idle 300 -> 500. Fits.
  const Decision d = policy.Schedule(MakeTask(1, 500, 1), store);
  EXPECT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_EQ(d.kind, PlacementKind::kPartialReconfiguration);
  const analysis::AuditReport audit =
      analysis::StructureAuditor::AuditStore(store);
  EXPECT_TRUE(audit.ok()) << audit.Render();
}

TEST(HeuristicPolicy, DiscardWhenNothingEverFits) {
  ResourceStore store(MakeCatalogue({300}));
  (void)store.AddNode(250);  // smaller than every config
  HeuristicPolicy policy(Heuristic::kBestFit);
  const Decision d = policy.Schedule(MakeTask(0, 300, 1), store);
  EXPECT_EQ(d.outcome, Outcome::kDiscard);
}

TEST(HeuristicPolicy, ClosestMatchFlagPropagates) {
  ResourceStore store(MakeCatalogue({300, 500}));
  (void)store.AddNode(1000);
  HeuristicPolicy policy(Heuristic::kFirstFit);
  Task t;
  t.id = TaskId{1};
  t.preferred_config = ConfigId::invalid();
  t.needed_area = 400;
  t.required_time = 100;
  const Decision d = policy.Schedule(t, store);
  EXPECT_EQ(d.outcome, Outcome::kPlaced);
  EXPECT_TRUE(d.used_closest_match);
  EXPECT_EQ(d.config, ConfigId{1});
}

}  // namespace
}  // namespace dreamsim::sched
