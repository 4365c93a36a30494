// Tests for the ResourceStore: counted scheduler queries, mutations, and —
// most importantly — the structural invariants of the Fig. 3 data
// structures under randomized operation sequences.
#include "resource/store.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/structure_auditor.hpp"
#include "rms/resource_info.hpp"
#include "util/rng.hpp"

namespace dreamsim::resource {
namespace {

ConfigCatalogue MakeCatalogue(std::initializer_list<Area> areas) {
  ConfigCatalogue c;
  std::uint32_t i = 0;
  for (const Area a : areas) {
    Configuration cfg;
    cfg.required_area = a;
    cfg.config_time = 10 + static_cast<Tick>(i++);
    c.Add(cfg);
  }
  return c;
}

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() : store_(MakeCatalogue({300, 500, 800})) {
    node_a_ = store_.AddNode(1000);
    node_b_ = store_.AddNode(2000);
    node_c_ = store_.AddNode(4000);
  }

  void ExpectConsistent() {
    const analysis::AuditReport audit =
        analysis::StructureAuditor::AuditStore(store_);
    EXPECT_TRUE(audit.ok()) << audit.Render();
  }

  ResourceStore store_;
  NodeId node_a_, node_b_, node_c_;
};

TEST_F(StoreTest, FreshStoreIsConsistent) {
  ExpectConsistent();
  EXPECT_EQ(store_.node_count(), 3u);
  EXPECT_EQ(store_.blank_node_count(), 3u);
  EXPECT_EQ(store_.TotalWastedArea(), 0);  // no configured nodes
}

TEST_F(StoreTest, ConfigureMovesNodeOutOfBlankList) {
  const EntryRef e = store_.Configure(node_a_, ConfigId{0});
  EXPECT_EQ(store_.blank_node_count(), 2u);
  EXPECT_EQ(store_.node(node_a_).available_area(), 700);
  EXPECT_EQ(store_.idle_list(ConfigId{0}).size(), 1u);
  EXPECT_TRUE(store_.node(e.node).Slot(e.slot).idle());
  ExpectConsistent();
}

TEST_F(StoreTest, ConfigureAreaOverflowThrows) {
  (void)store_.Configure(node_a_, ConfigId{2});  // 800 of 1000
  EXPECT_THROW((void)store_.Configure(node_a_, ConfigId{0}),
               std::logic_error);  // 300 > 200 left
  ExpectConsistent();
}

TEST_F(StoreTest, AssignAndReleaseMoveBetweenLists) {
  const EntryRef e = store_.Configure(node_a_, ConfigId{0});
  store_.AssignTask(e, TaskId{42});
  EXPECT_EQ(store_.idle_list(ConfigId{0}).size(), 0u);
  EXPECT_EQ(store_.busy_list(ConfigId{0}).size(), 1u);
  EXPECT_TRUE(store_.node(node_a_).busy());
  ExpectConsistent();

  const TaskId released = store_.ReleaseTask(e);
  EXPECT_EQ(released, TaskId{42});
  EXPECT_EQ(store_.idle_list(ConfigId{0}).size(), 1u);
  EXPECT_EQ(store_.busy_list(ConfigId{0}).size(), 0u);
  EXPECT_FALSE(store_.node(node_a_).busy());
  ExpectConsistent();
}

TEST_F(StoreTest, BusySlotCarriesItsReadyTickUntilRelease) {
  const EntryRef e = store_.Configure(node_a_, ConfigId{0});
  EXPECT_EQ(store_.node(node_a_).Slot(e.slot).ready_time, kNoTick);
  EXPECT_THROW(store_.SetReadyTime(e, 5), std::logic_error);  // idle
  store_.AssignTask(e, TaskId{7});
  EXPECT_EQ(store_.node(node_a_).Slot(e.slot).ready_time, kNoTick);
  EXPECT_THROW(store_.SetReadyTime(e, kNoTick), std::invalid_argument);
  store_.SetReadyTime(e, 25);
  EXPECT_EQ(store_.node(node_a_).Slot(e.slot).ready_time, 25);
  const std::uint64_t steps = store_.meter().total_workload();
  store_.SetReadyTime(e, 30);  // no list change, no charge
  EXPECT_EQ(store_.meter().total_workload(), steps);
  EXPECT_EQ(store_.ReleaseTask(e), TaskId{7});
  EXPECT_EQ(store_.node(node_a_).Slot(e.slot).ready_time, kNoTick);
  // A reused slot starts without a tick.
  store_.AssignTask(e, TaskId{8});
  EXPECT_EQ(store_.node(node_a_).Slot(e.slot).ready_time, kNoTick);
  ExpectConsistent();
}

TEST_F(StoreTest, ReclaimSlotRestoresAreaAndBlankList) {
  const EntryRef e = store_.Configure(node_a_, ConfigId{0});
  store_.ReclaimSlot(e);
  EXPECT_EQ(store_.node(node_a_).available_area(), 1000);
  EXPECT_EQ(store_.blank_node_count(), 3u);
  EXPECT_EQ(store_.idle_list(ConfigId{0}).size(), 0u);
  ExpectConsistent();
}

TEST_F(StoreTest, ReclaimBusySlotThrows) {
  const EntryRef e = store_.Configure(node_a_, ConfigId{0});
  store_.AssignTask(e, TaskId{1});
  EXPECT_THROW(store_.ReclaimSlot(e), std::logic_error);
}

TEST_F(StoreTest, BlankNodeRemovesAllIdleEntries) {
  (void)store_.Configure(node_c_, ConfigId{0});
  (void)store_.Configure(node_c_, ConfigId{1});
  store_.BlankNode(node_c_);
  EXPECT_TRUE(store_.node(node_c_).blank());
  EXPECT_EQ(store_.blank_node_count(), 3u);
  ExpectConsistent();
}

TEST_F(StoreTest, BlankNodeWithRunningTaskThrows) {
  const EntryRef e = store_.Configure(node_c_, ConfigId{0});
  store_.AssignTask(e, TaskId{1});
  EXPECT_THROW(store_.BlankNode(node_c_), std::logic_error);
}

TEST_F(StoreTest, FindBestIdleEntryPicksMinAvailableArea) {
  (void)store_.Configure(node_a_, ConfigId{0});  // avail 700
  (void)store_.Configure(node_c_, ConfigId{0});  // avail 3700
  const auto best = store_.FindBestIdleEntry(ConfigId{0});
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->node, node_a_);
}

TEST_F(StoreTest, FindBestIdleEntryIgnoresBusyEntries) {
  const EntryRef e = store_.Configure(node_a_, ConfigId{0});
  store_.AssignTask(e, TaskId{1});
  EXPECT_FALSE(store_.FindBestIdleEntry(ConfigId{0}).has_value());
}

TEST_F(StoreTest, FindBestBlankNodeTightestFit) {
  const auto best = store_.FindBestBlankNode(900);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, node_a_);  // 1000 is the tightest >= 900
  const auto big = store_.FindBestBlankNode(2500);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(*big, node_c_);
  EXPECT_FALSE(store_.FindBestBlankNode(5000).has_value());
}

TEST_F(StoreTest, FindBestPartiallyBlankNode) {
  (void)store_.Configure(node_b_, ConfigId{0});  // b: avail 1700
  (void)store_.Configure(node_c_, ConfigId{0});  // c: avail 3700
  const auto best = store_.FindBestPartiallyBlankNode(1000);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, node_b_);  // tightest sufficient spare area
  // Blank nodes are not "partially blank".
  const auto none = store_.FindBestPartiallyBlankNode(1800);
  ASSERT_TRUE(none.has_value());
  EXPECT_EQ(*none, node_c_);
}

TEST_F(StoreTest, FindAnyIdleNodeReclaimPlan) {
  // Fill node_a with two configs, both idle; no spare area for 800.
  (void)store_.Configure(node_a_, ConfigId{0});  // 300
  (void)store_.Configure(node_a_, ConfigId{1});  // 500; avail now 200
  const auto plan = store_.FindAnyIdleNode(800);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->node, node_a_);
  // 200 spare + 300 (slot 0) + 500 (slot 1) covers 800; the minimal prefix
  // in slot order needs both entries (200+300 = 500 < 800).
  EXPECT_EQ(plan->removable_entries.size(), 2u);
}

TEST_F(StoreTest, FindAnyIdleNodeSkipsBusyEntries) {
  const EntryRef e0 = store_.Configure(node_a_, ConfigId{0});
  (void)store_.Configure(node_a_, ConfigId{1});
  store_.AssignTask(e0, TaskId{1});
  // Only the idle 500-entry plus 200 spare: 700 < 800 -> must fail on a,
  // and other nodes are blank (not candidates for Algorithm 1 reclaim,
  // though their spare area path is FindBestPartiallyBlankNode's job).
  const auto plan = store_.FindAnyIdleNode(800);
  ASSERT_TRUE(plan.has_value());
  // Blank nodes b and c have avail >= 800 with zero reclaimed entries, so
  // Algorithm 1 legitimately returns one of them with an empty entry list.
  EXPECT_TRUE(plan->removable_entries.empty());
}

TEST_F(StoreTest, AnyBusyNodeCouldFit) {
  EXPECT_FALSE(store_.AnyBusyNodeCouldFit(500));  // nothing busy
  const EntryRef e = store_.Configure(node_c_, ConfigId{0});
  store_.AssignTask(e, TaskId{1});
  EXPECT_TRUE(store_.AnyBusyNodeCouldFit(3500));
  EXPECT_FALSE(store_.AnyBusyNodeCouldFit(4500));
}

TEST_F(StoreTest, WastedAreaMetrics) {
  (void)store_.Configure(node_a_, ConfigId{0});  // avail 700
  const EntryRef e = store_.Configure(node_b_, ConfigId{1});  // avail 1500
  EXPECT_EQ(store_.TotalWastedArea(), 700 + 1500);
  EXPECT_EQ(store_.TotalIdleWastedArea(), 700 + 1500);
  store_.AssignTask(e, TaskId{1});
  // b is busy now: still counted by Eq. 6, excluded by the idle variant.
  EXPECT_EQ(store_.TotalWastedArea(), 700 + 1500);
  EXPECT_EQ(store_.TotalIdleWastedArea(), 700);
}

TEST_F(StoreTest, ReconfigurationAggregates) {
  (void)store_.Configure(node_a_, ConfigId{0});
  const EntryRef e = store_.Configure(node_b_, ConfigId{0});
  store_.ReclaimSlot(e);
  (void)store_.Configure(node_b_, ConfigId{1});
  EXPECT_EQ(store_.TotalReconfigurations(), 3u);
  EXPECT_EQ(store_.UsedNodeCount(), 2u);
}

// -------- Fleet-wide aggregates (FleetTotals) vs a local node scan --------

/// The per-event node walks the FleetTotals block replaced, restated here
/// as the oracle.
struct ScannedTotals {
  std::size_t blank = 0;
  std::size_t busy = 0;
  std::size_t running = 0;
  Area fabric = 0;
  Area configured = 0;
  Area wasted = 0;
  Area idle_wasted = 0;
  std::uint64_t reconfigs = 0;
  std::size_t used = 0;
};

ScannedTotals ScanNodes(const ResourceStore& store) {
  ScannedTotals s;
  for (const Node& n : store.nodes()) {
    s.fabric += n.total_area();
    s.reconfigs += n.reconfig_count();
    if (n.reconfig_count() > 0) ++s.used;
    if (n.blank()) {
      ++s.blank;
      continue;
    }
    s.configured += n.total_area() - n.available_area();
    s.wasted += n.available_area();
    if (n.busy()) {
      ++s.busy;
      s.running += n.running_tasks();
    } else {
      s.idle_wasted += n.available_area();
    }
  }
  return s;
}

void ExpectAggregatesMatchScan(const ResourceStore& store,
                               const std::string& step) {
  SCOPED_TRACE(step);
  const ScannedTotals want = ScanNodes(store);
  EXPECT_EQ(store.TotalWastedArea(), want.wasted);
  EXPECT_EQ(store.TotalIdleWastedArea(), want.idle_wasted);
  EXPECT_EQ(store.TotalReconfigurations(), want.reconfigs);
  EXPECT_EQ(store.UsedNodeCount(), want.used);

  const rms::SystemSnapshot snap =
      rms::ResourceInformationManager(store).Snapshot(Tick{5});
  EXPECT_EQ(snap.at, Tick{5});
  EXPECT_EQ(snap.total_nodes, store.node_count());
  EXPECT_EQ(snap.blank_nodes, want.blank);
  // Failed nodes hold no configuration, so they count as blank.
  EXPECT_EQ(snap.blank_nodes,
            store.blank_node_count() + store.failed_node_count());
  EXPECT_EQ(snap.busy_nodes, want.busy);
  EXPECT_EQ(snap.running_tasks, want.running);
  EXPECT_EQ(snap.total_fabric_area, want.fabric);
  EXPECT_EQ(snap.configured_area, want.configured);
  EXPECT_EQ(snap.wasted_area, want.wasted);
  EXPECT_EQ(snap.area_utilization, static_cast<double>(want.configured) /
                                       static_cast<double>(want.fabric));

  const auto report = analysis::StructureAuditor::AuditStore(store);
  EXPECT_TRUE(report.ok()) << report.Render();
}

TEST_F(StoreTest, AggregatesTrackEveryMutation) {
  ExpectAggregatesMatchScan(store_, "fresh");
  const EntryRef a0 = store_.Configure(node_a_, ConfigId{0});
  ExpectAggregatesMatchScan(store_, "configure a");
  const EntryRef c0 = store_.Configure(node_c_, ConfigId{0});
  const EntryRef c1 = store_.Configure(node_c_, ConfigId{1});
  ExpectAggregatesMatchScan(store_, "configure c twice");
  store_.AssignTask(c0, TaskId{1});
  store_.AssignTask(c1, TaskId{2});
  ExpectAggregatesMatchScan(store_, "assign two tasks on c");
  store_.AssignTask(a0, TaskId{3});
  ExpectAggregatesMatchScan(store_, "assign on a");
  EXPECT_EQ(store_.ReleaseTask(a0), TaskId{3});
  ExpectAggregatesMatchScan(store_, "release on a");
  EXPECT_EQ(store_.ReleaseTask(c1), TaskId{2});
  ExpectAggregatesMatchScan(store_, "release one of c");
  store_.ReclaimSlot(c1);
  ExpectAggregatesMatchScan(store_, "reclaim on c");
  (void)store_.Configure(node_b_, ConfigId{2});
  ExpectAggregatesMatchScan(store_, "configure b");
  store_.BlankNode(node_b_);
  ExpectAggregatesMatchScan(store_, "blank b");
  store_.ReclaimSlot(a0);
  ExpectAggregatesMatchScan(store_, "reclaim a's last slot");

  // A failed blank node stays blank in the snapshot but leaves the blank
  // list; a failed busy node drops its configurations and tasks.
  EXPECT_TRUE(store_.FailNode(node_b_).empty());
  ASSERT_EQ(store_.failed_node_count(), 1u);
  EXPECT_EQ(store_.blank_node_count(), 1u);
  ExpectAggregatesMatchScan(store_, "fail blank b");
  store_.SetReadyTime(c0, 40);
  const std::vector<KilledTask> killed = store_.FailNode(node_c_);
  ASSERT_EQ(killed.size(), 1u);
  EXPECT_EQ(killed[0].task, TaskId{1});
  EXPECT_EQ(killed[0].config, ConfigId{0});
  EXPECT_EQ(killed[0].ready_time, 40);
  ExpectAggregatesMatchScan(store_, "fail busy c");
  store_.RepairNode(node_b_);
  ExpectAggregatesMatchScan(store_, "repair b");
  store_.RepairNode(node_c_);
  (void)store_.Configure(node_c_, ConfigId{2});
  ExpectAggregatesMatchScan(store_, "repair and reconfigure c");
}

TEST(StoreExceptionSafety, ThrowingMutationsLeaveTotalsUntouched) {
  ConfigCatalogue catalogue = MakeCatalogue({300, 500, 800});
  Configuration foreign;
  foreign.required_area = 200;
  foreign.family = FamilyId{1};  // every node below is family 0
  const ConfigId foreign_id = catalogue.Add(foreign);
  ResourceStore store(std::move(catalogue));
  const NodeId busy = store.AddNode(1000);
  const NodeId healthy = store.AddNode(2000);
  const NodeId failed = store.AddNode(4000);
  const EntryRef running = store.Configure(busy, ConfigId{0});
  store.AssignTask(running, TaskId{1});
  (void)store.Configure(healthy, ConfigId{1});
  (void)store.FailNode(failed);
  const FleetTotals before = store.fleet_totals();

  const auto expect_untouched = [&](const char* what) {
    SCOPED_TRACE(what);
    EXPECT_TRUE(store.fleet_totals() == before);
    const auto report = analysis::StructureAuditor::AuditStore(store);
    EXPECT_TRUE(report.ok()) << report.Render();
  };
  EXPECT_THROW((void)store.Configure(failed, ConfigId{0}), std::logic_error);
  expect_untouched("Configure on a failed node");
  EXPECT_THROW((void)store.Configure(healthy, foreign_id), std::logic_error);
  expect_untouched("Configure with an incompatible family");
  EXPECT_THROW((void)store.Configure(busy, ConfigId{2}), std::logic_error);
  expect_untouched("Configure past the available area");
  EXPECT_THROW(store.ReclaimSlot(running), std::logic_error);
  expect_untouched("ReclaimSlot on a busy entry");
  EXPECT_THROW(store.BlankNode(busy), std::logic_error);
  expect_untouched("BlankNode on a busy node");
  EXPECT_THROW((void)store.FailNode(failed), std::logic_error);
  expect_untouched("FailNode on a failed node");
  EXPECT_THROW(store.RepairNode(healthy), std::logic_error);
  expect_untouched("RepairNode on a healthy node");
}

TEST_F(StoreTest, QueriesChargeSchedulingSteps) {
  (void)store_.Configure(node_a_, ConfigId{0});
  const Steps before = store_.meter().scheduling_steps_total();
  (void)store_.FindBestIdleEntry(ConfigId{0});
  (void)store_.FindBestBlankNode(500);
  (void)store_.FindBestPartiallyBlankNode(500);
  (void)store_.FindAnyIdleNode(500);
  (void)store_.AnyBusyNodeCouldFit(500);
  EXPECT_GT(store_.meter().scheduling_steps_total(), before);
}

TEST_F(StoreTest, InitNodesGeneratesWithinRanges) {
  ResourceStore store(MakeCatalogue({300}));
  NodeGenParams params;
  params.count = 100;
  params.min_area = 1000;
  params.max_area = 4000;
  params.family_count = 4;
  Rng rng(17);
  store.InitNodes(params, rng);
  ASSERT_EQ(store.node_count(), 100u);
  for (const Node& n : store.nodes()) {
    EXPECT_GE(n.total_area(), 1000);
    EXPECT_LE(n.total_area(), 4000);
    EXPECT_LT(n.family().value(), 4u);
    EXPECT_GT(n.caps().embedded_memory_kb, 0);
  }
  const analysis::AuditReport audit =
      analysis::StructureAuditor::AuditStore(store);
  EXPECT_TRUE(audit.ok()) << audit.Render();
}

TEST_F(StoreTest, InitNodesRejectsBadRanges) {
  ResourceStore store(MakeCatalogue({300}));
  NodeGenParams params;
  params.min_area = 0;
  Rng rng(1);
  EXPECT_THROW(store.InitNodes(params, rng), std::invalid_argument);
}

TEST_F(StoreTest, InitNodesRejectsNegativeCount) {
  ResourceStore store(MakeCatalogue({300}));
  NodeGenParams params;
  params.count = -5;
  Rng rng(1);
  try {
    store.InitNodes(params, rng);
    FAIL() << "a negative node count was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "node count must be non-negative");
  }
  EXPECT_EQ(store.node_count(), 0u);
}

// -------- Property test: invariants under random operation sequences ----

struct FuzzCase {
  std::uint64_t seed;
  int nodes;
  int configs;
};

class StoreFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(StoreFuzzTest, InvariantsSurviveRandomOperations) {
  const FuzzCase param = GetParam();
  Rng rng(param.seed);

  ConfigCatalogue catalogue;
  for (int i = 0; i < param.configs; ++i) {
    Configuration cfg;
    cfg.required_area = rng.uniform_int(200, 2000);
    cfg.config_time = rng.uniform_int(10, 20);
    catalogue.Add(cfg);
  }
  ResourceStore store(std::move(catalogue));
  for (int i = 0; i < param.nodes; ++i) {
    (void)store.AddNode(rng.uniform_int(1000, 4000));
  }

  std::vector<EntryRef> idle_entries;
  std::vector<EntryRef> busy_entries;
  std::uint32_t next_task = 0;

  for (int op = 0; op < 2000; ++op) {
    switch (rng.uniform_int(0, 4)) {
      case 0: {  // configure a random config onto a random fitting node
        const auto cfg_id = ConfigId{static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(store.configs().size()) - 1))};
        const Area needed = store.configs().Get(cfg_id).required_area;
        const auto node_id = NodeId{static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(store.node_count()) - 1))};
        if (store.node(node_id).available_area() >= needed) {
          idle_entries.push_back(store.Configure(node_id, cfg_id));
        }
        break;
      }
      case 1: {  // assign a task to a random idle entry
        if (idle_entries.empty()) break;
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(idle_entries.size()) - 1));
        const EntryRef e = idle_entries[pick];
        idle_entries[pick] = idle_entries.back();
        idle_entries.pop_back();
        store.AssignTask(e, TaskId{next_task++});
        busy_entries.push_back(e);
        break;
      }
      case 2: {  // release a random busy entry
        if (busy_entries.empty()) break;
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(busy_entries.size()) - 1));
        const EntryRef e = busy_entries[pick];
        busy_entries[pick] = busy_entries.back();
        busy_entries.pop_back();
        (void)store.ReleaseTask(e);
        idle_entries.push_back(e);
        break;
      }
      case 3: {  // reclaim a random idle entry
        if (idle_entries.empty()) break;
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(idle_entries.size()) - 1));
        const EntryRef e = idle_entries[pick];
        idle_entries[pick] = idle_entries.back();
        idle_entries.pop_back();
        store.ReclaimSlot(e);
        break;
      }
      case 4: {  // run the counted queries (must never corrupt state)
        (void)store.FindBestIdleEntry(ConfigId{0});
        (void)store.FindBestBlankNode(1000);
        (void)store.FindBestPartiallyBlankNode(1000);
        (void)store.FindAnyIdleNode(1500);
        (void)store.AnyBusyNodeCouldFit(1500);
        break;
      }
    }
    if (op % 100 == 0) {
      const analysis::AuditReport audit =
          analysis::StructureAuditor::AuditStore(store);
      ASSERT_TRUE(audit.ok()) << "op " << op << "\n" << audit.Render();
    }
  }
  const analysis::AuditReport audit =
      analysis::StructureAuditor::AuditStore(store);
  EXPECT_TRUE(audit.ok()) << audit.Render();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StoreFuzzTest,
    ::testing::Values(FuzzCase{1, 5, 3}, FuzzCase{2, 20, 10},
                      FuzzCase{3, 50, 25}, FuzzCase{4, 100, 50},
                      FuzzCase{5, 10, 2}, FuzzCase{6, 3, 30}));

}  // namespace
}  // namespace dreamsim::resource
