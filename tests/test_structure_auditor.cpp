// StructureAuditor tests: the auditor must be green on healthy structures
// and, for every seeded-corruption class the StructureCorruptor can
// inject, report exactly the matching violation slug(s) — proving the
// audit is neither vacuous nor trigger-happy (DESIGN.md §12).
#include "analysis/structure_auditor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "analysis/corruptor.hpp"
#include "obs/metrics.hpp"
#include "resource/store.hpp"
#include "resource/suspension_queue.hpp"
#include "resource/task.hpp"
#include "sim/event_queue.hpp"

namespace dreamsim::analysis {
namespace {

using resource::ConfigCatalogue;
using resource::Configuration;
using resource::EntryRef;
using resource::ResourceStore;
using resource::SuspensionQueue;
using resource::WorkloadMeter;

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

/// A task table of `count` tasks: task t prefers config t % 2 and has
/// area 100 + t and priority t % 3.
resource::TaskStore MakeTasks(std::uint32_t count) {
  resource::TaskStore tasks;
  for (std::uint32_t t = 0; t < count; ++t) {
    resource::TaskSpec spec;
    spec.required_time = 10;
    spec.preferred_config = ConfigId{t % 2};
    spec.needed_area = 100 + t;
    (void)tasks.SubmitOne(spec, 0, static_cast<double>(t % 3));
  }
  return tasks;
}

/// Distinct invariant slugs present in the report, in sorted order — the
/// corruption tests assert this equals exactly the expected slug set.
std::set<std::string> Slugs(const AuditReport& report) {
  std::set<std::string> slugs;
  for (const Violation& v : report.violations) slugs.insert(v.invariant);
  return slugs;
}

/// One pending arrival, as the event queue's arrival cursor reads it.
struct Arrival {
  Tick at = 0;
};

sim::TickView TicksOf(const std::vector<Arrival>& arrivals) {
  return sim::TickView::Of(arrivals.data(), arrivals.size(), &Arrival::at);
}

/// A store with a little of everything: blank, idle, and busy nodes.
ResourceStore MakePopulatedStore(bool indexed) {
  ResourceStore store(MakeCatalogue({300, 500, 800}));
  store.SetIndexed(indexed);
  const NodeId a = store.AddNode(1000);
  const NodeId b = store.AddNode(2000);
  (void)store.AddNode(4000);  // stays blank
  const EntryRef idle_a = store.Configure(a, ConfigId{0});
  (void)idle_a;
  const EntryRef busy_b = store.Configure(b, ConfigId{1});
  store.AssignTask(busy_b, TaskId{7});
  (void)store.Configure(b, ConfigId{0});  // second idle entry for config 0
  return store;
}

// --- Clean structures audit clean -------------------------------------------

TEST(StructureAuditorClean, FreshStore) {
  ResourceStore store(MakeCatalogue({300, 500}));
  const AuditReport report = StructureAuditor::AuditStore(store);
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_EQ(report.Render(), "structure audit: clean");
}

TEST(StructureAuditorClean, PopulatedStoreIndexedAndNot) {
  for (const bool indexed : {false, true}) {
    const ResourceStore store = MakePopulatedStore(indexed);
    const AuditReport report = StructureAuditor::AuditStore(store);
    EXPECT_TRUE(report.ok()) << "indexed=" << indexed << "\n"
                             << report.Render();
  }
}

TEST(StructureAuditorClean, PopulatedSuspensionQueue) {
  for (const bool indexed : {false, true}) {
    for (const resource::SusOrder order :
         {resource::SusOrder::kFifo, resource::SusOrder::kPriority}) {
      const resource::TaskStore tasks = MakeTasks(5);
      const ConfigCatalogue configs = MakeCatalogue({300, 500});
      SuspensionQueue queue(tasks, configs, /*capacity=*/8, order);
      queue.SetDrainIndexed(indexed);
      WorkloadMeter meter;
      for (std::uint32_t t = 0; t < 5; ++t) {
        ASSERT_TRUE(queue.Add(TaskId{t}, ConfigId{t % 2}, meter));
      }
      queue.RemoveSeq(2, meter);  // task t is seq t
      const AuditReport report =
          StructureAuditor::AuditSuspensionQueue(queue);
      EXPECT_TRUE(report.ok()) << "indexed=" << indexed
                               << " order=" << static_cast<int>(order) << "\n"
                               << report.Render();
    }
  }
}

TEST(StructureAuditorClean, EventQueueWithCancellations) {
  sim::EventQueue queue;
  const std::vector<Arrival> arrivals = {{6}, {10}, {10}, {30}};
  const sim::EventHandle first = queue.PushArrivals(TicksOf(arrivals), 0);
  (void)queue.Push(10, sim::EventPriority::kArrival, sim::Event{});
  const sim::EventHandle h =
      queue.Push(20, sim::EventPriority::kCompletion, sim::Event{});
  (void)queue.Push(20, sim::EventPriority::kControl, sim::Event{});
  ASSERT_TRUE(queue.Cancel(sim::EventHandle{first.sequence + 2}));
  (void)queue.Pop();  // the arrival at 6
  ASSERT_TRUE(queue.Cancel(h));
  const AuditReport report = StructureAuditor::AuditEventQueue(queue, 6);
  EXPECT_TRUE(report.ok()) << report.Render();
}

// --- Each corruption class reports exactly its slug(s) ----------------------

TEST(StructureAuditorCorruption, OrphanIdleEntryIsFig3IdleList) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  // An entry whose slot does not exist on the (live, non-failed) node: the
  // idle list claims a pair the node's slots cannot justify.
  StructureCorruptor::InjectOrphanIdleEntry(store, ConfigId{0},
                                            EntryRef{NodeId{2}, 9});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"fig3.idle-list"})
      << report.Render();
}

TEST(StructureAuditorCorruption, SwappedPositionsAreFig3Positions) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  // Config 0 has two idle entries (nodes a and b); swap the list positions
  // their slots record. Membership is intact, so only the position check
  // can see it.
  StructureCorruptor::CorruptPositionMap(store, ConfigId{0});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"fig3.positions"})
      << report.Render();
  // Both displaced cells are reported.
  EXPECT_EQ(report.violations.size(), 2u) << report.Render();
}

TEST(StructureAuditorCorruption, DroppedIdleCellIsFig3IdleList) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  // The list loses a cell whose slot is still live and idle: no cell is
  // wrong, the slot is simply missing from its list.
  StructureCorruptor::DropIdleCell(store, ConfigId{0});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"fig3.idle-list"})
      << report.Render();
  ASSERT_EQ(report.violations.size(), 1u) << report.Render();
  EXPECT_NE(report.violations[0].detail.find("missing from the list"),
            std::string::npos)
      << report.Render();
}

TEST(StructureAuditorCorruption, SkewedFenwickLeafIsIdxCount) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  StructureCorruptor::SkewIndexConfigCount(store, NodeId{0});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.count"})
      << report.Render();
}

TEST(StructureAuditorCorruption, ExposedFailedNodeIsFaultVisibility) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  // Node 2 is blank; raising its failed flag behind the store's back leaves
  // it both in the blank list (visible to the scheduler) and outside the
  // failed-node counter.
  StructureCorruptor::ExposeFailedNode(store, NodeId{2});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  const std::set<std::string> expected{"fault.visibility", "fault.count"};
  EXPECT_EQ(Slugs(report), expected) << report.Render();
}

TEST(StructureAuditorCorruption, SkewedFleetTotalsIsFleetTotals) {
  for (const bool indexed : {false, true}) {
    ResourceStore store = MakePopulatedStore(indexed);
    // A running total that drifted from the nodes it sums: every node and
    // list is intact, so only the recount over the slots can see it.
    StructureCorruptor::SkewFleetTotals(store);
    const AuditReport report = StructureAuditor::AuditStore(store);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"fleet.totals"})
        << "indexed=" << indexed << "\n"
        << report.Render();
    // The field is named in the path.
    ASSERT_EQ(report.violations.size(), 1u) << report.Render();
    EXPECT_NE(report.violations[0].path.find("wasted_area"),
              std::string::npos)
        << report.Render();
  }
}

TEST(StructureAuditorCorruption, OrphanBusyEntryIsFig3BusyList) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  StructureCorruptor::InjectOrphanBusyEntry(store, ConfigId{1},
                                            EntryRef{NodeId{2}, 9});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"fig3.busy-list"})
      << report.Render();
}

TEST(StructureAuditorCorruption, SkewedSlotCounterIsFig3Slot) {
  for (const bool indexed : {false, true}) {
    ResourceStore store = MakePopulatedStore(indexed);
    StructureCorruptor::SkewSlotCounter(store, NodeId{1});
    const AuditReport report = StructureAuditor::AuditStore(store);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"fig3.slot"})
        << "indexed=" << indexed << "\n"
        << report.Render();
  }
}

TEST(StructureAuditorCorruption, SkewedAvailableAreaIsEq4Area) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  StructureCorruptor::SkewAvailableArea(store, NodeId{0});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"eq4.area"})
      << report.Render();
}

TEST(StructureAuditorCorruption, OvercommittedNodeIsEq4Area) {
  for (const bool indexed : {false, true}) {
    ResourceStore store = MakePopulatedStore(indexed);
    // Node 1 stays consistent with Eq. 4 (available == total - live) and
    // with every derived structure; only its AvailableArea is negative.
    StructureCorruptor::OvercommitNode(store, NodeId{1});
    ASSERT_LT(store.node(NodeId{1}).available_area(), 0);
    const AuditReport report = StructureAuditor::AuditStore(store);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"eq4.area"})
        << "indexed=" << indexed << "\n"
        << report.Render();
    ASSERT_EQ(report.violations.size(), 1u) << report.Render();
    EXPECT_NE(report.violations[0].detail.find("over-commits"),
              std::string::npos)
        << report.Render();
  }
}

TEST(StructureAuditorCorruption, SkewedBusyAreaIsEq4BusyArea) {
  for (const bool indexed : {false, true}) {
    ResourceStore store = MakePopulatedStore(indexed);
    StructureCorruptor::SkewBusyArea(store, NodeId{1});
    const AuditReport report = StructureAuditor::AuditStore(store);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"eq4.busy-area"})
        << "indexed=" << indexed << "\n"
        << report.Render();
  }
}

TEST(StructureAuditorCorruption, DroppedBlankEntryIsBlankList) {
  for (const bool indexed : {false, true}) {
    ResourceStore store = MakePopulatedStore(indexed);
    StructureCorruptor::DropBlankEntry(store, NodeId{2});
    const AuditReport report = StructureAuditor::AuditStore(store);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"blank.list"})
        << "indexed=" << indexed << "\n"
        << report.Render();
  }
}

TEST(StructureAuditorCorruption, SkewedBlankPosIsBlankPos) {
  for (const bool indexed : {false, true}) {
    for (const NodeId node : {NodeId{0}, NodeId{2}}) {  // unlisted, listed
      ResourceStore store = MakePopulatedStore(indexed);
      StructureCorruptor::SkewBlankPos(store, node);
      const AuditReport report = StructureAuditor::AuditStore(store);
      ASSERT_FALSE(report.ok());
      EXPECT_EQ(Slugs(report), std::set<std::string>{"blank.pos"})
          << "indexed=" << indexed << " node=" << node.value() << "\n"
          << report.Render();
    }
  }
}

TEST(StructureAuditorCorruption, SkewedFailedCountIsFaultCount) {
  for (const bool indexed : {false, true}) {
    ResourceStore store = MakePopulatedStore(indexed);
    StructureCorruptor::SkewFailedCount(store);
    const AuditReport report = StructureAuditor::AuditStore(store);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"fault.count"})
        << "indexed=" << indexed << "\n"
        << report.Render();
  }
}

TEST(StructureAuditorCorruption, ExposedCountedFailedNodeIsFaultVisibility) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  // As ExposedFailedNodeIsFaultVisibility, but with the counter moved in
  // step: only the still-visible node is left to report.
  StructureCorruptor::ExposeFailedNode(store, NodeId{2});
  StructureCorruptor::SkewFailedCount(store);
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"fault.visibility"})
      << report.Render();
}

TEST(StructureAuditorCorruption, HoleOverLiveExtentIsFabricLayout) {
  for (const bool indexed : {false, true}) {
    ResourceStore store(MakeCatalogue({300, 500}));
    store.SetIndexed(indexed);
    const NodeId node = store.AddNode(1000, FamilyId{0}, resource::Caps{}, 0,
                                      /*contiguous=*/true);
    store.AssignTask(store.Configure(node, ConfigId{1}), TaskId{3});
    (void)store.Configure(node, ConfigId{0});
    ASSERT_TRUE(StructureAuditor::AuditStore(store).ok())
        << StructureAuditor::AuditStore(store).Render();
    StructureCorruptor::OverlapFabricHole(store, node);
    const AuditReport report = StructureAuditor::AuditStore(store);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"fabric.layout"})
        << "indexed=" << indexed << "\n"
        << report.Render();
    // Both the free-area disagreement and the overlap itself are named.
    const std::string rendered = report.Render();
    EXPECT_NE(rendered.find("AvailableArea"), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("overlaps"), std::string::npos) << rendered;
  }
}

TEST(StructureAuditorCorruption, TruncatedIndexCacheIsIdxSize) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  StructureCorruptor::TruncateIndexCache(store);
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.size"})
      << report.Render();
}

TEST(StructureAuditorCorruption, SkewedIndexSnapshotIsIdxSnapshot) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  StructureCorruptor::SkewIndexSnapshot(store, NodeId{1});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.snapshot"})
      << report.Render();
}

TEST(StructureAuditorCorruption, SkewedIndexPotentialIsIdxTree) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  StructureCorruptor::SkewIndexPotential(store, NodeId{1});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.tree"})
      << report.Render();
}

// The populated store plus blank nodes, so the index's max trees carry a
// summary level above their leaves.
ResourceStore MakeWideStore() {
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  for (int i = 0; i < 14; ++i) (void)store.AddNode(1000 + 100 * i);
  return store;
}

// A summary cell above correct leaves: every leaf check passes, and only
// the recomputation of the summaries sees it.
TEST(StructureAuditorCorruption, SkewedIndexTreeSummaryIsIdxTree) {
  using Tree = StructureCorruptor::IndexTree;
  for (const Tree tree :
       {Tree::kPotential, Tree::kBusyTotal, Tree::kAvailable}) {
    ResourceStore store = MakeWideStore();
    ASSERT_TRUE(StructureAuditor::AuditStore(store).ok());
    StructureCorruptor::SkewTreeSummary(store, tree);
    const AuditReport report = StructureAuditor::AuditStore(store);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.tree"})
        << report.Render();
  }
}

TEST(StructureAuditorCorruption, SkewedFenwickCellIsIdxCount) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  StructureCorruptor::SkewTreeSummary(
      store, StructureCorruptor::IndexTree::kConfigCount);
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.count"})
      << report.Render();
}

TEST(StructureAuditorCorruption, StrayIndexKeyIsIdxSet) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  StructureCorruptor::InjectStrayIndexKey(store, NodeId{0});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.set"})
      << report.Render();
  EXPECT_NE(report.Render().find("stray key"), std::string::npos)
      << report.Render();
}

TEST(StructureAuditorCorruption, DroppedIndexKeyIsIdxSet) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  StructureCorruptor::DropIndexKey(store, NodeId{1});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.set"})
      << report.Render();
  // Node 1's key, not a neighbour's, is the one reported.
  EXPECT_NE(report.Render().find("node 1): expected key missing"),
            std::string::npos)
      << report.Render();
}

TEST(StructureAuditorCorruption, SkewedBucketBitmapIsIdxBitmap) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  StructureCorruptor::SkewIndexBucketBitmap(store);
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.bitmap"})
      << report.Render();
}

TEST(StructureAuditorCorruption, DroppedFamilyViewIsIdxView) {
  // Only a fleet of two or more family values keeps family views.
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  (void)store.AddNode(1500, FamilyId{1});
  ASSERT_TRUE(StructureAuditor::AuditStore(store).ok())
      << StructureAuditor::AuditStore(store).Render();
  StructureCorruptor::DropFamilyView(store, NodeId{0});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.view"})
      << report.Render();
}

TEST(StructureAuditorCorruption, FamilyViewInOneFamilyFleetIsIdxView) {
  // A one-family fleet answers every family from the global view; a
  // family view beside it would be a second copy of every fact.
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  StructureCorruptor::AddFamilyView(store, NodeId{0});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.view"})
      << report.Render();
}

TEST(StructureAuditorCorruption, MisplacedBucketSeqIsSusidxBucket) {
  const resource::TaskStore tasks = MakeTasks(4);
  const ConfigCatalogue configs = MakeCatalogue({300, 500});
  SuspensionQueue queue(tasks, configs);
  queue.SetDrainIndexed(true);
  WorkloadMeter meter;
  for (std::uint32_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(queue.Add(TaskId{t}, ConfigId{t % 2}, meter));
  }
  // Task 1 resolved to config 1; move its seq into config 5's bucket.
  StructureCorruptor::MisplaceSusBucketEntry(queue, TaskId{1}, ConfigId{5});
  const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"susidx.bucket"})
      << report.Render();
}

TEST(StructureAuditorCorruption, SkewedGroupLeafIsSusidxGroup) {
  const resource::TaskStore tasks = MakeTasks(4);
  const ConfigCatalogue configs = MakeCatalogue({300, 500});
  SuspensionQueue queue(tasks, configs);
  queue.SetDrainIndexed(true);
  WorkloadMeter meter;
  for (std::uint32_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(queue.Add(TaskId{t}, ConfigId{t % 2}, meter));
  }
  StructureCorruptor::SkewSusGroupLeaf(queue, TaskId{2});
  const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"susidx.group"})
      << report.Render();
}

TEST(StructureAuditorCorruption, SkewedSeqTreeSummaryIsSusidxGroup) {
  const resource::TaskStore tasks = MakeTasks(20);
  const ConfigCatalogue configs = MakeCatalogue({300, 500});
  SuspensionQueue queue(tasks, configs);
  queue.SetDrainIndexed(true);
  WorkloadMeter meter;
  for (std::uint32_t t = 0; t < 20; ++t) {
    ASSERT_TRUE(queue.Add(TaskId{t}, ConfigId{t % 2}, meter));
  }
  ASSERT_TRUE(StructureAuditor::AuditSuspensionQueue(queue).ok());
  StructureCorruptor::SkewTreeSummary(queue);
  const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"susidx.group"})
      << report.Render();
}

TEST(StructureAuditorCorruption, SetTaskStateIsTaskState) {
  using resource::TaskState;
  // Tasks 0-2 wait in the queue, task 3 runs on b's busy slot, task 4
  // completed; seq 0 (task 0) left, so task 0 is discarded.
  const auto build = [](ResourceStore& store, SuspensionQueue& queue,
                        resource::TaskStore& tasks) {
    const NodeId b = store.AddNode(2000);
    const EntryRef busy = store.Configure(b, ConfigId{1});
    WorkloadMeter meter;
    for (std::uint32_t t = 0; t < 3; ++t) {
      tasks.Get(TaskId{t}).state = TaskState::kSuspended;
      ASSERT_TRUE(queue.Add(TaskId{t}, {}, meter));
    }
    queue.RemoveSeq(0, meter);
    tasks.Get(TaskId{0}).state = TaskState::kDiscarded;
    store.AssignTask(busy, TaskId{3});
    tasks.Get(TaskId{3}).state = TaskState::kRunning;
    store.SetReadyTime(busy, 25);
    tasks.Get(TaskId{4}).state = TaskState::kCompleted;
  };
  struct Case {
    const char* what;
    std::uint32_t task;
    TaskState state;
    const char* detail;
  };
  const Case cases[] = {
      {"queued task marked running", 1, TaskState::kRunning,
       "queued task is running"},
      {"running task marked completed", 3, TaskState::kCompleted,
       "running task is completed"},
      {"completed task marked suspended", 4, TaskState::kSuspended,
       "3 suspended tasks, 2 queued"},
      {"discarded task marked running", 0, TaskState::kRunning,
       "2 running tasks, 1 busy slots"},
  };
  for (const Case& c : cases) {
    ResourceStore store(MakeCatalogue({300, 500}));
    resource::TaskStore tasks = MakeTasks(5);
    SuspensionQueue queue(tasks, store.configs());
    build(store, queue, tasks);
    ASSERT_TRUE(StructureAuditor::AuditTaskStates(store, queue, tasks).ok())
        << StructureAuditor::AuditTaskStates(store, queue, tasks).Render();
    StructureCorruptor::SetTaskState(tasks, TaskId{c.task}, c.state);
    const AuditReport report =
        StructureAuditor::AuditTaskStates(store, queue, tasks);
    ASSERT_FALSE(report.ok()) << c.what;
    EXPECT_EQ(Slugs(report), std::set<std::string>{"task.state"})
        << c.what << "\n" << report.Render();
    EXPECT_NE(report.Render().find(c.detail), std::string::npos)
        << c.what << "\n" << report.Render();
  }
  // A busy slot that lost its ready tick is caught as well (b's only slot
  // is slot 0 of node 0).
  ResourceStore store(MakeCatalogue({300, 500}));
  resource::TaskStore tasks = MakeTasks(5);
  SuspensionQueue queue(tasks, store.configs());
  build(store, queue, tasks);
  StructureCorruptor::SetReadyTick(store, EntryRef{NodeId{0}, 0}, kNoTick);
  const AuditReport report =
      StructureAuditor::AuditTaskStates(store, queue, tasks);
  EXPECT_EQ(Slugs(report), std::set<std::string>{"task.state"})
      << report.Render();
  EXPECT_NE(report.Render().find("busy slot has no ready tick"),
            std::string::npos)
      << report.Render();
  EXPECT_TRUE(StructureAuditor::AuditStore(store).ok());
}

TEST(StructureAuditorCorruption, StaleIdleReadyTickIsFig3Slot) {
  // A released slot kept its task's tick.
  ResourceStore store(MakeCatalogue({300, 500}));
  const EntryRef idle = store.Configure(store.AddNode(2000), ConfigId{1});
  store.AssignTask(idle, TaskId{3});
  store.SetReadyTime(idle, 25);
  (void)store.ReleaseTask(idle);
  ASSERT_TRUE(StructureAuditor::AuditStore(store).ok());
  StructureCorruptor::SetReadyTick(store, idle, 25);
  const AuditReport report = StructureAuditor::AuditStore(store);
  EXPECT_EQ(Slugs(report), std::set<std::string>{"fig3.slot"})
      << report.Render();
  EXPECT_NE(report.Render().find("idle slot holds ready tick 25"),
            std::string::npos)
      << report.Render();
}

TEST(StructureAuditorCorruption, SkewedSusAttrsIsSusAttrs) {
  const ConfigCatalogue configs = MakeCatalogue({300, 500});
  const resource::TaskStore tasks = MakeTasks(4);
  for (const resource::SusOrder order :
       {resource::SusOrder::kFifo, resource::SusOrder::kPriority}) {
    for (const bool indexed : {false, true}) {
      SuspensionQueue queue(tasks, configs, 0, order);
      queue.SetDrainIndexed(indexed);
      WorkloadMeter meter;
      for (std::uint32_t t = 0; t < 4; ++t) {
        ASSERT_TRUE(queue.Add(TaskId{t}, ConfigId{t % 2}, meter));
      }
      queue.RemoveSeq(0, meter);
      const auto audit = [&] {
        AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
        const AuditReport attrs =
            StructureAuditor::AuditSusAttrs(queue, tasks, configs);
        report.violations.insert(report.violations.end(),
                                 attrs.violations.begin(),
                                 attrs.violations.end());
        return report;
      };
      ASSERT_TRUE(audit().ok()) << audit().Render();
      // Task 2 prefers config 0. The queue and its rebuilt index agree on
      // config 1; only the task itself disagrees.
      StructureCorruptor::SkewSusAttrs(queue, TaskId{2}, ConfigId{1});
      const AuditReport report = audit();
      ASSERT_FALSE(report.ok());
      EXPECT_EQ(Slugs(report), std::set<std::string>{"sus.attrs"})
          << "indexed=" << indexed << "\n"
          << report.Render();
      EXPECT_NE(report.violations[0].detail.find("resolved_config"),
                std::string::npos)
          << report.Render();
    }
  }
}

TEST(StructureAuditorCorruption, SusAttrsResolveTheConfigFromTheSpec) {
  // The expected config is the one resolution picks: C_pref when the
  // catalogue has it (task 0), else the closest match by area (task 1
  // names no C_pref, task 2 one the catalogue lacks).
  const ConfigCatalogue configs = MakeCatalogue({300, 500});
  resource::TaskStore tasks;
  const std::pair<ConfigId, Area> specs[] = {
      {ConfigId{1}, 100}, {ConfigId::invalid(), 400}, {ConfigId{7}, 200}};
  const ConfigId resolved[] = {ConfigId{1}, ConfigId{1}, ConfigId{0}};
  for (const auto& [preferred, area] : specs) {
    resource::TaskSpec spec;
    spec.required_time = 10;
    spec.preferred_config = preferred;
    spec.needed_area = area;
    (void)tasks.SubmitOne(spec);
  }
  for (const bool indexed : {false, true}) {
    // Queue every task resolved as `resolved`, but task `wrong` to the
    // other config.
    for (const std::uint32_t wrong : {3u, 0u, 1u, 2u}) {
      SuspensionQueue queue(tasks, configs);
      queue.SetDrainIndexed(indexed);
      WorkloadMeter meter;
      for (std::uint32_t t = 0; t < 3; ++t) {
        ASSERT_TRUE(queue.Add(
            TaskId{t},
            t == wrong ? ConfigId{1 - resolved[t].value()} : resolved[t],
            meter));
      }
      const AuditReport report =
          StructureAuditor::AuditSusAttrs(queue, tasks, configs);
      if (wrong == 3) {
        EXPECT_TRUE(report.ok()) << report.Render();
        continue;
      }
      EXPECT_EQ(Slugs(report), std::set<std::string>{"sus.attrs"})
          << "indexed=" << indexed << " wrong=" << wrong << "\n"
          << report.Render();
      EXPECT_NE(report.Render().find("resolved_config"), std::string::npos)
          << report.Render();
    }
  }
}

TEST(StructureAuditorCorruption, SkewedSusLiveTreeIsSusFifo) {
  for (const bool indexed : {false, true}) {
    const resource::TaskStore tasks = MakeTasks(4);
    const ConfigCatalogue configs = MakeCatalogue({300, 500});
    SuspensionQueue queue(tasks, configs);
    queue.SetDrainIndexed(indexed);
    WorkloadMeter meter;
    for (std::uint32_t t = 0; t < 4; ++t) {
      ASSERT_TRUE(queue.Add(TaskId{t}, {}, meter));
    }
    queue.RemoveSeq(0, meter);  // seq 0 is a tombstone
    // The live-seq Fenwick tree claims the removed entry is still queued:
    // slots, head, queued bits and index are intact, so only the
    // leaf-by-leaf recount can see it.
    StructureCorruptor::SkewSusLive(queue);
    const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"sus.fifo"})
        << "indexed=" << indexed << "\n"
        << report.Render();
  }
}

TEST(StructureAuditorCorruption, SkewedSusLiveWordCountIsSusFifo) {
  // The word counts span two words, so a cell covering both is checked.
  for (const bool indexed : {false, true}) {
    const resource::TaskStore tasks = MakeTasks(70);
    const ConfigCatalogue configs = MakeCatalogue({300, 500});
    SuspensionQueue queue(tasks, configs);
    queue.SetDrainIndexed(indexed);
    WorkloadMeter meter;
    for (std::uint32_t t = 0; t < 70; ++t) {
      ASSERT_TRUE(queue.Add(TaskId{t}, ConfigId{t % 2}, meter));
    }
    queue.RemoveSeq(3, meter);
    ASSERT_TRUE(StructureAuditor::AuditSuspensionQueue(queue).ok());
    // The count over word 0 disagrees with its bits: cells, bits, head and
    // index are intact, so only the recount of the words can see it.
    StructureCorruptor::SkewSusLiveCount(queue);
    const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"sus.fifo"})
        << "indexed=" << indexed << "\n"
        << report.Render();
    EXPECT_NE(report.Render().find("live word count"), std::string::npos)
        << report.Render();
  }
}

TEST(StructureAuditorCorruption, RepointedSusOrderHeadIsSusidxBucket) {
  // Config 0's order holds seqs 0, 2, 4, 6; seqs 0 and 4 are removed, so
  // its head is seq 2 and removed seq 4 still sits in the order. A head
  // left on a removed seq and one stepped past a live seq are both caught.
  for (const std::uint32_t head : {0u, 4u, 6u}) {
    const resource::TaskStore tasks = MakeTasks(8);
    const ConfigCatalogue configs = MakeCatalogue({300, 500});
    SuspensionQueue queue(tasks, configs);
    queue.SetDrainIndexed(true);
    WorkloadMeter meter;
    for (std::uint32_t t = 0; t < 8; ++t) {
      ASSERT_TRUE(queue.Add(TaskId{t}, ConfigId{t % 2}, meter));
    }
    queue.RemoveSeq(0, meter);
    queue.RemoveSeq(4, meter);
    ASSERT_TRUE(StructureAuditor::AuditSuspensionQueue(queue).ok());
    StructureCorruptor::RepointSusOrderHead(queue, ConfigId{0}, head);
    const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"susidx.bucket"})
        << "head=" << head << "\n"
        << report.Render();
    EXPECT_NE(report.Render().find(head == 6 ? "expected entry missing"
                                             : "is not a live seq"),
              std::string::npos)
        << report.Render();
  }
}

TEST(StructureAuditorCorruption, SkippedSusHeadIsSusFifo) {
  for (const bool indexed : {false, true}) {
    // The head may sit behind a tombstone run or on seq 0.
    for (const std::uint32_t removed : {0u, 2u}) {
      const resource::TaskStore tasks = MakeTasks(4);
      const ConfigCatalogue configs = MakeCatalogue({300, 500});
      SuspensionQueue queue(tasks, configs);
      queue.SetDrainIndexed(indexed);
      WorkloadMeter meter;
      for (std::uint32_t t = 0; t < 4; ++t) {
        ASSERT_TRUE(queue.Add(TaskId{t}, {}, meter));
      }
      for (std::uint32_t seq = 0; seq < removed; ++seq) {
        queue.RemoveSeq(seq, meter);
      }
      ASSERT_TRUE(StructureAuditor::AuditSuspensionQueue(queue).ok());
      // Walks and front pops would skip the oldest entry; slots, live
      // tree, bits and index still hold it.
      StructureCorruptor::SkipSusHead(queue);
      const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
      ASSERT_FALSE(report.ok());
      EXPECT_EQ(Slugs(report), std::set<std::string>{"sus.fifo"})
          << "indexed=" << indexed << " removed=" << removed << "\n"
          << report.Render();
    }
  }
}

TEST(StructureAuditorCorruption, FlippedSusQueuedBitIsSusUnique) {
  for (const bool indexed : {false, true}) {
    // A queued task that lost its bit, a removed one and a never-queued
    // one (past the bit table) that gained one.
    for (const std::uint32_t task : {1u, 0u, 200u}) {
      const resource::TaskStore tasks = MakeTasks(4);
      const ConfigCatalogue configs = MakeCatalogue({300, 500});
      SuspensionQueue queue(tasks, configs);
      queue.SetDrainIndexed(indexed);
      WorkloadMeter meter;
      for (std::uint32_t t = 0; t < 4; ++t) {
        ASSERT_TRUE(queue.Add(TaskId{t}, {}, meter));
      }
      queue.RemoveSeq(0, meter);
      ASSERT_TRUE(StructureAuditor::AuditSuspensionQueue(queue).ok());
      StructureCorruptor::FlipSusQueuedBit(queue, TaskId{task});
      const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
      ASSERT_FALSE(report.ok());
      EXPECT_EQ(Slugs(report), std::set<std::string>{"sus.unique"})
          << "indexed=" << indexed << " task=" << task << "\n"
          << report.Render();
    }
  }
}

TEST(StructureAuditorCorruption, OverfullQueueIsSusCapacity) {
  const resource::TaskStore tasks = MakeTasks(3);
  const ConfigCatalogue configs = MakeCatalogue({300, 500});
  SuspensionQueue queue(tasks, configs, /*capacity=*/4);
  WorkloadMeter meter;
  for (std::uint32_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(queue.Add(TaskId{t}, {}, meter));
  }
  ASSERT_TRUE(StructureAuditor::AuditSuspensionQueue(queue).ok());
  StructureCorruptor::ShrinkSusCapacity(queue, 2);
  const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"sus.capacity"})
      << report.Render();
}

TEST(StructureAuditorCorruption, TaskQueuedTwiceIsSusUnique) {
  for (const bool indexed : {false, true}) {
    // Either order: the duplicate may land before or after the original.
    for (const std::uint32_t victim : {0u, 3u}) {
      // Equal specs: the victim's cell reads the same area through either
      // task, so the index still agrees with it.
      resource::TaskStore tasks;
      for (std::uint32_t t = 0; t < 4; ++t) {
        resource::TaskSpec spec;
        spec.required_time = 10;
        spec.needed_area = 100;
        (void)tasks.SubmitOne(spec);
      }
      const ConfigCatalogue configs = MakeCatalogue({300, 500});
      SuspensionQueue queue(tasks, configs);
      queue.SetDrainIndexed(indexed);
      WorkloadMeter meter;
      for (std::uint32_t t = 0; t < 4; ++t) {
        ASSERT_TRUE(queue.Add(TaskId{t}, {}, meter));
      }
      StructureCorruptor::DuplicateSusTask(queue, TaskId{1}, TaskId{victim});
      const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
      ASSERT_FALSE(report.ok());
      EXPECT_EQ(Slugs(report), std::set<std::string>{"sus.unique"})
          << "indexed=" << indexed << " victim=" << victim << "\n"
          << report.Render();
    }
  }
}

/// A heap-only event queue: a root and two children, no arrival cursor.
sim::EventQueue MakeHeapQueue() {
  sim::EventQueue queue;
  (void)queue.Push(10, sim::EventPriority::kCompletion, sim::Event{});
  (void)queue.Push(20, sim::EventPriority::kCompletion, sim::Event{});
  (void)queue.Push(30, sim::EventPriority::kControl, sim::Event{});
  return queue;
}

TEST(StructureAuditorCorruption, SwappedHeapHeadIsEvqOrder) {
  sim::EventQueue queue = MakeHeapQueue();
  ASSERT_TRUE(StructureAuditor::AuditEventQueue(queue, 10).ok());
  StructureCorruptor::SwapEventHeapHead(queue);
  const AuditReport report = StructureAuditor::AuditEventQueue(queue, 10);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"evq.order"})
      << report.Render();
}

TEST(StructureAuditorCorruption, BackdatedHeapHeadIsEvqPastTick) {
  sim::EventQueue queue = MakeHeapQueue();
  ASSERT_TRUE(StructureAuditor::AuditEventQueue(queue, 10).ok());
  StructureCorruptor::BackdateEventHead(queue, 5);
  const AuditReport report = StructureAuditor::AuditEventQueue(queue, 10);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"evq.past-tick"})
      << report.Render();
}

TEST(StructureAuditorCorruption, UnissuedSequenceIsEvqSequence) {
  sim::EventQueue queue = MakeHeapQueue();
  ASSERT_TRUE(StructureAuditor::AuditEventQueue(queue, 10).ok());
  StructureCorruptor::ReissueEventSequence(queue);
  const AuditReport report = StructureAuditor::AuditEventQueue(queue, 10);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"evq.sequence"})
      << report.Render();
}

TEST(StructureAuditorCorruption, SkewedLiveCountIsEvqLive) {
  sim::EventQueue queue;
  const std::vector<Arrival> arrivals = {{5}, {7}};
  (void)queue.PushArrivals(TicksOf(arrivals), 0);
  (void)queue.Push(10, sim::EventPriority::kCompletion, sim::Event{});
  ASSERT_TRUE(StructureAuditor::AuditEventQueue(queue, 0).ok());
  StructureCorruptor::SkewEventLiveCount(queue);
  const AuditReport report = StructureAuditor::AuditEventQueue(queue, 0);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"evq.live"})
      << report.Render();
}

TEST(StructureAuditorCorruption, ReorderedCursorTicksAreEvqCursor) {
  sim::EventQueue queue;
  const std::vector<Arrival> arrivals = {{5}, {7}, {9}};
  (void)queue.PushArrivals(TicksOf(arrivals), 0);
  (void)queue.Pop();
  ASSERT_TRUE(StructureAuditor::AuditEventQueue(queue, 5).ok());
  // The caller rewrites the workload the cursor still reads.
  const std::vector<Arrival> reordered = {{5}, {9}, {7}};
  StructureCorruptor::RepointArrivalCursor(queue, TicksOf(reordered));
  const AuditReport report = StructureAuditor::AuditEventQueue(queue, 5);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"evq.cursor"})
      << report.Render();
}

// --- Metrics conservation (DESIGN.md §16) -----------------------------------

/// Enables + resets the live registry for one test, restoring the disabled
/// default on exit so the global singleton never leaks state across tests.
struct ScopedMetricsRegistry {
  ScopedMetricsRegistry() {
    obs::MetricsRegistry::SetEnabled(true);
    obs::MetricsRegistry::Instance().Reset();
  }
  ~ScopedMetricsRegistry() {
    obs::MetricsRegistry::SetEnabled(false);
    obs::MetricsRegistry::Instance().Reset();
  }
};

TEST(StructureAuditorMetrics, DisabledRegistryAuditsEmpty) {
  const ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  const resource::TaskStore tasks;
  const SuspensionQueue queue(tasks, store.configs());
  const sim::EventQueue events;
  ASSERT_FALSE(obs::MetricsRegistry::enabled());
  EXPECT_TRUE(
      StructureAuditor::AuditMetrics(store, queue, events, tasks).ok());
}

TEST(StructureAuditorMetrics, ConservationHoldsOnInstrumentedOps) {
  const ScopedMetricsRegistry scoped;
  const ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  const resource::TaskStore tasks;
  SuspensionQueue queue(tasks, store.configs());
  WorkloadMeter meter;
  sim::EventQueue events;
  // Drive only instrumented paths: counters and structures move together.
  (void)events.Push(10, sim::EventPriority::kArrival, sim::Event{});
  const sim::EventHandle h =
      events.Push(20, sim::EventPriority::kCompletion, sim::Event{});
  ASSERT_TRUE(events.Cancel(h));
  ASSERT_TRUE(queue.Add(TaskId{0}, ConfigId{0}, meter));
  ASSERT_TRUE(queue.Add(TaskId{1}, ConfigId{0}, meter));
  queue.RemoveSeq(0, meter);
  const AuditReport report =
      StructureAuditor::AuditMetrics(store, queue, events, tasks);
  EXPECT_TRUE(report.ok()) << report.Render();
}

TEST(StructureAuditorMetrics, SkewedCounterIsMetricsConservation) {
  const ScopedMetricsRegistry scoped;
  const ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  const resource::TaskStore tasks;
  SuspensionQueue queue(tasks, store.configs());
  WorkloadMeter meter;
  const sim::EventQueue events;
  ASSERT_TRUE(queue.Add(TaskId{0}, ConfigId{0}, meter));
  ASSERT_TRUE(
      StructureAuditor::AuditMetrics(store, queue, events, tasks).ok());
  // Seeded corruption: the counter claims one enqueue the FIFO never saw.
  obs::MetricsRegistry::Instance().Add(obs::MetricId::kSusEnqueued);
  const AuditReport report =
      StructureAuditor::AuditMetrics(store, queue, events, tasks);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"metrics.conservation"})
      << report.Render();
}

TEST(StructureAuditorMetrics, SkewedGaugeIsMetricsConservation) {
  const ScopedMetricsRegistry scoped;
  const ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  const resource::TaskStore tasks;
  const SuspensionQueue queue(tasks, store.configs());
  sim::EventQueue events;
  (void)events.Push(10, sim::EventPriority::kArrival, sim::Event{});
  ASSERT_TRUE(
      StructureAuditor::AuditMetrics(store, queue, events, tasks).ok());
  // Seeded corruption: stale depth gauge (a missed update on some path).
  obs::MetricsRegistry::Instance().GaugeSet(obs::MetricId::kEvqDepth, 7);
  const AuditReport report =
      StructureAuditor::AuditMetrics(store, queue, events, tasks);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"metrics.conservation"})
      << report.Render();
}

// --- Report rendering (docs/formats.md "Auditor violation report") ----------

TEST(StructureAuditorReport, RenderCapsLongReports) {
  AuditReport report;
  for (int i = 0; i < 12; ++i) {
    report.violations.push_back(
        {"fig3.idle-list", "config 0 idle pos 0", "detail"});
  }
  const std::string rendered = report.Render(/*max_lines=*/8);
  EXPECT_NE(rendered.find("structure audit: 12 violation(s)"),
            std::string::npos);
  EXPECT_NE(rendered.find("... 4 more"), std::string::npos);
  // Exactly 8 violation lines plus the header and the cap line.
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 9);
}

}  // namespace
}  // namespace dreamsim::analysis
