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
using resource::SusEntryAttrs;
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
      SuspensionQueue queue(/*capacity=*/8, order);
      queue.SetDrainIndexed(indexed);
      WorkloadMeter meter;
      for (std::uint32_t t = 0; t < 5; ++t) {
        SusEntryAttrs attrs;
        attrs.resolved_config = ConfigId{t % 2};
        attrs.needed_area = 100 + t;
        attrs.priority = static_cast<double>(t);
        ASSERT_TRUE(queue.Add(TaskId{t}, attrs, meter));
      }
      ASSERT_TRUE(queue.Remove(TaskId{2}, meter));
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
  // Config 0 has two idle entries (nodes a and b); swap their position-map
  // slots. Membership is intact, so only the inverse-map check can see it.
  StructureCorruptor::CorruptPositionMap(store, ConfigId{0});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"fig3.positions"})
      << report.Render();
  // Both displaced cells are reported.
  EXPECT_EQ(report.violations.size(), 2u) << report.Render();
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

TEST(StructureAuditorCorruption, StrayIndexKeyIsIdxSet) {
  ResourceStore store = MakePopulatedStore(/*indexed=*/true);
  StructureCorruptor::InjectStrayIndexKey(store, NodeId{0});
  const AuditReport report = StructureAuditor::AuditStore(store);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"idx.set"})
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
  SuspensionQueue queue(/*capacity=*/0);
  queue.SetDrainIndexed(true);
  WorkloadMeter meter;
  for (std::uint32_t t = 0; t < 4; ++t) {
    SusEntryAttrs attrs;
    attrs.resolved_config = ConfigId{t % 2};
    attrs.needed_area = 100;
    ASSERT_TRUE(queue.Add(TaskId{t}, attrs, meter));
  }
  // Task 1 resolved to config 1; move its seq into config 5's bucket.
  StructureCorruptor::MisplaceSusBucketEntry(queue, TaskId{1}, ConfigId{5});
  const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"susidx.bucket"})
      << report.Render();
}

TEST(StructureAuditorCorruption, SkewedGroupLeafIsSusidxGroup) {
  SuspensionQueue queue(/*capacity=*/0);
  queue.SetDrainIndexed(true);
  WorkloadMeter meter;
  for (std::uint32_t t = 0; t < 4; ++t) {
    SusEntryAttrs attrs;
    attrs.resolved_config = ConfigId{t % 2};
    attrs.needed_area = 100 + t;
    ASSERT_TRUE(queue.Add(TaskId{t}, attrs, meter));
  }
  StructureCorruptor::SkewSusGroupLeaf(queue, TaskId{2});
  const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"susidx.group"})
      << report.Render();
}

TEST(StructureAuditorCorruption, SkewedTreapMinAreaIsSusidxTreap) {
  SuspensionQueue queue(/*capacity=*/0, resource::SusOrder::kPriority);
  queue.SetDrainIndexed(true);
  WorkloadMeter meter;
  for (std::uint32_t t = 0; t < 5; ++t) {
    SusEntryAttrs attrs;
    attrs.resolved_config = ConfigId{t % 2};
    attrs.needed_area = 100 + t;
    attrs.priority = static_cast<double>(t % 3);
    ASSERT_TRUE(queue.Add(TaskId{t}, attrs, meter));
  }
  StructureCorruptor::SkewSusTreapMinArea(queue);
  const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(Slugs(report), std::set<std::string>{"susidx.treap"})
      << report.Render();
}

TEST(StructureAuditorCorruption, SkewedSusAttrsIsSusAttrs) {
  const ConfigCatalogue configs = MakeCatalogue({300, 500});
  for (const bool indexed : {false, true}) {
    resource::TaskStore tasks;
    SuspensionQueue queue;
    queue.SetDrainIndexed(indexed);
    WorkloadMeter meter;
    for (std::uint32_t t = 0; t < 4; ++t) {
      resource::Task task;
      task.required_time = 10;
      task.resolved_config = ConfigId{t % 2};
      task.needed_area = 100 + t;
      task.priority = static_cast<double>(t);
      const TaskId id = tasks.Create(task);
      SusEntryAttrs attrs;
      attrs.resolved_config = task.resolved_config;
      attrs.config_family = configs.Get(task.resolved_config).family;
      attrs.needed_area = task.needed_area;
      attrs.priority = task.priority;
      ASSERT_TRUE(queue.Add(id, attrs, meter));
    }
    ASSERT_TRUE(queue.Remove(TaskId{0}, meter));
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
    // The queue and its index agree on the skewed area; only the task
    // itself disagrees.
    StructureCorruptor::SkewSusAttrs(queue, TaskId{2});
    const AuditReport report = audit();
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"sus.attrs"})
        << "indexed=" << indexed << "\n"
        << report.Render();
    EXPECT_NE(report.violations[0].detail.find("needed_area"),
              std::string::npos)
        << report.Render();
  }
}

TEST(StructureAuditorCorruption, SkewedSusLiveTreeIsSusFifo) {
  for (const bool indexed : {false, true}) {
    SuspensionQueue queue;
    queue.SetDrainIndexed(indexed);
    WorkloadMeter meter;
    for (std::uint32_t t = 0; t < 4; ++t) {
      ASSERT_TRUE(queue.Add(TaskId{t}, meter));
    }
    ASSERT_TRUE(queue.Remove(TaskId{0}, meter));  // seq 0 is a tombstone
    // The live-seq Fenwick tree claims the removed entry is still queued:
    // slots, links, table and index are intact, so only the leaf-by-leaf
    // recount can see it.
    StructureCorruptor::SkewSusLive(queue);
    const AuditReport report = StructureAuditor::AuditSuspensionQueue(queue);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(Slugs(report), std::set<std::string>{"sus.fifo"})
        << "indexed=" << indexed << "\n"
        << report.Render();
  }
}

TEST(StructureAuditorCorruption, OverfullQueueIsSusCapacity) {
  SuspensionQueue queue(/*capacity=*/4);
  WorkloadMeter meter;
  for (std::uint32_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(queue.Add(TaskId{t}, meter));
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
      SuspensionQueue queue;
      queue.SetDrainIndexed(indexed);
      WorkloadMeter meter;
      for (std::uint32_t t = 0; t < 4; ++t) {
        ASSERT_TRUE(queue.Add(TaskId{t}, meter));
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
  const SuspensionQueue queue;
  const sim::EventQueue events;
  const resource::TaskStore tasks;
  ASSERT_FALSE(obs::MetricsRegistry::enabled());
  EXPECT_TRUE(
      StructureAuditor::AuditMetrics(store, queue, events, tasks).ok());
}

TEST(StructureAuditorMetrics, ConservationHoldsOnInstrumentedOps) {
  const ScopedMetricsRegistry scoped;
  const ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  SuspensionQueue queue;
  WorkloadMeter meter;
  sim::EventQueue events;
  const resource::TaskStore tasks;
  // Drive only instrumented paths: counters and structures move together.
  (void)events.Push(10, sim::EventPriority::kArrival, sim::Event{});
  const sim::EventHandle h =
      events.Push(20, sim::EventPriority::kCompletion, sim::Event{});
  ASSERT_TRUE(events.Cancel(h));
  SusEntryAttrs attrs;
  attrs.resolved_config = ConfigId{0};
  attrs.needed_area = 100;
  ASSERT_TRUE(queue.Add(TaskId{0}, attrs, meter));
  ASSERT_TRUE(queue.Add(TaskId{1}, attrs, meter));
  ASSERT_TRUE(queue.Remove(TaskId{0}, meter));
  const AuditReport report =
      StructureAuditor::AuditMetrics(store, queue, events, tasks);
  EXPECT_TRUE(report.ok()) << report.Render();
}

TEST(StructureAuditorMetrics, SkewedCounterIsMetricsConservation) {
  const ScopedMetricsRegistry scoped;
  const ResourceStore store = MakePopulatedStore(/*indexed=*/false);
  SuspensionQueue queue;
  WorkloadMeter meter;
  const sim::EventQueue events;
  const resource::TaskStore tasks;
  SusEntryAttrs attrs;
  attrs.resolved_config = ConfigId{0};
  attrs.needed_area = 100;
  ASSERT_TRUE(queue.Add(TaskId{0}, attrs, meter));
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
  const SuspensionQueue queue;
  sim::EventQueue events;
  const resource::TaskStore tasks;
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
