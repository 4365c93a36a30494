// Tests for the RMS layer: resource information manager, job submission
// manager, monitoring module, and the load balancer.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "rms/job_manager.hpp"
#include "rms/load_balancer.hpp"
#include "rms/monitor.hpp"
#include "rms/resource_info.hpp"

namespace dreamsim::rms {
namespace {

using resource::ConfigCatalogue;
using resource::Configuration;
using resource::EntryRef;
using resource::ResourceStore;

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

TEST(ResourceInformationManager, StaticInfo) {
  ResourceStore store(MakeCatalogue({300}));
  const NodeId id = store.AddNode(1500, FamilyId{2},
                                  resource::Caps{256, 10, 400}, 7);
  const ResourceInformationManager info(store);
  const NodeStaticInfo s = info.StaticInfo(id);
  EXPECT_EQ(s.total_area, 1500);
  EXPECT_EQ(s.family.value(), 2u);
  EXPECT_EQ(s.caps.embedded_memory_kb, 256);
  EXPECT_EQ(s.network_delay, 7);
}

TEST(ResourceInformationManager, DynamicInfoTracksState) {
  ResourceStore store(MakeCatalogue({300}));
  const NodeId id = store.AddNode(1000);
  const ResourceInformationManager info(store);

  NodeDynamicInfo d = info.DynamicInfo(id);
  EXPECT_EQ(d.available_area, 1000);
  EXPECT_EQ(d.config_count, 0u);
  EXPECT_FALSE(d.busy);

  const EntryRef e = store.Configure(id, ConfigId{0});
  store.AssignTask(e, TaskId{1});
  d = info.DynamicInfo(id);
  EXPECT_EQ(d.available_area, 700);
  EXPECT_EQ(d.config_count, 1u);
  EXPECT_EQ(d.running_tasks, 1u);
  EXPECT_TRUE(d.busy);
  EXPECT_EQ(d.reconfig_count, 1u);
}

TEST(ResourceInformationManager, SnapshotAggregates) {
  ResourceStore store(MakeCatalogue({300, 500}));
  const NodeId a = store.AddNode(1000);
  const NodeId b = store.AddNode(2000);
  (void)store.AddNode(4000);  // stays blank
  const EntryRef ea = store.Configure(a, ConfigId{0});
  store.AssignTask(ea, TaskId{1});
  (void)store.Configure(b, ConfigId{1});  // idle

  const ResourceInformationManager info(store);
  const SystemSnapshot snap = info.Snapshot(123);
  EXPECT_EQ(snap.at, 123);
  EXPECT_EQ(snap.total_nodes, 3u);
  EXPECT_EQ(snap.blank_nodes, 1u);
  EXPECT_EQ(snap.busy_nodes, 1u);
  EXPECT_EQ(snap.running_tasks, 1u);
  EXPECT_EQ(snap.total_fabric_area, 7000);
  EXPECT_EQ(snap.configured_area, 800);
  EXPECT_EQ(snap.wasted_area, 700 + 1500);
  EXPECT_NEAR(snap.area_utilization, 800.0 / 7000.0, 1e-12);
}

using Arrivals = std::vector<std::pair<Tick, std::uint32_t>>;

/// Runs the kernel to completion and records each arrival's (tick, id).
Arrivals RunArrivals(sim::Kernel& kernel) {
  Arrivals arrivals;
  (void)kernel.Run([&](const sim::FiredEvent& e) {
    EXPECT_EQ(e.event.kind, sim::EventKind::kArrival);
    arrivals.emplace_back(kernel.now(), e.event.a);
  });
  return arrivals;
}

workload::Workload MakeWorkload(std::initializer_list<Tick> create_times) {
  workload::Workload wl;
  for (const Tick at : create_times) {
    workload::GeneratedTask t;
    t.create_time = at;
    t.needed_area = 100;
    t.required_time = 50;
    wl.push_back(t);
  }
  return wl;
}

TEST(JobSubmissionManager, SubmitsArrivalsInOrder) {
  sim::Kernel kernel;
  resource::TaskStore tasks;
  JobSubmissionManager jobs(kernel, tasks);

  const workload::Workload wl = MakeWorkload({10, 20, 30});
  const std::size_t n = jobs.Submit(wl);
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(tasks.size(), 3u);
  EXPECT_EQ(kernel.queue().cursor_pending(), 3u);  // read in place
  const Arrivals arrivals = RunArrivals(kernel);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], (std::pair<Tick, std::uint32_t>{10, 0}));
  EXPECT_EQ(arrivals[2], (std::pair<Tick, std::uint32_t>{30, 2}));
  // Task records carry their creation times.
  EXPECT_EQ(tasks.Get(TaskId{1}).create_time, 20);
  EXPECT_EQ(tasks.Get(TaskId{1}).state, resource::TaskState::kCreated);
}

// A hand-written trace need not be sorted: it takes the event heap, and its
// arrivals fire exactly as those of its stable-sorted copy do.
TEST(JobSubmissionManager, UnsortedWorkloadMatchesItsStableSortedCopy) {
  const workload::Workload unsorted =
      MakeWorkload({40, 10, 30, 10, 40, 0, 30, 10});
  std::vector<std::uint32_t> order(unsorted.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return unsorted[a].create_time < unsorted[b].create_time;
                   });
  workload::Workload sorted;
  for (const std::uint32_t i : order) sorted.push_back(unsorted[i]);

  sim::Kernel heap_kernel;
  resource::TaskStore heap_tasks;
  JobSubmissionManager heap_jobs(heap_kernel, heap_tasks);
  (void)heap_jobs.Submit(unsorted);
  EXPECT_EQ(heap_kernel.queue().cursor_pending(), 0u);
  EXPECT_EQ(heap_kernel.pending_events(), unsorted.size());
  const Arrivals via_heap = RunArrivals(heap_kernel);

  sim::Kernel cursor_kernel;
  resource::TaskStore cursor_tasks;
  JobSubmissionManager cursor_jobs(cursor_kernel, cursor_tasks);
  (void)cursor_jobs.Submit(sorted);
  EXPECT_EQ(cursor_kernel.queue().cursor_pending(), sorted.size());
  Arrivals via_cursor = RunArrivals(cursor_kernel);
  // Task k of the sorted copy is task order[k] of the unsorted workload.
  for (auto& [tick, id] : via_cursor) id = order[id];

  EXPECT_EQ(via_heap, via_cursor);
  EXPECT_EQ(via_heap.front(), (std::pair<Tick, std::uint32_t>{0, 5}));
  EXPECT_EQ(via_heap[1], (std::pair<Tick, std::uint32_t>{10, 1}));
}

TEST(MonitoringModule, TimeWeightedUtilization) {
  ResourceStore store(MakeCatalogue({300}));
  const NodeId id = store.AddNode(1000);
  const ResourceInformationManager info(store);
  MonitoringModule monitor(info);

  monitor.Observe(0, 0);  // idle system
  const EntryRef e = store.Configure(id, ConfigId{0});
  store.AssignTask(e, TaskId{1});
  monitor.Observe(10, 2);  // busy from tick 10
  const UtilizationReport report = monitor.Finish(20);

  // Running tasks: 0 over [0,10), 1 over [10,20) -> average 0.5.
  EXPECT_NEAR(report.avg_running_tasks, 0.5, 1e-12);
  EXPECT_NEAR(report.avg_busy_nodes, 0.5, 1e-12);
  EXPECT_EQ(report.peak_running_tasks, 1u);
  EXPECT_EQ(report.peak_suspended_tasks, 2u);
  EXPECT_EQ(monitor.observations(), 2u);
  EXPECT_EQ(report.observed_until, 20);
}

TEST(LoadBalancer, MeasureOnEmptySystem) {
  ResourceStore store(MakeCatalogue({300}));
  const LoadBalancer lb(store);
  const LoadMetrics m = lb.Measure();
  EXPECT_DOUBLE_EQ(m.mean_running_tasks, 0.0);
  EXPECT_DOUBLE_EQ(m.imbalance, 0.0);
  EXPECT_DOUBLE_EQ(m.fairness, 1.0);
}

TEST(LoadBalancer, MeasureDetectsImbalance) {
  ResourceStore store(MakeCatalogue({300}));
  const NodeId a = store.AddNode(2000);
  (void)store.AddNode(2000);
  const EntryRef e1 = store.Configure(a, ConfigId{0});
  store.AssignTask(e1, TaskId{1});
  const EntryRef e2 = store.Configure(a, ConfigId{0});
  store.AssignTask(e2, TaskId{2});

  const LoadBalancer lb(store);
  const LoadMetrics m = lb.Measure();
  EXPECT_DOUBLE_EQ(m.mean_running_tasks, 1.0);
  EXPECT_GT(m.imbalance, 0.9);
  EXPECT_LT(m.fairness, 0.75);
}

TEST(LoadBalancer, PickLeastLoaded) {
  ResourceStore store(MakeCatalogue({300}));
  const NodeId a = store.AddNode(1000);
  const NodeId b = store.AddNode(2000);
  const NodeId c = store.AddNode(3000);
  const EntryRef e = store.Configure(a, ConfigId{0});
  store.AssignTask(e, TaskId{1});

  const LoadBalancer lb(store);
  const std::vector<NodeId> candidates{a, b, c};
  const auto pick = lb.PickLeastLoaded(candidates);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, c);  // zero load, largest available area

  EXPECT_FALSE(lb.PickLeastLoaded({}).has_value());
}

TEST(LoadBalancer, PickBreaksTiesByIdWhenAreasEqual) {
  ResourceStore store(MakeCatalogue({300}));
  const NodeId a = store.AddNode(1000);
  const NodeId b = store.AddNode(1000);
  const LoadBalancer lb(store);
  const std::vector<NodeId> candidates{b, a};
  const auto pick = lb.PickLeastLoaded(candidates);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, a);
}

}  // namespace
}  // namespace dreamsim::rms
