// Differential proof of the scheduler-index contract (DESIGN.md "Scheduler
// index"): with the O(log N) index on or off, every scheduler query returns
// the same decision and charges the WorkloadMeter the same step counts.
//
// Two layers:
//   1. Store-level twin fuzz: one random operation/query stream applied to
//      an indexed and a scan store in lockstep; results, meters, and
//      invariants must agree after every step.
//   2. Simulator-level: full runs across both reconfiguration modes,
//      priority scheduling on/off, contiguous placement on/off, multiple
//      families, and the heuristic baselines — identical event sequences
//      and bit-identical MetricsReport fields across > 100 randomized
//      seeds.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/structure_auditor.hpp"
#include "core/simulator.hpp"
#include "resource/store.hpp"
#include "util/rng.hpp"

namespace dreamsim {
namespace {

using core::SimEvent;
using core::SimulationConfig;
using core::Simulator;
using resource::ConfigCatalogue;
using resource::Configuration;
using resource::EntryRef;
using resource::HostRank;
using resource::ResourceStore;

// --- Layer 1: store-level twin fuzz ---------------------------------------

struct TwinCase {
  std::uint64_t seed = 0;
  bool contiguous = false;
  int families = 1;
  // Halfway through, both stores gain nodes of a family value none of
  // their nodes had: the indexed store's one-family layout splits.
  bool late_family = false;
};

void PrintTo(const TwinCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << (c.contiguous ? " contiguous" : " scalar")
      << " families=" << c.families;
  if (c.late_family) *os << " late-family";
}

class TwinStores {
 public:
  TwinStores(Rng& rng, bool contiguous, int families)
      : indexed_(MakeCatalogue(rng, families)),
        scan_(indexed_.configs()) {
    scan_.SetIndexed(false);
    EXPECT_TRUE(indexed_.indexed());
    EXPECT_FALSE(scan_.indexed());
    for (int i = 0; i < 40; ++i) {
      const Area area = rng.uniform_int(1000, 4000);
      const auto family =
          FamilyId{static_cast<std::uint32_t>(i % std::max(1, families))};
      (void)indexed_.AddNode(area, family, {}, 0, contiguous);
      (void)scan_.AddNode(area, family, {}, 0, contiguous);
    }
  }

  ResourceStore& indexed() { return indexed_; }
  ResourceStore& scan() { return scan_; }

  /// Meters must agree exactly after every operation.
  void ExpectMetersEqual() {
    ASSERT_EQ(indexed_.meter().scheduling_steps_total(),
              scan_.meter().scheduling_steps_total());
    ASSERT_EQ(indexed_.meter().housekeeping_steps_total(),
              scan_.meter().housekeeping_steps_total());
  }

  void ExpectConsistent() {
    const analysis::AuditReport iv =
        analysis::StructureAuditor::AuditStore(indexed_);
    EXPECT_TRUE(iv.ok()) << "indexed: " << iv.Render();
    const analysis::AuditReport sv =
        analysis::StructureAuditor::AuditStore(scan_);
    EXPECT_TRUE(sv.ok()) << "scan: " << sv.Render();
  }

 private:
  static ConfigCatalogue MakeCatalogue(Rng& rng, int families) {
    ConfigCatalogue catalogue;
    for (int i = 0; i < 12; ++i) {
      Configuration cfg;
      cfg.required_area = rng.uniform_int(200, 2000);
      cfg.config_time = rng.uniform_int(10, 20);
      if (families > 1) {
        cfg.family = FamilyId{static_cast<std::uint32_t>(i % families)};
      }
      catalogue.Add(cfg);
    }
    return catalogue;
  }

  ResourceStore indexed_;
  ResourceStore scan_;
};

class StoreIndexTwinFuzz : public ::testing::TestWithParam<TwinCase> {};

TEST_P(StoreIndexTwinFuzz, QueriesAndMetersAgreeUnderRandomOperations) {
  const TwinCase param = GetParam();
  Rng rng(param.seed);
  TwinStores twins(rng, param.contiguous, param.families);
  ResourceStore& a = twins.indexed();
  ResourceStore& b = twins.scan();

  std::vector<EntryRef> idle_entries;
  std::vector<EntryRef> busy_entries;
  std::uint32_t next_task = 0;

  const auto random_family = [&] {
    // Mix unconstrained queries with per-family ones (including a family
    // no node belongs to).
    const std::int64_t pick = rng.uniform_int(0, param.families + 1);
    if (pick == 0) return FamilyId::invalid();
    return FamilyId{static_cast<std::uint32_t>(pick - 1)};
  };
  const auto random_area = [&] { return rng.uniform_int(100, 4200); };

  for (int op = 0; op < 1200; ++op) {
    if (param.late_family && op == 600) {
      const auto late = FamilyId{static_cast<std::uint32_t>(param.families)};
      for (int i = 0; i < 8; ++i) {
        const Area area = rng.uniform_int(1000, 4000);
        ASSERT_EQ(a.AddNode(area, late, {}, 0, param.contiguous),
                  b.AddNode(area, late, {}, 0, param.contiguous));
      }
      twins.ExpectConsistent();
    }
    switch (rng.uniform_int(0, 11)) {
      case 0: {  // configure a random config onto a random hosting node
        const auto cfg_id = ConfigId{static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(a.configs().size()) - 1))};
        const Configuration& cfg = a.configs().Get(cfg_id);
        const auto node_id = NodeId{static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(a.node_count()) - 1))};
        if (!cfg.CompatibleWith(a.node(node_id).family())) break;
        if (!a.node(node_id).CanHost(cfg.required_area)) break;
        const EntryRef ea = a.Configure(node_id, cfg_id);
        const EntryRef eb = b.Configure(node_id, cfg_id);
        ASSERT_EQ(ea, eb);
        idle_entries.push_back(ea);
        break;
      }
      case 1: {  // assign a task to a random idle entry
        if (idle_entries.empty()) break;
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(idle_entries.size()) - 1));
        const EntryRef e = idle_entries[pick];
        idle_entries[pick] = idle_entries.back();
        idle_entries.pop_back();
        a.AssignTask(e, TaskId{next_task});
        b.AssignTask(e, TaskId{next_task});
        ++next_task;
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
        ASSERT_EQ(a.ReleaseTask(e), b.ReleaseTask(e));
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
        a.ReclaimSlot(e);
        b.ReclaimSlot(e);
        break;
      }
      case 4: {  // blank a random idle node
        const auto node_id = NodeId{static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(a.node_count()) - 1))};
        if (a.node(node_id).busy() || a.node(node_id).blank()) break;
        a.BlankNode(node_id);
        b.BlankNode(node_id);
        std::erase_if(idle_entries,
                      [&](EntryRef e) { return e.node == node_id; });
        break;
      }
      case 5: {
        const Area area = random_area();
        const FamilyId family = random_family();
        ASSERT_EQ(a.FindBestBlankNode(area, family),
                  b.FindBestBlankNode(area, family));
        break;
      }
      case 6: {
        const Area area = random_area();
        const FamilyId family = random_family();
        ASSERT_EQ(a.FindBestPartiallyBlankNode(area, family),
                  b.FindBestPartiallyBlankNode(area, family));
        break;
      }
      case 7: {
        const Area area = random_area();
        const FamilyId family = random_family();
        const auto pa = a.FindAnyIdleNode(area, family);
        const auto pb = b.FindAnyIdleNode(area, family);
        ASSERT_EQ(pa.has_value(), pb.has_value());
        if (pa) {
          ASSERT_EQ(pa->node, pb->node);
          ASSERT_EQ(pa->removable_entries, pb->removable_entries);
        }
        break;
      }
      case 8: {
        const Area area = random_area();
        const FamilyId family = random_family();
        ASSERT_EQ(a.AnyBusyNodeCouldFit(area, family),
                  b.AnyBusyNodeCouldFit(area, family));
        break;
      }
      case 9: {
        const Area area = random_area();
        const FamilyId family = random_family();
        ASSERT_EQ(a.FindBestIdleConfiguredNode(area, family),
                  b.FindBestIdleConfiguredNode(area, family));
        break;
      }
      case 10: {
        const Area area = random_area();
        const FamilyId family = random_family();
        for (const HostRank rank : {HostRank::kFirstFit, HostRank::kBestFit,
                                    HostRank::kWorstFit}) {
          ASSERT_EQ(a.FindRankedHostNode(area, rank, family),
                    b.FindRankedHostNode(area, rank, family));
        }
        break;
      }
      case 11: {
        const Area area = random_area();
        for (std::uint32_t id = 0; id < a.node_count(); ++id) {
          ASSERT_EQ(a.CouldEventuallyHost(NodeId{id}, area),
                    b.CouldEventuallyHost(NodeId{id}, area));
          ASSERT_EQ(a.ReclaimablePotential(NodeId{id}),
                    b.ReclaimablePotential(NodeId{id}));
        }
        break;
      }
    }
    twins.ExpectMetersEqual();
    if (HasFatalFailure()) return;
    if (op % 200 == 0) twins.ExpectConsistent();
  }
  twins.ExpectConsistent();

  // Queries on equal-but-differently-reached stores still agree after the
  // index is rebuilt from scratch (SetIndexed toggling mid-run).
  a.SetIndexed(false);
  a.SetIndexed(true);
  ASSERT_EQ(a.FindBestBlankNode(500), b.FindBestBlankNode(500));
  twins.ExpectConsistent();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, StoreIndexTwinFuzz,
    ::testing::Values(TwinCase{101, false, 1}, TwinCase{102, false, 3},
                      TwinCase{103, true, 1}, TwinCase{104, true, 3},
                      TwinCase{105, false, 2}, TwinCase{106, true, 2},
                      TwinCase{107, false, 1, true},
                      TwinCase{108, true, 1, true}));

TEST(StoreIndexRankedHost, BlankAndNonBlankTiesFallToTheLowestId) {
  // Best and worst fit walk the blank and non-blank sets merged; inside
  // one AvailableArea the reference scans keep the lowest node id, which
  // may sit in either set. Both orders of (blank, non-blank) ids, one
  // store per order, each against its scan twin.
  ConfigCatalogue catalogue;
  Configuration cfg;
  cfg.required_area = 500;
  cfg.config_time = 10;
  catalogue.Add(cfg);
  for (const bool blank_first : {true, false}) {
    ResourceStore indexed(catalogue);
    ResourceStore scan(indexed.configs());
    scan.SetIndexed(false);
    // Available 1500 twice (one blank 1500, one 2000 holding 500), then
    // a blank 1000 below them.
    for (ResourceStore* store : {&indexed, &scan}) {
      const NodeId first = store->AddNode(blank_first ? 1500 : 2000);
      const NodeId second = store->AddNode(blank_first ? 2000 : 1500);
      (void)store->AddNode(1000);
      (void)store->Configure(blank_first ? second : first, ConfigId{0});
    }
    for (const HostRank rank : {HostRank::kBestFit, HostRank::kWorstFit}) {
      for (const Area needed : {Area{900}, Area{1200}}) {
        const auto want = scan.FindRankedHostNode(needed, rank);
        EXPECT_EQ(indexed.FindRankedHostNode(needed, rank), want)
            << "blank_first=" << blank_first << " needed " << needed;
        if (rank == HostRank::kWorstFit || needed == 1200) {
          EXPECT_EQ(want, std::optional<NodeId>{NodeId{0}});
        }
      }
    }
    EXPECT_EQ(indexed.meter().scheduling_steps_total(),
              scan.meter().scheduling_steps_total());
    const analysis::AuditReport audit =
        analysis::StructureAuditor::AuditStore(indexed);
    EXPECT_TRUE(audit.ok()) << audit.Render();
  }
}

// --- Layer 2: full-simulation differential runs ---------------------------

struct SimCase {
  sched::ReconfigMode mode = sched::ReconfigMode::kPartial;
  bool priority = false;
  bool contiguous = false;
  int families = 1;
  core::PolicyChoice policy = core::PolicyChoice::kDreamSim;
};

void PrintTo(const SimCase& c, std::ostream* os) {
  *os << (c.mode == sched::ReconfigMode::kPartial ? "partial" : "full")
      << (c.priority ? " priority" : " fifo")
      << (c.contiguous ? " contiguous" : " scalar") << " families="
      << c.families;
}

struct RunResult {
  std::vector<SimEvent> events;
  core::MetricsReport report;
};

RunResult RunOne(const SimCase& c, std::uint64_t seed, bool indexed) {
  SimulationConfig config;
  config.nodes.count = 24;
  config.nodes.family_count = c.families;
  config.nodes.contiguous_placement = c.contiguous;
  config.configs.count = 10;
  config.configs.family_count = c.families;
  config.tasks.total_tasks = 150;
  config.mode = c.mode;
  config.policy = c.policy;
  config.priority_scheduling = c.priority;
  config.scheduler_index = indexed;
  config.seed = seed;
  // Step-mode structure audit rides along in Debug (end-of-run in Release):
  // the indexed and scan twins must both reconstruct cleanly at every
  // decision, not just return identical answers.
#ifndef NDEBUG
  config.audit = analysis::AuditMode::kStep;
#else
  config.audit = analysis::AuditMode::kEnd;
#endif
  Simulator sim(std::move(config));
  RunResult result;
  sim.SetEventLogger(
      [&](const SimEvent& e) { result.events.push_back(e); });
  result.report = sim.Run();
  EXPECT_EQ(sim.store().indexed(), indexed);
  const analysis::AuditReport audit = sim.AuditStructures();
  EXPECT_TRUE(audit.ok()) << audit.Render();
  return result;
}

void ExpectIdentical(const RunResult& idx, const RunResult& ref) {
  ASSERT_EQ(idx.events.size(), ref.events.size());
  for (std::size_t i = 0; i < idx.events.size(); ++i) {
    const SimEvent& a = idx.events[i];
    const SimEvent& b = ref.events[i];
    ASSERT_EQ(a.kind, b.kind) << "event " << i;
    ASSERT_EQ(a.tick, b.tick) << "event " << i;
    ASSERT_EQ(a.task, b.task) << "event " << i;
    ASSERT_EQ(a.node, b.node) << "event " << i;
    ASSERT_EQ(a.config, b.config) << "event " << i;
  }
  const core::MetricsReport& x = idx.report;
  const core::MetricsReport& y = ref.report;
  EXPECT_EQ(x.total_tasks, y.total_tasks);
  EXPECT_EQ(x.completed_tasks, y.completed_tasks);
  EXPECT_EQ(x.discarded_tasks, y.discarded_tasks);
  EXPECT_EQ(x.suspended_ever, y.suspended_ever);
  EXPECT_EQ(x.closest_match_tasks, y.closest_match_tasks);
  EXPECT_EQ(x.avg_wasted_area_per_task, y.avg_wasted_area_per_task);
  EXPECT_EQ(x.avg_task_running_time, y.avg_task_running_time);
  EXPECT_EQ(x.avg_reconfig_count_per_node, y.avg_reconfig_count_per_node);
  EXPECT_EQ(x.avg_config_time_per_task, y.avg_config_time_per_task);
  EXPECT_EQ(x.avg_waiting_time_per_task, y.avg_waiting_time_per_task);
  EXPECT_EQ(x.avg_scheduling_steps_per_task, y.avg_scheduling_steps_per_task);
  EXPECT_EQ(x.total_scheduler_workload, y.total_scheduler_workload);
  EXPECT_EQ(x.total_used_nodes, y.total_used_nodes);
  EXPECT_EQ(x.total_simulation_time, y.total_simulation_time);
  EXPECT_EQ(x.scheduling_steps_total, y.scheduling_steps_total);
  EXPECT_EQ(x.housekeeping_steps_total, y.housekeeping_steps_total);
  EXPECT_EQ(x.total_reconfigurations, y.total_reconfigurations);
  EXPECT_EQ(x.total_configuration_time, y.total_configuration_time);
  EXPECT_EQ(x.avg_suspension_retries, y.avg_suspension_retries);
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(x.placements_by_kind[k], y.placements_by_kind[k]) << "kind " << k;
  }
  EXPECT_EQ(x.placements_per_config, y.placements_per_config);
}

class StoreIndexSimDiff : public ::testing::TestWithParam<SimCase> {};

TEST_P(StoreIndexSimDiff, IndexedRunsAreBitIdenticalAcrossSeeds) {
  const SimCase c = GetParam();
  // 8 DreamSim combos x 13 seeds + 3 heuristic combos = 110 seeded
  // differential runs overall.
  for (std::uint64_t seed = 1; seed <= 13; ++seed) {
    const RunResult idx = RunOne(c, seed * 7919, true);
    const RunResult ref = RunOne(c, seed * 7919, false);
    ExpectIdentical(idx, ref);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DreamSimCombos, StoreIndexSimDiff,
    ::testing::Values(
        SimCase{sched::ReconfigMode::kPartial, false, false, 1},
        SimCase{sched::ReconfigMode::kPartial, false, true, 2},
        SimCase{sched::ReconfigMode::kPartial, true, false, 3},
        SimCase{sched::ReconfigMode::kPartial, true, true, 1},
        SimCase{sched::ReconfigMode::kFull, false, false, 2},
        SimCase{sched::ReconfigMode::kFull, false, true, 1},
        SimCase{sched::ReconfigMode::kFull, true, false, 1},
        SimCase{sched::ReconfigMode::kFull, true, true, 3}));

class StoreIndexHeuristicDiff
    : public ::testing::TestWithParam<core::PolicyChoice> {};

void ExpectHeuristicRunsIdentical(core::PolicyChoice policy, int families) {
  SimCase c;
  c.policy = policy;
  c.families = families;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const RunResult idx = RunOne(c, seed * 104729, true);
    const RunResult ref = RunOne(c, seed * 104729, false);
    ExpectIdentical(idx, ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(StoreIndexHeuristicDiff, HeuristicBaselinesMatchScans) {
  // Family-bound configurations: every ranked query reads a family view.
  ExpectHeuristicRunsIdentical(GetParam(), 2);
}

TEST_P(StoreIndexHeuristicDiff, OneFamilyHeuristicBaselinesMatchScans) {
  // Universal configurations, the paper's fleet: every ranked query reads
  // the global view, where best and worst fit merge the blank and
  // non-blank sets.
  ExpectHeuristicRunsIdentical(GetParam(), 1);
}

INSTANTIATE_TEST_SUITE_P(Heuristics, StoreIndexHeuristicDiff,
                         ::testing::Values(core::PolicyChoice::kFirstFit,
                                           core::PolicyChoice::kBestFit,
                                           core::PolicyChoice::kWorstFit));

}  // namespace
}  // namespace dreamsim
