// Differential proof of the drain-index contract (DESIGN.md "Scheduler
// index"): with the suspension queue's O(log Q) index on or off, every
// drain decision is identical and every counted operation charges the
// WorkloadMeter the same step counts.
//
// Two layers:
//   1. Queue-level twin fuzz: one random operation stream applied to an
//      indexed and a scan queue in lockstep; results and meters must agree
//      after every step, and the index's drain queries must match a
//      brute-force rescan of the queue. An index serves one drain order,
//      so the fuzz runs once per order with the same operation mix, each
//      instance checking every query of its order.
//   2. Simulator-level: full runs across both reconfiguration modes,
//      priority scheduling on/off, suspension_batch in {0, 1, 8}, retry
//      budgets, bounded-capacity overflow, and contiguous placement —
//      identical event sequences and bit-identical MetricsReport fields
//      across > 100 seeded differential run pairs.
//
// The twin fuzz calls the drain queries raw to compare them against the
// brute-force rescan; meter agreement is asserted separately on the
// counted operations, so the query sites themselves carry no charge.
// lint: allow-file(uncharged-index-query)
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/structure_auditor.hpp"
#include "core/simulator.hpp"
#include "resource/suspension_queue.hpp"
#include "util/rng.hpp"

namespace dreamsim {
namespace {

using core::SimEvent;
using core::SimulationConfig;
using core::Simulator;
using resource::SusEntryAttrs;
using resource::SuspensionQueue;
using resource::WorkloadMeter;

// --- Layer 1: queue-level twin fuzz ---------------------------------------

/// The CouldUseNode / full-mode-fallback predicate in attribute form (the
/// ground truth the index must reproduce).
bool Eligible(const SusEntryAttrs& a, FamilyId family, Area bound,
              ConfigId match) {
  if (match.valid() && a.resolved_config == match) return true;
  const bool compatible =
      !a.config_family.valid() || a.config_family == family;
  return compatible && a.needed_area <= bound;
}

using Seq = SuspensionQueue::Seq;

/// One queued entry as a FIFO walk sees it.
struct Queued {
  Seq seq = 0;
  TaskId task;
};

/// The queue's live entries in FIFO order.
std::vector<Queued> Entries(const SuspensionQueue& queue) {
  std::vector<Queued> out;
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    out.push_back({it.seq(), *it});
  }
  return out;
}

/// Brute-force rescans of the queue, mirroring the simulator's literal
/// loops (first match wins; priority replaces only when strictly greater).
/// Answers are seqs, as the index's are.
struct BruteForce {
  const std::vector<Queued>& queue;
  const std::unordered_map<std::uint32_t, SusEntryAttrs>& attrs;

  [[nodiscard]] const SusEntryAttrs& At(std::size_t i) const {
    return attrs.at(queue[i].task.value());
  }

  [[nodiscard]] std::optional<Seq> OldestExactMatch(ConfigId config) const {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (At(i).resolved_config == config) return queue[i].seq;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::optional<Seq> BestPriorityExactMatch(
      ConfigId config) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (At(i).resolved_config != config) continue;
      if (!best || At(i).priority > At(*best).priority) best = i;
    }
    return SeqOf(best);
  }

  /// Entries queued before seq `from` are skipped.
  [[nodiscard]] std::optional<Seq> OldestEligible(FamilyId family, Area bound,
                                                  Seq from,
                                                  ConfigId match) const {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (queue[i].seq < from) continue;
      if (Eligible(At(i), family, bound, match)) return queue[i].seq;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::optional<Seq> BestPriorityEligible(FamilyId family,
                                                        Area bound,
                                                        ConfigId match) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (!Eligible(At(i), family, bound, match)) continue;
      if (!best || At(i).priority > At(*best).priority) best = i;
    }
    return SeqOf(best);
  }

 private:
  [[nodiscard]] std::optional<Seq> SeqOf(std::optional<std::size_t> i) const {
    if (!i) return std::nullopt;
    return queue[*i].seq;
  }
};

struct QueueTwinCase {
  std::uint64_t seed = 0;
  std::size_t capacity = 0;  // 0 = unbounded
  resource::SusOrder order = resource::SusOrder::kFifo;
};

void PrintTo(const QueueTwinCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " capacity=" << c.capacity;
  if (c.order == resource::SusOrder::kPriority) *os << " priority";
}

class SusDrainTwinFuzz : public ::testing::TestWithParam<QueueTwinCase> {};

TEST_P(SusDrainTwinFuzz, QueriesAndMetersAgreeUnderRandomOperations) {
  const QueueTwinCase param = GetParam();
  Rng rng(param.seed);
  const bool fifo = param.order == resource::SusOrder::kFifo;
  SuspensionQueue indexed(param.capacity, param.order);
  SuspensionQueue scan(param.capacity);
  indexed.SetDrainIndexed(true);
  ASSERT_TRUE(indexed.drain_indexed());
  ASSERT_FALSE(scan.drain_indexed());
  WorkloadMeter meter_indexed;
  WorkloadMeter meter_scan;
  std::unordered_map<std::uint32_t, SusEntryAttrs> attrs_oracle;
  std::uint32_t next_task = 0;

  // Families are a function of the resolved config, as in the simulator
  // (FamilyId of the config, or invalid for unresolved / family-less).
  const auto attrs_for_config = [&rng](ConfigId config) {
    SusEntryAttrs a;
    a.resolved_config = config;
    if (config.valid() && config.value() % 2 == 1) {
      a.config_family = FamilyId{config.value() % 3};
    }
    a.needed_area = rng.uniform_int(100, 2000);
    a.priority = static_cast<double>(rng.uniform_int(0, 8));
    return a;
  };
  const auto random_config = [&rng] {
    const std::int64_t pick = rng.uniform_int(0, 6);
    if (pick == 6) return ConfigId::invalid();
    return ConfigId{static_cast<std::uint32_t>(pick)};
  };
  const auto random_family = [&rng] {
    const std::int64_t pick = rng.uniform_int(0, 3);
    if (pick == 3) return FamilyId::invalid();
    return FamilyId{static_cast<std::uint32_t>(pick)};
  };
  // A uniformly drawn live entry of `queued` (FIFO order).
  const auto random_entry = [&rng](const std::vector<Queued>& queued) {
    return queued[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(queued.size()) - 1))];
  };
  const auto random_queued = [&](const std::vector<Queued>& queued) {
    return queued.empty() ? TaskId::invalid() : random_entry(queued).task;
  };

  for (int op = 0; op < 3000; ++op) {
    const std::vector<Queued> queued = Entries(scan);
    const BruteForce brute{queued, attrs_oracle};
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1: {  // enqueue a fresh task (overflow exercised via capacity)
        const TaskId task{next_task++};
        const SusEntryAttrs attrs = attrs_for_config(random_config());
        const bool ok_indexed = indexed.Add(task, attrs, meter_indexed);
        const bool ok_scan = scan.Add(task, attrs, meter_scan);
        ASSERT_EQ(ok_indexed, ok_scan);
        if (ok_scan) attrs_oracle[task.value()] = attrs;
        break;
      }
      case 2: {  // counted membership, present or absent
        const TaskId present = random_queued(queued);
        const TaskId task = (present.valid() && rng.uniform_int(0, 1) == 0)
                                ? present
                                : TaskId{next_task + 17};
        ASSERT_EQ(indexed.Contains(task, meter_indexed),
                  scan.Contains(task, meter_scan));
        break;
      }
      case 3: {  // counted removal, present or absent
        const TaskId present = random_queued(queued);
        const TaskId task = (present.valid() && rng.uniform_int(0, 1) == 0)
                                ? present
                                : TaskId{next_task + 23};
        ASSERT_EQ(indexed.Remove(task, meter_indexed),
                  scan.Remove(task, meter_scan));
        attrs_oracle.erase(task.value());
        break;
      }
      case 4: {  // removal by seq
        if (queued.empty()) break;
        const Queued entry = random_entry(queued);
        attrs_oracle.erase(entry.task.value());
        indexed.RemoveSeq(entry.seq, meter_indexed);
        scan.RemoveSeq(entry.seq, meter_scan);
        break;
      }
      case 5: {  // predicate pop (FinishReport-style drain step)
        const std::uint32_t residue =
            static_cast<std::uint32_t>(rng.uniform_int(0, 2));
        const auto pred = [residue](TaskId t) {
          return t.value() % 3 == residue;
        };
        const auto popped_indexed =
            indexed.PopFirstMatching(pred, meter_indexed);
        const auto popped_scan = scan.PopFirstMatching(pred, meter_scan);
        ASSERT_EQ(popped_indexed, popped_scan);
        if (popped_scan) attrs_oracle.erase(popped_scan->value());
        break;
      }
      case 6: {  // the partial drain's own call pattern
        // DrainPartialFifo: a seq cursor that only moves forward (with its
        // FIFO position for the charges), each answer attempted and
        // removed, until nothing is eligible or an attempt leaves its task
        // queued. DrainPartialPriority: the same loop on the best-priority
        // pick, without a cursor.
        const FamilyId family = random_family();
        const Area bound = rng.uniform_int(0, 2200);
        const ConfigId match = random_config();
        Seq from = 0;
        std::size_t index = 0;
        while (index < scan.size()) {
          const std::vector<Queued> live = Entries(scan);
          const BruteForce now{live, attrs_oracle};
          const std::optional<Seq> pick =
              fifo ? indexed.OldestEligible(family, bound, from, match)
                   : indexed.BestPriorityEligible(family, bound, match);
          ASSERT_EQ(pick, fifo ? now.OldestEligible(family, bound, from, match)
                               : now.BestPriorityEligible(family, bound,
                                                          match));
          if (!pick || rng.uniform_int(0, 4) == 0) break;  // task stays
          const std::size_t position = scan.PositionOf(*pick);
          ASSERT_EQ(indexed.PositionOf(*pick), position);
          ASSERT_EQ(live.at(position).seq, *pick);
          attrs_oracle.erase(scan.TaskAt(*pick).value());
          indexed.RemoveSeq(*pick, meter_indexed);
          scan.RemoveSeq(*pick, meter_scan);
          if (fifo) {
            from = *pick + 1;
            index = position;
          }
        }
        break;
      }
      case 7: {  // full-mode exact-match pick
        const ConfigId config = random_config();
        if (fifo) {
          ASSERT_EQ(indexed.OldestExactMatch(config),
                    brute.OldestExactMatch(config));
        } else {
          ASSERT_EQ(indexed.BestPriorityExactMatch(config),
                    brute.BestPriorityExactMatch(config));
        }
        break;
      }
      case 8: {  // partial FIFO pick from a cursor / partial priority pick
        if (queued.empty()) break;
        const FamilyId family = random_family();
        const Area bound = rng.uniform_int(0, 2200);
        const Seq from = random_entry(queued).seq;
        const ConfigId match = random_config();
        if (fifo) {
          ASSERT_EQ(indexed.OldestEligible(family, bound, from, match),
                    brute.OldestEligible(family, bound, from, match));
        } else {
          ASSERT_EQ(indexed.BestPriorityEligible(family, bound, match),
                    brute.BestPriorityEligible(family, bound, match));
        }
        break;
      }
      case 9: {  // full-mode fallback pick (no exact-match rule)
        const FamilyId family = random_family();
        const Area bound = rng.uniform_int(0, 2200);
        if (fifo) {
          ASSERT_EQ(indexed.OldestEligible(family, bound, 0,
                                           ConfigId::invalid()),
                    brute.OldestEligible(family, bound, 0,
                                         ConfigId::invalid()));
        } else {
          ASSERT_EQ(indexed.BestPriorityEligible(family, bound,
                                                 ConfigId::invalid()),
                    brute.BestPriorityEligible(family, bound,
                                               ConfigId::invalid()));
        }
        break;
      }
    }
    ASSERT_EQ(meter_indexed.scheduling_steps_total(),
              meter_scan.scheduling_steps_total());
    ASSERT_EQ(meter_indexed.housekeeping_steps_total(),
              meter_scan.housekeeping_steps_total());
    ASSERT_EQ(indexed.size(), scan.size());
    if (op % 250 == 0) {
      const analysis::AuditReport audit =
          analysis::StructureAuditor::AuditSuspensionQueue(indexed);
      ASSERT_TRUE(audit.ok()) << "op " << op << "\n" << audit.Render();
    }
  }

  // Rebuilding from live content (index toggled mid-run) preserves both
  // attributes and query answers.
  indexed.SetDrainIndexed(false);
  indexed.SetDrainIndexed(true);
  const analysis::AuditReport audit =
      analysis::StructureAuditor::AuditSuspensionQueue(indexed);
  ASSERT_TRUE(audit.ok()) << audit.Render();
  const std::vector<Queued> queued = Entries(scan);
  const BruteForce brute{queued, attrs_oracle};
  if (fifo) {
    ASSERT_EQ(indexed.OldestEligible(FamilyId{1}, 1500, 0, ConfigId{2}),
              brute.OldestEligible(FamilyId{1}, 1500, 0, ConfigId{2}));
  } else {
    ASSERT_EQ(indexed.BestPriorityEligible(FamilyId{1}, 1500, ConfigId{2}),
              brute.BestPriorityEligible(FamilyId{1}, 1500, ConfigId{2}));
  }
}

constexpr resource::SusOrder kPrio = resource::SusOrder::kPriority;

TEST(SusDrainIndex, ExactMatchesBehindTheCursorAreSkipped) {
  // The exact-match rule of OldestEligible walks its config's list from
  // the head past seqs below the cursor. The drain never leaves one there,
  // so its walk takes no step; an arbitrary cursor makes it walk, up to
  // running off the list's tail. Every cursor seq, a removed one and one
  // past the newest included, must agree with the brute-force rescan.
  SuspensionQueue indexed;
  indexed.SetDrainIndexed(true);
  WorkloadMeter meter;
  std::unordered_map<std::uint32_t, SusEntryAttrs> attrs;
  for (std::uint32_t t = 0; t < 12; ++t) {
    SusEntryAttrs a;
    a.resolved_config = ConfigId{t % 3 == 0 ? 7u : t % 2};
    a.needed_area = t % 3 == 0 ? 1900 : 1000 + t;
    attrs[t] = a;
    ASSERT_TRUE(indexed.Add(TaskId{t}, a, meter));
  }
  ASSERT_TRUE(indexed.Remove(TaskId{3}, meter));  // a hole in config 7's list
  attrs.erase(3);
  const std::vector<Queued> queued = Entries(indexed);
  const BruteForce brute{queued, attrs};
  for (const Area bound : {Area{500}, Area{1005}}) {
    for (Seq from = 0; from <= 12; ++from) {
      EXPECT_EQ(indexed.OldestEligible(FamilyId::invalid(), bound, from,
                                       ConfigId{7}),
                brute.OldestEligible(FamilyId::invalid(), bound, from,
                                     ConfigId{7}))
          << "bound " << bound << " from " << from;
    }
  }
}

TEST(SusDrainIndex, CursorResumesOnTheSeqAfterARemovedEntry) {
  // DrainPartialFifo's indexed pass against its literal walk: each pick is
  // removed at the cursor and the pass resumes on the next seq, whose
  // FIFO position is the removed entry's. Tombstones (removed before the
  // pass) and exact matches past the area bound sit among the picks; the
  // removed tasks and the step charges must agree.
  SuspensionQueue indexed;
  SuspensionQueue scan;
  indexed.SetDrainIndexed(true);
  WorkloadMeter meter_indexed;
  WorkloadMeter meter_scan;
  std::unordered_map<std::uint32_t, SusEntryAttrs> attrs;
  for (std::uint32_t t = 0; t < 10; ++t) {
    SusEntryAttrs a;
    a.resolved_config = ConfigId{t % 3};
    a.needed_area = t % 4 == 1 ? 900 : 300;
    attrs[t] = a;
    ASSERT_TRUE(indexed.Add(TaskId{t}, a, meter_indexed));
    ASSERT_TRUE(scan.Add(TaskId{t}, a, meter_scan));
  }
  for (const TaskId gone : {TaskId{2}, TaskId{6}}) {
    ASSERT_TRUE(indexed.Remove(gone, meter_indexed));
    ASSERT_TRUE(scan.Remove(gone, meter_scan));
  }
  const Area bound = 500;
  const ConfigId match{1};  // tasks 1, 4, 7: 900, 300, 300
  const auto eligible = [&](TaskId t) {
    return Eligible(attrs.at(t.value()), FamilyId::invalid(), bound, match);
  };

  std::vector<TaskId> removed_indexed;
  Seq from = 0;
  std::size_t index = 0;
  while (index < indexed.size()) {
    const std::optional<Seq> next =
        indexed.OldestEligible(FamilyId::invalid(), bound, from, match);
    if (!next) {
      meter_indexed.Add(resource::StepKind::kSchedulingSearch,
                        indexed.size() - index);
      break;
    }
    const std::size_t position = indexed.PositionOf(*next);
    meter_indexed.Add(resource::StepKind::kSchedulingSearch,
                      position - index + 1);
    removed_indexed.push_back(indexed.TaskAt(*next));
    indexed.RemoveSeq(*next, meter_indexed);
    EXPECT_EQ(indexed.TaskAt(*next), TaskId::invalid());
    from = *next + 1;
    index = position;
  }

  std::vector<TaskId> removed_scan;
  auto it = scan.begin();
  while (it != scan.end()) {
    meter_scan.Add(resource::StepKind::kSchedulingSearch);
    const auto following = std::next(it);
    if (eligible(*it)) {
      removed_scan.push_back(*it);
      scan.RemoveSeq(it.seq(), meter_scan);
    }
    it = following;
  }

  // Every entry but 2, 6 (gone) and 5, 9 (area 900, not config 1).
  EXPECT_EQ(removed_indexed,
            (std::vector<TaskId>{TaskId{0}, TaskId{1}, TaskId{3}, TaskId{4},
                                 TaskId{7}, TaskId{8}}));
  EXPECT_EQ(removed_indexed, removed_scan);
  EXPECT_EQ(meter_indexed.scheduling_steps_total(),
            meter_scan.scheduling_steps_total());
  EXPECT_EQ(meter_indexed.housekeeping_steps_total(),
            meter_scan.housekeeping_steps_total());
  EXPECT_EQ(Entries(indexed).size(), 2u);
  const analysis::AuditReport audit =
      analysis::StructureAuditor::AuditSuspensionQueue(indexed);
  EXPECT_TRUE(audit.ok()) << audit.Render();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SusDrainTwinFuzz,
    ::testing::Values(QueueTwinCase{201, 0}, QueueTwinCase{202, 0},
                      QueueTwinCase{203, 25}, QueueTwinCase{204, 8},
                      QueueTwinCase{205, 0}, QueueTwinCase{206, 40},
                      QueueTwinCase{201, 0, kPrio}, QueueTwinCase{202, 0, kPrio},
                      QueueTwinCase{203, 25, kPrio},
                      QueueTwinCase{204, 8, kPrio},
                      QueueTwinCase{205, 0, kPrio},
                      QueueTwinCase{206, 40, kPrio}));

// --- Layer 2: full-simulation differential runs ---------------------------

struct SimCase {
  sched::ReconfigMode mode = sched::ReconfigMode::kPartial;
  bool priority = false;
  std::size_t batch = 8;       // suspension_batch (0 = whole queue)
  std::uint32_t retries = 0;   // max_suspension_retries (0 = unbounded)
  std::size_t capacity = 0;    // suspension_capacity (0 = unbounded)
  bool contiguous = false;
  int families = 1;
};

void PrintTo(const SimCase& c, std::ostream* os) {
  *os << (c.mode == sched::ReconfigMode::kPartial ? "partial" : "full")
      << (c.priority ? " priority" : " fifo") << " batch=" << c.batch
      << " retries=" << c.retries << " capacity=" << c.capacity
      << (c.contiguous ? " contiguous" : " scalar")
      << " families=" << c.families;
}

/// A saturating workload with non-degenerate priorities (the generator
/// leaves priority at 0; drawing it here exercises the priority-ordered
/// drain paths for real).
std::vector<workload::GeneratedTask> MakeWorkload(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<workload::GeneratedTask> tasks;
  Tick at = 0;
  for (int i = 0; i < 140; ++i) {
    workload::GeneratedTask t;
    at += rng.uniform_int(1, 4);
    t.create_time = at;
    if (rng.uniform_int(0, 9) < 8) {
      t.preferred_config =
          ConfigId{static_cast<std::uint32_t>(rng.uniform_int(0, 7))};
    }
    t.needed_area = rng.uniform_int(200, 2000);
    t.required_time = rng.uniform_int(60, 600);
    t.priority = static_cast<double>(rng.uniform_int(0, 9));
    tasks.push_back(t);
  }
  return tasks;
}

struct RunResult {
  std::vector<SimEvent> events;
  core::MetricsReport report;
};

RunResult RunOne(const SimCase& c, std::uint64_t seed, bool indexed) {
  SimulationConfig config;
  config.nodes.count = 16;
  config.nodes.family_count = c.families;
  config.nodes.contiguous_placement = c.contiguous;
  config.configs.count = 8;
  config.configs.family_count = c.families;
  config.mode = c.mode;
  config.priority_scheduling = c.priority;
  config.suspension_batch = c.batch;
  config.max_suspension_retries = c.retries;
  config.suspension_capacity = c.capacity;
  config.drain_index = indexed;
  config.seed = seed;
  // Structure audit rides along: every decision in Debug, end-of-run in
  // Release (see test_simulator_fuzz.cpp).
#ifndef NDEBUG
  config.audit = analysis::AuditMode::kStep;
#else
  config.audit = analysis::AuditMode::kEnd;
#endif
  Simulator sim(std::move(config));
  RunResult result;
  sim.SetEventLogger([&](const SimEvent& e) { result.events.push_back(e); });
  result.report = sim.RunWithWorkload(MakeWorkload(seed));
  EXPECT_EQ(sim.suspension().drain_indexed(), indexed);
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

class SusDrainSimDiff : public ::testing::TestWithParam<SimCase> {};

TEST_P(SusDrainSimDiff, IndexedRunsAreBitIdenticalAcrossSeeds) {
  const SimCase c = GetParam();
  // 9 combos x 13 seeds = 117 seeded differential run pairs overall.
  std::uint64_t suspended_total = 0;
  for (std::uint64_t seed = 1; seed <= 13; ++seed) {
    const RunResult idx = RunOne(c, seed * 6151, true);
    const RunResult ref = RunOne(c, seed * 6151, false);
    ExpectIdentical(idx, ref);
    suspended_total += idx.report.suspended_ever;
    if (HasFatalFailure()) return;
  }
  // The workload must actually exercise the drain paths being compared.
  EXPECT_GT(suspended_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DrainCombos, SusDrainSimDiff,
    ::testing::Values(
        SimCase{sched::ReconfigMode::kPartial, false, 8, 0, 0, false, 1},
        SimCase{sched::ReconfigMode::kPartial, false, 0, 2, 0, true, 1},
        SimCase{sched::ReconfigMode::kPartial, false, 1, 0, 12, false, 2},
        SimCase{sched::ReconfigMode::kPartial, true, 8, 3, 0, false, 1},
        SimCase{sched::ReconfigMode::kPartial, true, 0, 0, 10, false, 2},
        SimCase{sched::ReconfigMode::kPartial, true, 1, 1, 0, true, 1},
        SimCase{sched::ReconfigMode::kFull, false, 8, 0, 0, false, 1},
        SimCase{sched::ReconfigMode::kFull, true, 8, 2, 0, false, 2},
        SimCase{sched::ReconfigMode::kFull, false, 1, 1, 8, true, 1}));

}  // namespace
}  // namespace dreamsim
