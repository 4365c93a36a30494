// Differential proof of the drain-index contract (DESIGN.md "Scheduler
// index"): with the suspension queue's O(log Q) index on or off, every
// drain decision is identical and every counted operation charges the
// WorkloadMeter the same step counts.
//
// Two layers:
//   1. Queue-level twin fuzz: one random operation stream applied to an
//      indexed and a scan queue in lockstep, each beside its own copy of
//      one small fleet. Every completion drain (full and partial shape,
//      batch 0, 1, 2 and 8, repair drains with no freed config) must
//      attempt the same seqs in the same order and charge the same steps,
//      with attempts that place, drop or keep their entry, placements
//      that change the node between attempts, tombstone runs across
//      64-seq words and removed seqs inside a config's forward order
//      behind its head. A standalone SusQueueIndex
//      mirrors the queue so that its raw queries, from any cursor, can be
//      checked against a brute-force rescan. The fuzz runs once per drain
//      order: a priority-order queue builds no index, so its twins must
//      both walk and agree.
//   2. Simulator-level: full runs across both reconfiguration modes,
//      priority scheduling on/off (priority order walks whatever
//      drain_index says), suspension_batch in {0, 1, 8}, retry
//      budgets, bounded-capacity overflow, and contiguous placement —
//      identical event sequences and bit-identical MetricsReport fields
//      across > 100 seeded differential run pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/structure_auditor.hpp"
#include "core/simulator.hpp"
#include "resource/store.hpp"
#include "resource/suspension_queue.hpp"
#include "util/rng.hpp"

namespace dreamsim {
namespace {

using core::SimEvent;
using core::SimulationConfig;
using core::Simulator;
using resource::ResourceStore;
using resource::SusEntryAttrs;
using resource::SuspensionQueue;
using resource::SusQueueIndex;
using resource::WorkloadMeter;

// --- Layer 1: queue-level twin fuzz ---------------------------------------

/// The partial-drain / full-mode-fallback predicate in attribute form
/// with a fixed area bound (the ground truth the index must reproduce).
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
  friend bool operator==(const Queued&, const Queued&) = default;
};

/// The queue's live entries in FIFO order.
std::vector<Queued> Entries(const SuspensionQueue& queue) {
  std::vector<Queued> out;
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    out.push_back({it.seq(), *it});
  }
  return out;
}

/// Brute-force rescans of a queue's content (first match wins). Answers
/// are seqs, as the index's are.
struct BruteForce {
  const std::vector<Queued>& queue;
  const std::unordered_map<std::uint32_t, SusEntryAttrs>& attrs;

  [[nodiscard]] const SusEntryAttrs& At(std::size_t i) const {
    return attrs.at(queue[i].task.value());
  }

  [[nodiscard]] std::optional<std::uint64_t> OldestExactMatch(
      ConfigId config) const {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (At(i).resolved_config == config) return queue[i].seq;
    }
    return std::nullopt;
  }

  /// Entries queued before seq `from` are skipped.
  [[nodiscard]] std::optional<std::uint64_t> OldestEligible(
      FamilyId family, Area bound, Seq from, ConfigId match) const {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (queue[i].seq < from) continue;
      if (Eligible(At(i), family, bound, match)) return queue[i].seq;
    }
    return std::nullopt;
  }

};

constexpr std::uint32_t kFuzzConfigs = 7;

/// The family a fuzz config pins: odd configs one of three families, even
/// ones none (a task resolved to them runs anywhere).
FamilyId ConfigFamily(ConfigId config) {
  if (!config.valid() || config.value() % 2 == 0) return FamilyId::invalid();
  return FamilyId{config.value() % 3};
}

/// The fuzz fleet: kFuzzConfigs configurations and four blank nodes of
/// three families. Every twin builds its own identical copy.
ResourceStore MakeFleet() {
  resource::ConfigCatalogue configs;
  for (std::uint32_t c = 0; c < kFuzzConfigs; ++c) {
    resource::Configuration cfg;
    cfg.required_area = 150 + 130 * static_cast<Area>(c);
    cfg.config_time = 10;
    cfg.family = ConfigFamily(ConfigId{c});
    configs.Add(cfg);
  }
  ResourceStore store(std::move(configs));
  (void)store.AddNode(1200, FamilyId{0});
  (void)store.AddNode(2000, FamilyId{1});
  (void)store.AddNode(800, FamilyId{2});
  (void)store.AddNode(2500, FamilyId{0});
  return store;
}

/// One random fleet mutation (configure, assign, release, reclaim, fail
/// or repair on one node). Twins in the same state given equal `rng`
/// seeds make the same mutation.
void Churn(ResourceStore& store, Rng& rng) {
  const NodeId node{static_cast<std::uint32_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(store.node_count()) - 1))};
  const resource::Node& n = store.node(node);
  std::vector<resource::SlotIndex> idle;
  std::vector<resource::SlotIndex> busy;
  n.ForEachSlot([&](resource::SlotIndex slot,
                    const resource::ConfigTaskPair& pair) {
    (pair.idle() ? idle : busy).push_back(slot);
  });
  const auto pick = [&](const std::vector<resource::SlotIndex>& slots) {
    return resource::EntryRef{
        node, slots[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(slots.size()) - 1))]};
  };
  switch (rng.uniform_int(0, 6)) {
    case 0:
    case 1: {
      const ConfigId config{static_cast<std::uint32_t>(
          rng.uniform_int(0, kFuzzConfigs - 1))};
      const resource::Configuration& c = store.configs().Get(config);
      if (!n.failed() && c.CompatibleWith(n.family()) &&
          n.CanHost(c.required_area)) {
        (void)store.Configure(node, config);
      }
      break;
    }
    case 2:
    case 3:
      if (!idle.empty()) {
        store.AssignTask(pick(idle),
                         TaskId{static_cast<std::uint32_t>(
                             rng.uniform_int(0, 1'000'000))});
      }
      break;
    case 4:
      if (!busy.empty()) (void)store.ReleaseTask(pick(busy));
      break;
    case 5:
      if (!idle.empty()) store.ReclaimSlot(pick(idle));
      break;
    case 6:
      if (n.failed()) {
        store.RepairNode(node);
      } else {
        (void)store.FailNode(node);
      }
      break;
  }
}

/// A queue beside its own fleet (whose catalogue it reads) and meter.
struct Twin {
  Twin(const resource::TaskStore& tasks, std::size_t capacity,
       resource::SusOrder order)
      : queue(tasks, store.configs(), capacity, order) {}
  // The queue holds the address of the store's catalogue.
  Twin(const Twin&) = delete;
  Twin& operator=(const Twin&) = delete;

  ResourceStore store = MakeFleet();
  SuspensionQueue queue;
  WorkloadMeter meter;
};

/// One completion (or, with `freed` invalid, repair) drain.
struct DrainCall {
  bool full = false;
  NodeId node;
  ConfigId freed;
  std::size_t batch = 0;
  std::uint64_t salt = 0;  // varies the attempt outcomes per call
};

std::uint64_t Mix(std::uint64_t salt, Seq seq) {
  std::uint64_t h = (salt + 1) * 0x9e3779b97f4a7c15ULL ^ seq;
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 29);
}

/// Runs `call` on `twin`; returns the attempted seqs in order. The
/// attempt outcome is a function of (salt, seq): a quarter of the
/// attempts leave their entry queued (the policy suspended it again), the
/// rest remove it, and a third of those mutate the node's fleet, as a
/// placement does, before the drain's next pick.
std::vector<Seq> RunDrain(Twin& twin, const DrainCall& call) {
  std::vector<Seq> attempted;
  const auto attempt = [&](Seq seq) {
    attempted.push_back(seq);
    const std::uint64_t h = Mix(call.salt, seq);
    if (h % 4 == 0) return;
    twin.queue.RemoveSeq(seq, twin.meter);
    if (h % 3 == 0) {
      Rng rng(h);
      Churn(twin.store, rng);
    }
  };
  if (call.full) {
    twin.queue.DrainFull(twin.store, call.node, call.freed, twin.meter,
                         attempt);
  } else {
    twin.queue.DrainPartial(twin.store, call.node, call.freed, call.batch,
                            twin.meter, attempt);
  }
  return attempted;
}

struct QueueTwinCase {
  std::uint64_t seed = 0;
  std::size_t capacity = 0;  // 0 = unbounded
  resource::SusOrder order = resource::SusOrder::kFifo;
  /// Submit the tasks in borrowed batches whose priorities sit in the
  /// batch's priority column, instead of one owned task at a time.
  bool columns = false;
};

void PrintTo(const QueueTwinCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " capacity=" << c.capacity;
  if (c.order == resource::SusOrder::kPriority) *os << " priority";
  if (c.columns) *os << " columns";
}

class SusDrainTwinFuzz : public ::testing::TestWithParam<QueueTwinCase> {};

TEST_P(SusDrainTwinFuzz, QueriesAndMetersAgreeUnderRandomOperations) {
  const QueueTwinCase param = GetParam();
  Rng rng(param.seed);
  const bool fifo = param.order == resource::SusOrder::kFifo;
  resource::TaskStore tasks;
  Twin indexed(tasks, param.capacity, param.order);
  Twin scan(tasks, param.capacity, param.order);
  indexed.queue.SetDrainIndexed(true);
  scan.queue.SetDrainIndexed(false);
  ASSERT_EQ(indexed.queue.drain_indexed(), fifo);
  SusQueueIndex mirror;
  Seq next_seq = 0;
  std::unordered_map<std::uint32_t, SusEntryAttrs> attrs_oracle;
  std::uint64_t drains = 0;
  std::uint64_t drain_attempts = 0;

  // Borrowed batches of fresh tasks (param.columns): specs plus a
  // priority column, drawn kBatch at a time.
  struct Batch {
    std::vector<resource::TaskSpec> specs;
    std::vector<double> priority;
  };
  constexpr std::size_t kBatch = 16;
  std::deque<Batch> batches;  // stable: the store borrows every batch
  std::size_t next_in_batch = kBatch;
  // A fresh task with a random area in its spec and a random priority,
  // resolved to `config`. Families are a function of the resolved config,
  // as in the simulator (FamilyId of the config, or invalid for
  // unresolved / family-less).
  const auto new_task = [&](ConfigId config) {
    resource::TaskSpec spec;
    TaskId id;
    if (!param.columns) {
      spec.required_time = 10;
      spec.needed_area = rng.uniform_int(100, 2000);
      id = tasks.SubmitOne(spec, 0,
                           static_cast<double>(rng.uniform_int(0, 8)));
    } else {
      if (next_in_batch == kBatch) {
        Batch& batch = batches.emplace_back();
        for (std::size_t k = 0; k < kBatch; ++k) {
          resource::TaskSpec& fresh = batch.specs.emplace_back();
          fresh.required_time = 10;
          fresh.needed_area = rng.uniform_int(100, 2000);
          batch.priority.push_back(
              static_cast<double>(rng.uniform_int(0, 8)));
        }
        tasks.Submit(batch.specs, {}, batch.priority);
        next_in_batch = 0;
      }
      spec = batches.back().specs[next_in_batch];
      id = TaskId{static_cast<std::uint32_t>(tasks.size() - kBatch +
                                             next_in_batch)};
      ++next_in_batch;
    }
    SusEntryAttrs a;
    a.resolved_config = config;
    a.config_family = ConfigFamily(config);
    a.needed_area = spec.needed_area;
    return std::make_pair(id, a);
  };
  const auto random_config = [&rng] {
    const std::int64_t pick = rng.uniform_int(0, kFuzzConfigs);
    if (pick == kFuzzConfigs) return ConfigId::invalid();
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
  // Drops a removed entry from the oracle and the mirror index.
  const auto forget = [&](Seq seq, TaskId task) {
    mirror.Remove(seq, attrs_oracle.at(task.value()));
    attrs_oracle.erase(task.value());
  };
  // Enqueues a fresh task in both twins and the mirror.
  const auto enqueue = [&] {
    const auto [task, attrs] = new_task(random_config());
    const bool ok_indexed =
        indexed.queue.Add(task, attrs.resolved_config, indexed.meter);
    const bool ok_scan = scan.queue.Add(task, attrs.resolved_config,
                                        scan.meter);
    ASSERT_EQ(ok_indexed, ok_scan);
    if (ok_scan) {
      attrs_oracle[task.value()] = attrs;
      mirror.Add(next_seq, attrs);
      ASSERT_EQ(indexed.queue.AttrsAt(next_seq).needed_area, attrs.needed_area);
      ++next_seq;
    }
  };
  // Removes `entry` from both twins, the oracle and the mirror.
  const auto remove = [&](const Queued& entry) {
    indexed.queue.RemoveSeq(entry.seq, indexed.meter);
    scan.queue.RemoveSeq(entry.seq, scan.meter);
    forget(entry.seq, entry.task);
  };
  const auto drain_both = [&](const DrainCall& call,
                              const std::vector<Queued>& before) {
    const std::vector<Seq> seqs_indexed = RunDrain(indexed, call);
    const std::vector<Seq> seqs_scan = RunDrain(scan, call);
    ASSERT_EQ(seqs_indexed, seqs_scan);
    ++drains;
    drain_attempts += seqs_scan.size();
    for (const Queued& q : before) {
      if (!scan.queue.TaskAt(q.seq).valid()) forget(q.seq, q.task);
    }
  };
  const auto random_drain = [&](bool repair) {
    DrainCall call;
    call.full = rng.uniform_int(0, 2) == 0;
    call.node = NodeId{static_cast<std::uint32_t>(rng.uniform_int(0, 3))};
    call.freed = repair ? ConfigId::invalid() : random_config();
    constexpr std::size_t kBatches[] = {0, 1, 2, 8};
    call.batch = kBatches[rng.uniform_int(0, 3)];
    call.salt = static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000));
    return call;
  };

  for (int op = 0; op < 3000; ++op) {
    const std::vector<Queued> queued = Entries(scan.queue);
    const BruteForce brute{queued, attrs_oracle};
    switch (rng.uniform_int(0, 11)) {
      case 0:
      case 1:  // enqueue a fresh task (overflow exercised via capacity)
        enqueue();
        break;
      case 2: {  // the fleet moves on between drains
        const auto seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
        Rng a(seed);
        Churn(indexed.store, a);
        Rng b(seed);
        Churn(scan.store, b);
        break;
      }
      case 3: {  // front pop (FinishReport's sweep)
        const auto popped_indexed = indexed.queue.PopFront(indexed.meter);
        const auto popped_scan = scan.queue.PopFront(scan.meter);
        ASSERT_EQ(popped_indexed, popped_scan);
        if (popped_scan) forget(queued.front().seq, *popped_scan);
        break;
      }
      case 4: {  // removal by seq
        if (queued.empty()) break;
        remove(random_entry(queued));
        break;
      }
      case 5:
      case 6:
      case 7: {  // a completion drain
        drain_both(random_drain(/*repair=*/false), queued);
        break;
      }
      case 8: {  // a repair drain: nothing to reuse on the revived node
        drain_both(random_drain(/*repair=*/true), queued);
        break;
      }
      case 9: {  // raw index queries from any cursor, against a rescan
        const FamilyId family = random_family();
        const Area bound = rng.uniform_int(0, 2200);
        const ConfigId config = random_config();
        const ConfigId match = random_config();
        const Seq from = queued.empty() ? 0 : random_entry(queued).seq;
        ASSERT_EQ(mirror.OldestExactMatch(config),
                  brute.OldestExactMatch(config));
        ASSERT_EQ(mirror.OldestEligible(family, bound, from, match),
                  brute.OldestEligible(family, bound, from, match));
        break;
      }
      case 10: {  // a burst, then a tombstone run across 64-seq words
        const auto burst = rng.uniform_int(20, 140);
        for (std::int64_t k = 0; k < burst && !HasFatalFailure(); ++k) {
          enqueue();
        }
        const std::vector<Queued> now = Entries(scan.queue);
        if (now.empty()) break;
        auto first = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(now.size()) - 1));
        const auto run = static_cast<std::size_t>(rng.uniform_int(1, 130));
        for (std::size_t k = first; k < std::min(now.size(), first + run);
             ++k) {
          remove(now[k]);
        }
        break;
      }
      case 11: {  // removals inside one config's order, behind its head
        if (queued.empty()) break;
        const ConfigId config =
            attrs_oracle.at(random_entry(queued).task.value()).resolved_config;
        bool behind_head = false;
        for (const Queued& entry : queued) {
          if (attrs_oracle.at(entry.task.value()).resolved_config != config) {
            continue;
          }
          if (behind_head && rng.uniform_int(0, 1) == 0) remove(entry);
          behind_head = true;
        }
        break;
      }
    }
    if (HasFatalFailure()) return;
    ASSERT_EQ(indexed.meter.scheduling_steps_total(),
              scan.meter.scheduling_steps_total())
        << "op " << op;
    ASSERT_EQ(indexed.meter.housekeeping_steps_total(),
              scan.meter.housekeeping_steps_total())
        << "op " << op;
    ASSERT_EQ(Entries(indexed.queue), Entries(scan.queue)) << "op " << op;
    if (op % 250 == 0) {
      const analysis::AuditReport audit =
          analysis::StructureAuditor::AuditSuspensionQueue(indexed.queue);
      ASSERT_TRUE(audit.ok()) << "op " << op << "\n" << audit.Render();
    }
  }

  // Rebuilding from live content (index toggled mid-run) preserves both
  // attributes and drain answers.
  indexed.queue.SetDrainIndexed(false);
  indexed.queue.SetDrainIndexed(true);
  ASSERT_EQ(indexed.queue.drain_indexed(), fifo);
  const analysis::AuditReport audit =
      analysis::StructureAuditor::AuditSuspensionQueue(indexed.queue);
  ASSERT_TRUE(audit.ok()) << audit.Render();
  for (int i = 0; i < 20 && !scan.queue.empty(); ++i) {
    drain_both(random_drain(i % 5 == 0), Entries(scan.queue));
    if (HasFatalFailure()) return;
  }
  ASSERT_EQ(indexed.meter.scheduling_steps_total(),
            scan.meter.scheduling_steps_total());
  // The stream must have drained for real, attempts included.
  EXPECT_GT(drains, 500u);
  EXPECT_GT(drain_attempts, 100u);
}

constexpr resource::SusOrder kPrio = resource::SusOrder::kPriority;

TEST(SusDrainIndex, ExactMatchesBehindTheCursorAreSkipped) {
  // The exact-match rule of OldestEligible walks its config's list from
  // the head past seqs below the cursor. The drain never leaves one there,
  // so its walk takes no step; an arbitrary cursor makes it walk, up to
  // running off the list's tail. Every cursor seq, a removed one and one
  // past the newest included, must agree with the brute-force rescan.
  SusQueueIndex index;
  std::unordered_map<std::uint32_t, SusEntryAttrs> attrs;
  std::vector<Queued> queued;
  for (std::uint32_t t = 0; t < 12; ++t) {
    SusEntryAttrs a;
    a.resolved_config = ConfigId{t % 3 == 0 ? 7u : t % 2};
    a.needed_area = t % 3 == 0 ? 1900 : 1000 + t;
    attrs[t] = a;
    index.Add(t, a);  // task t is seq t
    if (t != 3) queued.push_back({t, TaskId{t}});
  }
  index.Remove(3, attrs.at(3));  // a hole in config 7's list
  attrs.erase(3);
  const BruteForce brute{queued, attrs};
  for (const Area bound : {Area{500}, Area{1005}}) {
    for (Seq from = 0; from <= 12; ++from) {
      EXPECT_EQ(
          index.OldestEligible(FamilyId::invalid(), bound, from, ConfigId{7}),
          brute.OldestEligible(FamilyId::invalid(), bound, from, ConfigId{7}))
          << "bound " << bound << " from " << from;
    }
  }
}

TEST(SusDrainIndex, CursorResumesOnTheSeqAfterARemovedEntry) {
  // A FIFO partial drain's indexed pass against its literal walk: each
  // pick is removed at the cursor and the pass resumes on the next seq,
  // whose FIFO position is the removed entry's. Tombstones (removed
  // before the pass) and exact matches past the area bound sit among the
  // picks; the removed tasks and the step charges must agree.
  resource::ConfigCatalogue configs;
  for (int c = 0; c < 3; ++c) {
    resource::Configuration cfg;
    cfg.required_area = 100;
    configs.Add(cfg);
  }
  ResourceStore fleet(std::move(configs));
  const NodeId node = fleet.AddNode(500);  // blank: the area bound is 500
  resource::TaskStore tasks;
  for (std::uint32_t t = 0; t < 10; ++t) {
    resource::TaskSpec spec;
    spec.required_time = 10;
    spec.needed_area = t % 4 == 1 ? 900 : 300;
    (void)tasks.SubmitOne(spec);
  }
  std::vector<std::vector<TaskId>> removed;
  std::vector<WorkloadMeter> meters(2);
  for (const bool indexed : {true, false}) {
    SuspensionQueue queue(tasks, fleet.configs());
    queue.SetDrainIndexed(indexed);
    WorkloadMeter& meter = meters[indexed ? 0 : 1];
    for (std::uint32_t t = 0; t < 10; ++t) {
      ASSERT_TRUE(queue.Add(TaskId{t}, ConfigId{t % 3}, meter));
    }
    queue.RemoveSeq(2, meter);
    queue.RemoveSeq(6, meter);
    std::vector<TaskId>& out = removed.emplace_back();
    // The exact-match rule admits config 1 (tasks 1, 4, 7: 900, 300, 300).
    queue.DrainPartial(fleet, node, ConfigId{1}, 0, meter, [&](Seq seq) {
      out.push_back(queue.TaskAt(seq));
      queue.RemoveSeq(seq, meter);
      EXPECT_EQ(queue.TaskAt(seq), TaskId::invalid());
    });
    EXPECT_EQ(Entries(queue).size(), 2u);
    const analysis::AuditReport audit =
        analysis::StructureAuditor::AuditSuspensionQueue(queue);
    EXPECT_TRUE(audit.ok()) << audit.Render();
  }
  // Every entry but 2, 6 (gone) and 5, 9 (area 900, not config 1).
  EXPECT_EQ(removed[0],
            (std::vector<TaskId>{TaskId{0}, TaskId{1}, TaskId{3}, TaskId{4},
                                 TaskId{7}, TaskId{8}}));
  EXPECT_EQ(removed[0], removed[1]);
  EXPECT_EQ(meters[0].scheduling_steps_total(),
            meters[1].scheduling_steps_total());
  EXPECT_EQ(meters[0].housekeeping_steps_total(),
            meters[1].housekeeping_steps_total());
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
                      QueueTwinCase{206, 40, kPrio},
                      QueueTwinCase{207, 0, kPrio, true},
                      QueueTwinCase{208, 30, kPrio, true},
                      QueueTwinCase{207, 0, resource::SusOrder::kFifo, true}));

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
/// drain paths for real, which read them from the workload's priority
/// column).
workload::Workload MakeWorkload(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  workload::Workload tasks;
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
  const workload::Workload wl = MakeWorkload(seed);
  result.report = sim.RunWithWorkload(wl);
  // Only FIFO order builds the index; priority order always walks.
  EXPECT_EQ(sim.suspension().drain_indexed(), indexed && !c.priority);
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
