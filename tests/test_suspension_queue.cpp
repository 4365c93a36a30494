// Tests for the suspension queue (SusList): its FIFO structure, front
// pops and removals by seq, and the completion drains on small hand-made
// populations, with the drain index on and off. The random twin fuzz of
// the drains is test_sus_drain_diff's.
#include "resource/suspension_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "analysis/structure_auditor.hpp"
#include "resource/store.hpp"
#include "util/rng.hpp"

namespace dreamsim::resource {
namespace {

/// The queued tasks in FIFO order.
std::vector<TaskId> Fifo(const SuspensionQueue& q) {
  return {q.begin(), q.end()};
}

/// The task table and catalogue a test queue reads its entries' area,
/// priority and family from: `config_count` configurations (family-less
/// unless `family_of_odd` is valid, which odd configs then pin) and
/// `tasks` tasks of area 100 and priority 0, so task ids below `tasks` may
/// be queued with any config.
struct Tables {
  explicit Tables(std::uint32_t tasks = 0, std::uint32_t config_count = 8,
                  FamilyId family_of_odd = FamilyId::invalid()) {
    for (std::uint32_t i = 0; i < config_count; ++i) {
      Configuration c;
      c.required_area = 100;
      if (i % 2 == 1) c.family = family_of_odd;
      configs.Add(c);
    }
    for (std::uint32_t i = 0; i < tasks; ++i) (void)Task(100);
  }

  /// Registers the next task id with `area` and `priority`.
  TaskId Task(Area area, double priority = 0.0) {
    TaskSpec spec;
    spec.required_time = 10;
    spec.needed_area = area;
    return this->tasks.SubmitOne(spec, 0, priority);
  }

  TaskStore tasks;
  ConfigCatalogue configs;
};

TEST(SuspensionQueue, FifoOrder) {
  const Tables t(10);
  SuspensionQueue q(t.tasks, t.configs);
  WorkloadMeter meter;
  ASSERT_TRUE(q.Add(TaskId{1}, {}, meter));
  ASSERT_TRUE(q.Add(TaskId{2}, {}, meter));
  ASSERT_TRUE(q.Add(TaskId{3}, {}, meter));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(Fifo(q), (std::vector<TaskId>{TaskId{1}, TaskId{2}, TaskId{3}}));
}

TEST(SuspensionQueue, CapacityBound) {
  const Tables t(4);
  SuspensionQueue q(t.tasks, t.configs, 2);
  WorkloadMeter meter;
  EXPECT_TRUE(q.Add(TaskId{1}, {}, meter));
  EXPECT_TRUE(q.Add(TaskId{2}, {}, meter));
  EXPECT_FALSE(q.Add(TaskId{3}, {}, meter));  // overflow
  EXPECT_EQ(q.size(), 2u);
}

TEST(SuspensionQueue, UnboundedByDefault) {
  const Tables t(1000);
  SuspensionQueue q(t.tasks, t.configs);
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.Add(TaskId{i}, {}, meter));
  }
  EXPECT_EQ(q.size(), 1000u);
}

TEST(SuspensionQueue, PopFrontTakesOldest) {
  const Tables t(10);
  SuspensionQueue q(t.tasks, t.configs);
  WorkloadMeter meter;
  (void)q.Add(TaskId{1}, {}, meter);
  (void)q.Add(TaskId{2}, {}, meter);
  (void)q.Add(TaskId{3}, {}, meter);
  EXPECT_EQ(q.PopFront(meter), std::optional<TaskId>{TaskId{1}});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(Fifo(q), (std::vector<TaskId>{TaskId{2}, TaskId{3}}));
}

TEST(SuspensionQueue, PopFrontOfAnEmptyQueueTakesNothing) {
  const Tables t(10);
  SuspensionQueue q(t.tasks, t.configs);
  WorkloadMeter meter;
  EXPECT_FALSE(q.PopFront(meter).has_value());
  (void)q.Add(TaskId{1}, {}, meter);
  q.RemoveSeq(0, meter);
  const Steps before = meter.housekeeping_steps_total();
  EXPECT_FALSE(q.PopFront(meter).has_value());
  EXPECT_EQ(meter.housekeeping_steps_total(), before);  // no entry visited
  EXPECT_TRUE(q.empty());
}

TEST(SuspensionQueue, PopChargesScanSteps) {
  // The literal scan visits the front and stops: one step per pop, also
  // behind tombstones left by earlier removals.
  const Tables t(10);
  SuspensionQueue q(t.tasks, t.configs);
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 10; ++i) (void)q.Add(TaskId{i}, {}, meter);
  for (const SuspensionQueue::Seq seq : {0u, 1u, 2u, 4u}) {
    q.RemoveSeq(seq, meter);
  }
  const Steps before = meter.housekeeping_steps_total();
  EXPECT_EQ(q.PopFront(meter), std::optional<TaskId>{TaskId{3}});
  EXPECT_EQ(meter.housekeeping_steps_total() - before, 1u);
  EXPECT_EQ(q.PopFront(meter), std::optional<TaskId>{TaskId{5}});
  EXPECT_EQ(meter.housekeeping_steps_total() - before, 2u);
}

TEST(SuspensionQueue, RemoveBySeq) {
  const Tables t(10);
  SuspensionQueue q(t.tasks, t.configs);
  WorkloadMeter meter;
  (void)q.Add(TaskId{1}, {}, meter);
  (void)q.Add(TaskId{2}, {}, meter);
  (void)q.Add(TaskId{3}, {}, meter);
  const Steps before_unlink = meter.housekeeping_steps_total();
  q.RemoveSeq(1, meter);
  EXPECT_EQ(meter.housekeeping_steps_total(), before_unlink + 1);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(Fifo(q), (std::vector<TaskId>{TaskId{1}, TaskId{3}}));
  // Seqs stay put; positions close up behind a removal.
  EXPECT_EQ(q.TaskAt(0), TaskId{1});
  EXPECT_EQ(q.TaskAt(1), TaskId::invalid());
  EXPECT_EQ(q.TaskAt(2), TaskId{3});
  EXPECT_EQ(q.PositionOf(2), 1u);
  // A removed or never-issued seq: a diagnostic, no charge, no change.
  const Steps before = meter.housekeeping_steps_total();
  EXPECT_THROW(q.RemoveSeq(1, meter), std::out_of_range);
  EXPECT_THROW(q.RemoveSeq(3, meter), std::out_of_range);
  EXPECT_EQ(q.TaskAt(3), TaskId::invalid());
  EXPECT_EQ(meter.housekeeping_steps_total(), before);
  EXPECT_EQ(q.size(), 2u);
}

TEST(SuspensionQueue, AddRejectsATaskAlreadyQueued) {
  // One queued bit per task id backs the check, across word boundaries.
  const Tables t(1001);
  SuspensionQueue q(t.tasks, t.configs);
  WorkloadMeter meter;
  for (const std::uint32_t t : {3u, 63u, 64u, 1000u}) {
    ASSERT_TRUE(q.Add(TaskId{t}, {}, meter));
  }
  for (const std::uint32_t t : {3u, 63u, 64u, 1000u}) {
    EXPECT_THROW((void)q.Add(TaskId{t}, {}, meter), std::logic_error) << t;
  }
  EXPECT_EQ(q.size(), 4u);
  // A task that left may be queued again, behind the others.
  q.RemoveSeq(1, meter);
  ASSERT_TRUE(q.Add(TaskId{63}, {}, meter));
  EXPECT_EQ(Fifo(q), (std::vector<TaskId>{TaskId{3}, TaskId{64}, TaskId{1000},
                                          TaskId{63}}));
  EXPECT_THROW((void)q.Add(TaskId::invalid(), {}, meter),
               std::invalid_argument);
}

TEST(SuspensionQueue, PreservesFifoAcrossMixedOps) {
  const Tables t(10);
  SuspensionQueue q(t.tasks, t.configs);
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 6; ++i) (void)q.Add(TaskId{i}, {}, meter);
  q.RemoveSeq(2, meter);
  q.RemoveSeq(0, meter);
  (void)q.Add(TaskId{9}, {}, meter);
  std::vector<std::uint32_t> order;
  for (const TaskId id : q) order.push_back(id.value());
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 4, 5, 9}));
}

using Seq = SuspensionQueue::Seq;

constexpr NodeId kNode{0};

/// A store with `config_count` family-less configurations and one blank
/// node of `node_area` (kNode, family 0): a partial drain's area bound on
/// it is `node_area`.
ResourceStore OneNodeStore(Area node_area, std::uint32_t config_count = 8) {
  ConfigCatalogue configs;
  for (std::uint32_t i = 0; i < config_count; ++i) {
    Configuration c;
    c.required_area = 100;
    configs.Add(c);
  }
  ResourceStore store(std::move(configs));
  (void)store.AddNode(node_area);
  return store;
}

/// What one drain attempted, in order, and the scheduling steps it
/// charged.
struct Drained {
  std::vector<Seq> seqs;
  Steps steps = 0;
};

/// Runs one drain on kNode. An attempted entry in `keep` stays queued
/// (the policy suspended it); any other is removed (placed).
Drained Drain(SuspensionQueue& q, const ResourceStore& store, bool full,
              ConfigId freed, std::size_t batch,
              const std::vector<Seq>& keep = {}) {
  WorkloadMeter meter;
  Drained out;
  const auto attempt = [&](Seq seq) {
    out.seqs.push_back(seq);
    if (std::find(keep.begin(), keep.end(), seq) == keep.end()) {
      q.RemoveSeq(seq, meter);
    }
  };
  if (full) {
    q.DrainFull(store, kNode, freed, meter, attempt);
  } else {
    q.DrainPartial(store, kNode, freed, batch, meter, attempt);
  }
  out.steps = meter.scheduling_steps_total();
  return out;
}

/// The seq a full drain attempts, left queued (nullopt: none).
std::optional<Seq> FullPick(SuspensionQueue& q, const ResourceStore& store,
                            ConfigId freed) {
  WorkloadMeter meter;
  std::optional<Seq> pick;
  q.DrainFull(store, kNode, freed, meter, [&](Seq seq) {
    EXPECT_FALSE(pick.has_value());
    pick = seq;
  });
  return pick;
}

TEST(SuspensionQueue, IndexedChargesMatchTheScanContract) {
  // Every drain charges one scheduling-search step per entry the literal
  // walk visits, with the index on or off: a FIFO pass resumes after each
  // attempt and walks a dry tail to the end, a priority pick and a full
  // drain visit the whole queue.
  const ResourceStore store = OneNodeStore(500);
  for (const bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "indexed" : "scan");
    Tables fifo_tables;
    SuspensionQueue fifo(fifo_tables.tasks, fifo_tables.configs);
    fifo.SetDrainIndexed(indexed);
    WorkloadMeter meter;
    const Area areas[] = {900, 800, 300, 700, 400, 900};
    for (std::uint32_t i = 0; i < 6; ++i) {
      (void)fifo.Add(fifo_tables.Task(areas[i]), ConfigId{i}, meter);
    }
    // An attempt that leaves its entry queued ends the pass: 3 visits.
    Drained d = Drain(fifo, store, false, ConfigId::invalid(), 0, {2});
    EXPECT_EQ(d.seqs, std::vector<Seq>{2});
    EXPECT_EQ(d.steps, 3u);
    // Visits 0 1 2, resumes at 3 4, walks 5 dry.
    d = Drain(fifo, store, false, ConfigId::invalid(), 0);
    EXPECT_EQ(d.seqs, (std::vector<Seq>{2, 4}));
    EXPECT_EQ(d.steps, 6u);
    // Nothing fits: the whole (shrunk) queue.
    d = Drain(fifo, store, false, ConfigId::invalid(), 0);
    EXPECT_TRUE(d.seqs.empty());
    EXPECT_EQ(d.steps, 4u);
    // The exact-match rule admits config 3 (area 700); batch 1 stops there.
    d = Drain(fifo, store, false, ConfigId{3}, 1);
    EXPECT_EQ(d.seqs, std::vector<Seq>{3});
    EXPECT_EQ(d.steps, 3u);
    // Full mode charges the whole queue, match or not.
    d = Drain(fifo, store, true, ConfigId{5}, 0);
    EXPECT_EQ(d.seqs, std::vector<Seq>{5});
    EXPECT_EQ(d.steps, 3u);

    Tables prio_tables;
    SuspensionQueue prio(prio_tables.tasks, prio_tables.configs, 0,
                         SusOrder::kPriority);
    prio.SetDrainIndexed(indexed);
    (void)prio.Add(prio_tables.Task(300, 1.0), ConfigId{0}, meter);
    (void)prio.Add(prio_tables.Task(900, 5.0), ConfigId{1}, meter);
    (void)prio.Add(prio_tables.Task(400, 2.0), ConfigId{2}, meter);
    // Picks 2 (3 visits) and 0 (2 visits); the last pick finds none (1).
    d = Drain(prio, store, false, ConfigId::invalid(), 0);
    EXPECT_EQ(d.seqs, (std::vector<Seq>{2, 0}));
    EXPECT_EQ(d.steps, 6u);
  }
}

TEST(SuspensionQueue, IndexedDrainQueriesPickScanWinners) {
  // One population in a FIFO-order and a priority-order queue, drained
  // with the index on and off (a priority-order queue walks either way):
  // each order picks its own winner, and the two halves agree.
  for (const bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "indexed" : "scan");
    Tables t;
    (void)t.Task(900, 1.0);
    (void)t.Task(400, 3.0);
    (void)t.Task(300, 9.0);
    (void)t.Task(200, 3.0);
    SuspensionQueue fifo(t.tasks, t.configs, 0, SusOrder::kFifo);
    SuspensionQueue prio(t.tasks, t.configs, 0, SusOrder::kPriority);
    WorkloadMeter meter;
    for (SuspensionQueue* q : {&fifo, &prio}) {
      q->SetDrainIndexed(indexed);
      (void)q->Add(TaskId{0}, ConfigId{7}, meter);
      (void)q->Add(TaskId{1}, ConfigId{5}, meter);
      (void)q->Add(TaskId{2}, ConfigId{7}, meter);
      (void)q->Add(TaskId{3}, ConfigId{5}, meter);
    }
    // Task i was queued as seq i. A 350-area node fits seqs 2 and 3.
    const ResourceStore store = OneNodeStore(350);
    // Oldest vs best-priority exact matches for config 5; equal
    // priorities: the FIFO-older entry wins.
    EXPECT_EQ(FullPick(fifo, store, ConfigId{5}), std::optional<Seq>{1});
    EXPECT_EQ(FullPick(prio, store, ConfigId{5}), std::optional<Seq>{1});
    // No match anywhere: the fabric-fit fallback.
    EXPECT_EQ(FullPick(fifo, store, ConfigId{6}), std::optional<Seq>{2});
    EXPECT_EQ(FullPick(prio, store, ConfigId{6}), std::optional<Seq>{2});
    // The partial exact-match rule admits config 7 regardless of its area.
    EXPECT_EQ(Drain(fifo, store, false, ConfigId{7}, 0, {0}).seqs,
              std::vector<Seq>{0});
    EXPECT_EQ(Drain(prio, store, false, ConfigId::invalid(), 0, {2}).seqs,
              std::vector<Seq>{2});
    const ResourceStore tiny = OneNodeStore(100);
    EXPECT_EQ(FullPick(fifo, tiny, ConfigId::invalid()), std::nullopt);
    EXPECT_TRUE(Drain(fifo, tiny, false, ConfigId::invalid(), 0).seqs.empty());
    // Removals ahead of the answer move its position, not its seq.
    fifo.RemoveSeq(0, meter);
    prio.RemoveSeq(1, meter);
    EXPECT_EQ(FullPick(fifo, store, ConfigId{5}), std::optional<Seq>{1});
    EXPECT_EQ(fifo.PositionOf(1), 0u);
    EXPECT_EQ(FullPick(prio, store, ConfigId{5}), std::optional<Seq>{3});
    EXPECT_EQ(prio.PositionOf(3), 2u);
  }
}

TEST(SuspensionQueue, PriorityOrderQueueHoldsNoIndex) {
  // The drain index serves FIFO order only: a priority-order queue asked
  // for one, before or after entries arrive, keeps walking. Its picks are
  // the walk's (exact match before fallback in full mode, highest
  // priority first with FIFO ties), its charges the walk's, and it audits
  // clean.
  Tables t;
  (void)t.Task(900, 1.0);
  (void)t.Task(400, 3.0);
  (void)t.Task(300, 9.0);
  (void)t.Task(200, 3.0);
  (void)t.Task(250, 9.0);
  const ResourceStore store = OneNodeStore(350);
  std::vector<std::vector<Seq>> picks;
  std::vector<Steps> steps;
  for (const bool indexed : {true, false}) {
    SCOPED_TRACE(indexed ? "index asked for" : "index off");
    SuspensionQueue q(t.tasks, t.configs, 0, SusOrder::kPriority);
    q.SetDrainIndexed(indexed);
    WorkloadMeter meter;
    (void)q.Add(TaskId{0}, ConfigId{7}, meter);
    (void)q.Add(TaskId{1}, ConfigId{5}, meter);
    q.SetDrainIndexed(indexed);  // a rebuild over live entries
    (void)q.Add(TaskId{2}, ConfigId{7}, meter);
    (void)q.Add(TaskId{3}, ConfigId{5}, meter);
    (void)q.Add(TaskId{4}, ConfigId{6}, meter);
    EXPECT_FALSE(q.drain_indexed());
    const analysis::AuditReport audit =
        analysis::StructureAuditor::AuditSuspensionQueue(q);
    EXPECT_TRUE(audit.ok()) << audit.Render();
    // Exact matches for config 5 (seqs 1 and 3, priority 3 each) beat the
    // priority-9 fallbacks; the tie goes to the older one.
    EXPECT_EQ(FullPick(q, store, ConfigId{5}), std::optional<Seq>{1});
    // No match: the best-priority fallback, seq 2 before the equally
    // prioritized seq 4.
    EXPECT_EQ(FullPick(q, store, ConfigId{1}), std::optional<Seq>{2});
    // Partial: seq 0 (config 7, area 900) enters by the exact-match rule,
    // after the entries that fit and outrank it; seq 1 (config 5, area
    // 400) fits neither rule and stays.
    const Drained d = Drain(q, store, false, ConfigId{7}, 0);
    picks.push_back(d.seqs);
    steps.push_back(d.steps);
    EXPECT_EQ(d.seqs, (std::vector<Seq>{2, 4, 3, 0}));
    EXPECT_EQ(Fifo(q), std::vector<TaskId>{TaskId{1}});
  }
  EXPECT_EQ(picks[0], picks[1]);
  // Each pick walks the whole shrinking queue, the last one finding none.
  EXPECT_EQ(steps[0], 5u + 4u + 3u + 2u + 1u);
  EXPECT_EQ(steps[0], steps[1]);
}

TEST(SuspensionQueue, RequeueAfterKillChargesOneHousekeepingStep) {
  // Fault-injection recovery path: a queued task gets drained for
  // placement, its node fails mid-execution, and the kill re-queues it.
  // The re-queue is not a scheduling attempt — it must charge exactly the
  // one enqueue housekeeping step (no scheduling-search charge), in both
  // drain modes, so fault runs keep the paper's step accounting honest.
  for (const bool indexed : {false, true}) {
    const Tables t(3);
    SuspensionQueue q(t.tasks, t.configs);
    q.SetDrainIndexed(indexed);
    WorkloadMeter meter;
    (void)q.Add(TaskId{1}, ConfigId{2}, meter);
    (void)q.Add(TaskId{2}, ConfigId{3}, meter);
    q.RemoveSeq(0, meter);  // drained and placed on the doomed node
    const Steps sched_before = meter.scheduling_steps_total();
    const Steps house_before = meter.housekeeping_steps_total();
    ASSERT_TRUE(q.Add(TaskId{1}, ConfigId{2}, meter));
    EXPECT_EQ(meter.scheduling_steps_total(), sched_before) << indexed;
    EXPECT_EQ(meter.housekeeping_steps_total(), house_before + 1) << indexed;
    // The victim re-enters at the FIFO tail, behind tasks queued earlier.
    ASSERT_EQ(q.size(), 2u);
    EXPECT_EQ(Fifo(q), (std::vector<TaskId>{TaskId{2}, TaskId{1}})) << indexed;
    const analysis::AuditReport audit =
        analysis::StructureAuditor::AuditSuspensionQueue(q);
    EXPECT_TRUE(audit.ok()) << indexed << "\n" << audit.Render();
  }
}

TEST(SuspensionQueue, IndexRebuildsAcrossToggle) {
  Tables t(4);
  ASSERT_EQ(t.Task(700), TaskId{4});
  ASSERT_EQ(t.Task(600), TaskId{5});
  SuspensionQueue q(t.tasks, t.configs);
  WorkloadMeter meter;
  (void)q.Add(TaskId{4}, ConfigId{2}, meter);
  (void)q.Add(TaskId{5}, ConfigId{3}, meter);
  q.SetDrainIndexed(true);  // rebuild from the cells
  const analysis::AuditReport rebuilt =
      analysis::StructureAuditor::AuditSuspensionQueue(q);
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.Render();
  // A node too small for any task: a full drain picks exact matches only.
  const ResourceStore store = OneNodeStore(100);
  EXPECT_EQ(FullPick(q, store, ConfigId{3}), std::optional<Seq>{1});
  // Removals and a requeue while the index is off survive the next rebuild.
  q.SetDrainIndexed(false);
  q.RemoveSeq(0, meter);
  (void)q.Add(TaskId{4}, ConfigId{3}, meter);
  q.SetDrainIndexed(true);
  const analysis::AuditReport toggled =
      analysis::StructureAuditor::AuditSuspensionQueue(q);
  EXPECT_TRUE(toggled.ok()) << toggled.Render();
  EXPECT_EQ(FullPick(q, store, ConfigId{2}), std::nullopt);
  EXPECT_EQ(FullPick(q, store, ConfigId{3}), std::optional<Seq>{1});
  q.RemoveSeq(1, meter);
  // The requeued task 4 holds seq 2, now at the front.
  EXPECT_EQ(FullPick(q, store, ConfigId{3}), std::optional<Seq>{2});
  EXPECT_EQ(q.TaskAt(2), TaskId{4});
  EXPECT_EQ(q.PositionOf(2), 0u);
}

TEST(SuspensionQueue, FrontPopsAfterRemovalsKeepOrderAndChargeOneStepEach) {
  // FinishReport discards the leftover queue one front pop at a time: each
  // pop must cost exactly one housekeeping step however many entries were
  // removed ahead of or behind the front, and return the FIFO order.
  for (const bool indexed : {false, true}) {
    const Tables t(10);
    SuspensionQueue q(t.tasks, t.configs);
    q.SetDrainIndexed(indexed);
    WorkloadMeter meter;
    for (std::uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(q.Add(TaskId{i}, {}, meter));
    }
    std::vector<std::uint32_t> popped;
    const auto pop = [&] {
      const Steps before = meter.housekeeping_steps_total();
      const std::optional<TaskId> id = q.PopFront(meter);
      ASSERT_TRUE(id.has_value());
      EXPECT_EQ(meter.housekeeping_steps_total(), before + 1) << indexed;
      popped.push_back(id->value());
    };
    // Task i is queued as seq i until the requeues.
    pop();                          // 0
    q.RemoveSeq(1, meter);          // the new front
    q.RemoveSeq(4, meter);          // task 4 of 2 3 4 5 6 7
    pop();                          // 2
    q.RemoveSeq(7, meter);          // the back
    ASSERT_TRUE(q.Add(TaskId{9}, {}, meter));
    q.RemoveSeq(3, meter);          // the front again
    while (!q.empty()) pop();       // 5 6 9
    EXPECT_EQ(popped, (std::vector<std::uint32_t>{0, 2, 5, 6, 9})) << indexed;
    const Steps before = meter.housekeeping_steps_total();
    EXPECT_FALSE(q.PopFront(meter).has_value());
    EXPECT_EQ(meter.housekeeping_steps_total(), before);  // empty: no visit
    // The emptied queue accepts new work at the front.
    ASSERT_TRUE(q.Add(TaskId{4}, {}, meter));
    EXPECT_EQ(Fifo(q), std::vector<TaskId>{TaskId{4}});
    EXPECT_EQ(q.PositionOf(q.begin().seq()), 0u);
  }
}

/// How a fuzz run drives the drain index.
enum class IndexMode { kOff, kFifo, kPriority, kToggled };

/// Queue-level differential fuzz: the queue against a plain std::vector
/// FIFO model under random Add / RemoveSeq / PopFront operations, requeues
/// of tasks that left, and index toggles.
/// After every operation the FIFO order, size, every entry's position and
/// the meter charges must equal the model's; the structure audit runs
/// along.
void FuzzAgainstVectorModel(std::uint64_t seed, IndexMode mode,
                            std::size_t capacity) {
  SCOPED_TRACE(::testing::Message()
               << "seed " << seed << " mode " << static_cast<int>(mode)
               << " capacity " << capacity);
  Rng rng(seed);
  const SusOrder order = (mode == IndexMode::kPriority ||
                          (mode == IndexMode::kToggled && seed % 2 == 1))
                             ? SusOrder::kPriority
                             : SusOrder::kFifo;
  // Odd configs pin family 1, even ones none.
  Tables t(0, 6, FamilyId{1});
  SuspensionQueue q(t.tasks, t.configs, capacity, order);
  q.SetDrainIndexed(mode != IndexMode::kOff);
  WorkloadMeter meter;
  std::vector<TaskId> model;
  Steps charged = 0;  // what the literal FIFO scans charge
  std::uint32_t next_task = 0;
  const auto model_pos = [&model](TaskId task) -> std::optional<std::size_t> {
    const auto it = std::find(model.begin(), model.end(), task);
    if (it == model.end()) return std::nullopt;
    return static_cast<std::size_t>(it - model.begin());
  };
  // A task's area and priority are its spec's; each enqueue resolves a
  // config of its own (none, one time in seven).
  const auto new_task = [&] {
    ++next_task;
    return t.Task(rng.uniform_int(100, 2000),
                  static_cast<double>(rng.uniform_int(0, 4)));
  };
  const auto random_config = [&rng] {
    const std::int64_t pick = rng.uniform_int(0, 6);
    return pick == 6 ? ConfigId::invalid()
                     : ConfigId{static_cast<std::uint32_t>(pick)};
  };

  for (int op = 0; op < 1500; ++op) {
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2: {
        const TaskId task = new_task();
        const bool fits = capacity == 0 || model.size() < capacity;
        ASSERT_EQ(q.Add(task, random_config(), meter), fits);
        charged += 1;
        if (fits) model.push_back(task);
        break;
      }
      case 3:
      case 4: {
        const std::optional<TaskId> popped = q.PopFront(meter);
        if (model.empty()) {
          ASSERT_FALSE(popped.has_value());
        } else {
          ASSERT_EQ(popped, std::optional<TaskId>{model.front()});
          charged += 1;
          model.erase(model.begin());
        }
        break;
      }
      case 5:
      case 6: {
        if (model.empty()) break;
        const auto pos = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(model.size()) - 1));
        q.RemoveSeq(std::next(q.begin(), static_cast<std::ptrdiff_t>(pos)).seq(),
                    meter);
        charged += 1;
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      }
      case 7:
      case 8: {  // requeue a task that left (a killed task re-enters)
        if (next_task == 0) break;
        const TaskId task{static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(next_task) - 1))};
        if (model_pos(task)) break;
        const bool fits = capacity == 0 || model.size() < capacity;
        ASSERT_EQ(q.Add(task, random_config(), meter), fits);
        charged += 1;
        if (fits) model.push_back(task);
        break;
      }
      case 9: {
        if (mode == IndexMode::kToggled) {
          q.SetDrainIndexed(!q.drain_indexed());
        }
        break;
      }
    }
    ASSERT_EQ(q.size(), model.size()) << "op " << op;
    ASSERT_EQ(q.empty(), model.empty()) << "op " << op;
    ASSERT_EQ(Fifo(q), model) << "op " << op;
    std::size_t i = 0;
    for (auto it = q.begin(); it != q.end(); ++it, ++i) {
      ASSERT_EQ(q.PositionOf(it.seq()), i) << "op " << op << " task " << *it;
      ASSERT_EQ(q.TaskAt(it.seq()), model[i]) << "op " << op;
    }
    ASSERT_EQ(meter.housekeeping_steps_total(), charged) << "op " << op;
    ASSERT_EQ(meter.scheduling_steps_total(), 0u) << "op " << op;
    if (op % 100 == 0) {
      const analysis::AuditReport report =
          analysis::StructureAuditor::AuditSuspensionQueue(q);
      ASSERT_TRUE(report.ok()) << "op " << op << "\n" << report.Render();
    }
  }
}

TEST(SuspensionQueue, MatchesVectorModelUnderRandomOperations) {
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    for (const IndexMode mode : {IndexMode::kOff, IndexMode::kFifo,
                                 IndexMode::kPriority, IndexMode::kToggled}) {
      for (const std::size_t capacity : {std::size_t{0}, std::size_t{24}}) {
        FuzzAgainstVectorModel(seed, mode, capacity);
        if (HasFatalFailure()) return;
      }
    }
  }
}

/// One queued entry of the drain model: the task, its attributes and its
/// priority.
struct ModelEntry {
  TaskId task;
  SusEntryAttrs attrs;
  double priority = 0.0;
};

/// Literal-walk drains over a plain vector of (task, attrs) in FIFO order,
/// on OneNodeStore's blank node of `node_area` with family-less configs:
/// an entry is usable when it wants the freed config or fits the node.
class DrainModel {
 public:
  DrainModel(SusOrder order, Area node_area)
      : order_(order), node_area_(node_area) {}

  std::vector<ModelEntry> entries;

  /// The tasks a full drain attempts (at most one) and its charge; `keep`
  /// says whether the attempt leaves its entry queued.
  Steps Full(ConfigId freed, bool keep, std::vector<TaskId>& picks) {
    const Steps steps = entries.size();
    std::optional<std::size_t> match;
    std::optional<std::size_t> fallback;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const SusEntryAttrs& a = entries[i].attrs;
      if (freed.valid() && a.resolved_config == freed) {
        if (Better(match, i)) match = i;
      } else if (a.needed_area <= node_area_ && Better(fallback, i)) {
        fallback = i;
      }
    }
    const std::optional<std::size_t> pick = match ? match : fallback;
    if (pick) Attempt(*pick, keep, picks);
    return steps;
  }

  /// A partial drain of at most `batch` attempts (0: the queue's size);
  /// `keeps` are the attempts' keep flags in order.
  Steps Partial(ConfigId freed, std::size_t batch,
                const std::vector<bool>& keeps, std::vector<TaskId>& picks) {
    Steps steps = 0;
    const std::size_t max_attempts = batch == 0 ? entries.size() : batch;
    std::size_t pos = 0;  // the FIFO walk's cursor
    for (std::size_t attempts = 0; attempts < max_attempts; ++attempts) {
      std::optional<std::size_t> pick;
      if (order_ == SusOrder::kPriority) {
        steps += entries.size();
        for (std::size_t i = 0; i < entries.size(); ++i) {
          if (Usable(i, freed) && Better(pick, i)) pick = i;
        }
      } else {
        for (; pos < entries.size(); ++pos) {
          ++steps;
          if (Usable(pos, freed)) {
            pick = pos;
            break;
          }
        }
      }
      if (!pick) break;
      const bool keep = keeps[attempts];
      Attempt(*pick, keep, picks);
      if (keep) break;
    }
    return steps;
  }

 private:
  [[nodiscard]] bool Usable(std::size_t i, ConfigId freed) const {
    const SusEntryAttrs& a = entries[i].attrs;
    return (freed.valid() && a.resolved_config == freed) ||
           a.needed_area <= node_area_;
  }
  /// Whether entry `i` beats `best` in the drain order (FIFO: only an
  /// absent best; priority: a strictly higher priority).
  [[nodiscard]] bool Better(const std::optional<std::size_t>& best,
                            std::size_t i) const {
    return !best || (order_ == SusOrder::kPriority &&
                     entries[i].priority > entries[*best].priority);
  }
  void Attempt(std::size_t i, bool keep, std::vector<TaskId>& picks) {
    picks.push_back(entries[i].task);
    if (!keep) entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
  }

  SusOrder order_;
  Area node_area_;
};

/// Queue-level model fuzz with drains: the queue against DrainModel under
/// random adds, front pops, single removals, tombstone runs at the head,
/// in the middle and at the tail, remove-newest-then-append, and full and
/// partial drains whose attempts randomly place or keep their entry.
/// After every operation the FIFO order, size, every entry's position and
/// both meter totals must equal the model's.
void FuzzDrainsAgainstModel(std::uint64_t seed, SusOrder order, bool indexed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed << " order "
                                    << static_cast<int>(order) << " indexed "
                                    << indexed);
  Rng rng(seed);
  constexpr Area kNodeArea = 1000;
  const ResourceStore store = OneNodeStore(kNodeArea);
  Tables t;
  SuspensionQueue q(t.tasks, t.configs, 0, order);
  q.SetDrainIndexed(indexed);
  DrainModel model(order, kNodeArea);
  WorkloadMeter meter;
  Steps housekeeping = 0;
  Steps scheduling = 0;
  const auto new_task = [&] {
    return t.Task(rng.uniform_int(100, 2000),
                  static_cast<double>(rng.uniform_int(0, 4)));
  };
  // Queues `task` resolved to a random config; the model reads its area
  // and priority from its spec, as the queue does.
  const auto add = [&](TaskId task) {
    const ConfigId config{static_cast<std::uint32_t>(rng.uniform_int(0, 7))};
    ASSERT_TRUE(q.Add(task, config, meter));
    ++housekeeping;
    const TaskSpec& spec = t.tasks.Spec(task);
    SusEntryAttrs attrs;
    attrs.resolved_config = config;
    attrs.needed_area = spec.needed_area;
    model.entries.push_back({task, attrs, t.tasks.Priority(task)});
  };
  // Removes the entries at FIFO positions [first, first + count).
  const auto remove_run = [&](std::size_t first, std::size_t count) {
    for (std::size_t k = 0; k < count && first < model.entries.size(); ++k) {
      q.RemoveSeq(
          std::next(q.begin(), static_cast<std::ptrdiff_t>(first)).seq(),
          meter);
      ++housekeeping;
      model.entries.erase(model.entries.begin() +
                          static_cast<std::ptrdiff_t>(first));
    }
  };
  const auto run_length = [&rng] {
    return static_cast<std::size_t>(rng.uniform_int(1, 6));
  };

  for (int op = 0; op < 1200; ++op) {
    const std::size_t n = model.entries.size();
    switch (rng.uniform_int(0, 10)) {
      case 0:
      case 1:
      case 2:
        add(new_task());
        break;
      case 3: {
        const std::optional<TaskId> popped = q.PopFront(meter);
        if (n == 0) {
          ASSERT_FALSE(popped.has_value());
        } else {
          ASSERT_EQ(popped, std::optional<TaskId>{model.entries.front().task});
          ++housekeeping;
          model.entries.erase(model.entries.begin());
        }
        break;
      }
      case 4:  // a tombstone run at the head
        remove_run(0, run_length());
        break;
      case 5:  // one in the middle
        if (n > 2) {
          remove_run(static_cast<std::size_t>(rng.uniform_int(
                         1, static_cast<std::int64_t>(n) - 2)),
                     run_length());
        }
        break;
      case 6: {  // one at the tail
        const std::size_t count = std::min(n, run_length());
        remove_run(n - count, count);
        break;
      }
      case 7:  // remove the newest, then append
        if (n > 0) {
          const TaskId newest = model.entries.back().task;
          remove_run(n - 1, 1);
          add(rng.uniform_int(0, 1) == 0 ? newest : new_task());
        }
        break;
      case 8: {  // a full drain
        const ConfigId freed{static_cast<std::uint32_t>(rng.uniform_int(0, 8))};
        const bool keep = rng.uniform_int(0, 2) == 0;
        std::vector<TaskId> got;
        q.DrainFull(store, kNode, freed, meter, [&](Seq seq) {
          got.push_back(q.TaskAt(seq));
          if (!keep) q.RemoveSeq(seq, meter);
        });
        std::vector<TaskId> want;
        scheduling += model.Full(freed, keep, want);
        housekeeping += want.size() - (keep ? want.size() : 0);
        ASSERT_EQ(got, want) << "op " << op;
        break;
      }
      case 9:
      case 10: {  // a partial drain
        const ConfigId freed =
            rng.uniform_int(0, 1) == 0
                ? ConfigId::invalid()
                : ConfigId{static_cast<std::uint32_t>(rng.uniform_int(0, 7))};
        const auto batch = static_cast<std::size_t>(rng.uniform_int(0, 3));
        std::vector<bool> keeps;
        std::vector<TaskId> got;
        q.DrainPartial(store, kNode, freed, batch, meter, [&](Seq seq) {
          got.push_back(q.TaskAt(seq));
          keeps.push_back(rng.uniform_int(0, 5) == 0);
          if (!keeps.back()) q.RemoveSeq(seq, meter);
        });
        std::vector<TaskId> want;
        scheduling += model.Partial(freed, batch, keeps, want);
        for (const bool keep : keeps) housekeeping += keep ? 0 : 1;
        ASSERT_EQ(got, want) << "op " << op;
        break;
      }
    }
    ASSERT_EQ(q.size(), model.entries.size()) << "op " << op;
    std::size_t i = 0;
    for (auto it = q.begin(); it != q.end(); ++it, ++i) {
      ASSERT_LT(i, model.entries.size()) << "op " << op;
      ASSERT_EQ(*it, model.entries[i].task) << "op " << op;
      ASSERT_EQ(q.PositionOf(it.seq()), i) << "op " << op;
    }
    ASSERT_EQ(i, model.entries.size()) << "op " << op;
    ASSERT_EQ(meter.housekeeping_steps_total(), housekeeping) << "op " << op;
    ASSERT_EQ(meter.scheduling_steps_total(), scheduling) << "op " << op;
    if (op % 100 == 0) {
      const analysis::AuditReport report =
          analysis::StructureAuditor::AuditSuspensionQueue(q);
      ASSERT_TRUE(report.ok()) << "op " << op << "\n" << report.Render();
    }
  }
}

TEST(SuspensionQueue, DrainsMatchModelAcrossTombstoneRuns) {
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    for (const SusOrder order : {SusOrder::kFifo, SusOrder::kPriority}) {
      for (const bool indexed : {false, true}) {
        FuzzDrainsAgainstModel(seed, order, indexed);
        if (HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace dreamsim::resource
