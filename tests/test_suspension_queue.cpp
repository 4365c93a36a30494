// Tests for the suspension queue (SusList).
//
// The drain queries are exercised raw against expected positions here —
// the tests assert what the queries answer, not the modeled effort, which
// the simulator-level differential suites pin down.
// lint: allow-file(uncharged-index-query)
#include "resource/suspension_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "analysis/structure_auditor.hpp"
#include "util/rng.hpp"

namespace dreamsim::resource {
namespace {

/// The queued tasks in FIFO order.
std::vector<TaskId> Fifo(const SuspensionQueue& q) {
  return {q.begin(), q.end()};
}

TEST(SuspensionQueue, FifoOrder) {
  SuspensionQueue q;
  WorkloadMeter meter;
  ASSERT_TRUE(q.Add(TaskId{1}, meter));
  ASSERT_TRUE(q.Add(TaskId{2}, meter));
  ASSERT_TRUE(q.Add(TaskId{3}, meter));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(Fifo(q), (std::vector<TaskId>{TaskId{1}, TaskId{2}, TaskId{3}}));
}

TEST(SuspensionQueue, CapacityBound) {
  SuspensionQueue q(2);
  WorkloadMeter meter;
  EXPECT_TRUE(q.Add(TaskId{1}, meter));
  EXPECT_TRUE(q.Add(TaskId{2}, meter));
  EXPECT_FALSE(q.Add(TaskId{3}, meter));  // overflow
  EXPECT_EQ(q.size(), 2u);
}

TEST(SuspensionQueue, UnboundedByDefault) {
  SuspensionQueue q;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.Add(TaskId{i}, meter));
  }
  EXPECT_EQ(q.size(), 1000u);
}

TEST(SuspensionQueue, PopFirstMatchingTakesOldest) {
  SuspensionQueue q;
  WorkloadMeter meter;
  (void)q.Add(TaskId{1}, meter);
  (void)q.Add(TaskId{2}, meter);
  (void)q.Add(TaskId{3}, meter);
  const auto popped = q.PopFirstMatching(
      [](TaskId id) { return id.value() >= 2; }, meter);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, TaskId{2});
  EXPECT_EQ(q.size(), 2u);
}

TEST(SuspensionQueue, PopFirstMatchingNoneMatches) {
  SuspensionQueue q;
  WorkloadMeter meter;
  (void)q.Add(TaskId{1}, meter);
  const auto popped =
      q.PopFirstMatching([](TaskId) { return false; }, meter);
  EXPECT_FALSE(popped.has_value());
  EXPECT_EQ(q.size(), 1u);
}

TEST(SuspensionQueue, PopChargesScanSteps) {
  SuspensionQueue q;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 10; ++i) (void)q.Add(TaskId{i}, meter);
  const Steps before = meter.housekeeping_steps_total();
  (void)q.PopFirstMatching([](TaskId id) { return id.value() == 6; }, meter);
  EXPECT_EQ(meter.housekeeping_steps_total() - before, 7u);
}

TEST(SuspensionQueue, ContainsScan) {
  SuspensionQueue q;
  WorkloadMeter meter;
  (void)q.Add(TaskId{5}, meter);
  EXPECT_TRUE(q.Contains(TaskId{5}, meter));
  EXPECT_FALSE(q.Contains(TaskId{6}, meter));
}

TEST(SuspensionQueue, RemoveSpecificTask) {
  SuspensionQueue q;
  WorkloadMeter meter;
  (void)q.Add(TaskId{1}, meter);
  (void)q.Add(TaskId{2}, meter);
  EXPECT_TRUE(q.Remove(TaskId{1}, meter));
  EXPECT_FALSE(q.Remove(TaskId{1}, meter));
  EXPECT_EQ(Fifo(q), std::vector<TaskId>{TaskId{2}});
}

TEST(SuspensionQueue, RemoveBySeq) {
  SuspensionQueue q;
  WorkloadMeter meter;
  (void)q.Add(TaskId{1}, meter);
  (void)q.Add(TaskId{2}, meter);
  (void)q.Add(TaskId{3}, meter);
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

TEST(SuspensionQueue, PreservesFifoAcrossMixedOps) {
  SuspensionQueue q;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 6; ++i) (void)q.Add(TaskId{i}, meter);
  (void)q.Remove(TaskId{2}, meter);
  q.RemoveSeq(0, meter);
  (void)q.Add(TaskId{9}, meter);
  std::vector<std::uint32_t> order;
  for (const TaskId id : q) order.push_back(id.value());
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 4, 5, 9}));
}

SusEntryAttrs Attrs(std::uint32_t config, Area area, double priority,
                    std::uint32_t family = FamilyId::kInvalidValue) {
  SusEntryAttrs a;
  a.resolved_config = ConfigId{config};
  a.config_family = FamilyId{family};
  a.needed_area = area;
  a.priority = priority;
  return a;
}

TEST(SuspensionQueue, IndexedChargesMatchTheScanContract) {
  // Contains/Remove answered from the index still charge what the literal
  // FIFO scan would have: position + 1 on a hit, queue size on a miss.
  SuspensionQueue q;
  q.SetDrainIndexed(true);
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 5; ++i) {
    (void)q.Add(TaskId{i}, Attrs(i, 100, 0.0), meter);
  }
  const Steps base = meter.housekeeping_steps_total();
  EXPECT_TRUE(q.Contains(TaskId{3}, meter));
  EXPECT_EQ(meter.housekeeping_steps_total(), base + 4);  // positions 0..3
  EXPECT_FALSE(q.Contains(TaskId{42}, meter));
  EXPECT_EQ(meter.housekeeping_steps_total(), base + 9);  // full miss scan
  EXPECT_TRUE(q.Remove(TaskId{1}, meter));
  EXPECT_EQ(meter.housekeeping_steps_total(), base + 11);  // positions 0..1
  EXPECT_FALSE(q.Remove(TaskId{42}, meter));
  EXPECT_EQ(meter.housekeeping_steps_total(), base + 15);  // 4 remaining
}

TEST(SuspensionQueue, IndexedDrainQueriesPickScanWinners) {
  // One population, queried through a FIFO-order and a priority-order
  // index: each index serves only its own order's queries.
  SuspensionQueue fifo(0, SusOrder::kFifo);
  SuspensionQueue prio(0, SusOrder::kPriority);
  WorkloadMeter meter;
  for (SuspensionQueue* q : {&fifo, &prio}) {
    q->SetDrainIndexed(true);
    (void)q->Add(TaskId{0}, Attrs(7, 900, 1.0), meter);
    (void)q->Add(TaskId{1}, Attrs(5, 400, 3.0), meter);
    (void)q->Add(TaskId{2}, Attrs(7, 300, 9.0), meter);
    (void)q->Add(TaskId{3}, Attrs(5, 200, 3.0), meter);
  }
  // Answers are seqs (here task i was queued as seq i).
  using Seq = SuspensionQueue::Seq;
  // Oldest vs best-priority exact matches for config 5.
  EXPECT_EQ(fifo.OldestExactMatch(ConfigId{5}), std::optional<Seq>{1});
  // Equal priorities: the FIFO-older entry wins.
  EXPECT_EQ(prio.BestPriorityExactMatch(ConfigId{5}), std::optional<Seq>{1});
  // Area-bounded eligibility (family-less tasks match any family).
  EXPECT_EQ(
      fifo.OldestEligible(FamilyId::invalid(), 350, 0, ConfigId::invalid()),
      std::optional<Seq>{2});
  EXPECT_EQ(
      fifo.OldestEligible(FamilyId::invalid(), 350, 3, ConfigId::invalid()),
      std::optional<Seq>{3});
  // The exact-match rule admits config 7 regardless of its area.
  EXPECT_EQ(fifo.OldestEligible(FamilyId::invalid(), 100, 0, ConfigId{7}),
            std::optional<Seq>{0});
  EXPECT_EQ(prio.BestPriorityEligible(FamilyId::invalid(), 500,
                                      ConfigId::invalid()),
            std::optional<Seq>{2});
  EXPECT_EQ(
      fifo.OldestEligible(FamilyId::invalid(), 100, 0, ConfigId::invalid()),
      std::nullopt);
  // Removals ahead of the answer move its position, not its seq.
  ASSERT_TRUE(fifo.Remove(TaskId{0}, meter));
  ASSERT_TRUE(prio.Remove(TaskId{1}, meter));
  EXPECT_EQ(fifo.OldestExactMatch(ConfigId{5}), std::optional<Seq>{1});
  EXPECT_EQ(fifo.PositionOf(1), 0u);
  EXPECT_EQ(prio.BestPriorityExactMatch(ConfigId{5}), std::optional<Seq>{3});
  EXPECT_EQ(prio.PositionOf(3), 2u);
}

TEST(SuspensionQueue, QueriesOfTheOtherOrderThrow) {
  SuspensionQueue fifo(0, SusOrder::kFifo);
  SuspensionQueue prio(0, SusOrder::kPriority);
  fifo.SetDrainIndexed(true);
  prio.SetDrainIndexed(true);
  EXPECT_THROW((void)fifo.BestPriorityExactMatch(ConfigId{1}),
               std::logic_error);
  EXPECT_THROW((void)fifo.BestPriorityEligible(FamilyId::invalid(), 100,
                                               ConfigId::invalid()),
               std::logic_error);
  EXPECT_THROW((void)prio.OldestExactMatch(ConfigId{1}), std::logic_error);
  WorkloadMeter meter;
  (void)prio.Add(TaskId{1}, Attrs(1, 100, 0.0), meter);
  EXPECT_THROW((void)prio.OldestEligible(FamilyId::invalid(), 100, 0,
                                         ConfigId::invalid()),
               std::logic_error);
  EXPECT_EQ(fifo.OldestExactMatch(ConfigId{1}), std::nullopt);
  EXPECT_EQ(prio.BestPriorityExactMatch(ConfigId{1}),
            std::optional<SuspensionQueue::Seq>{0});
}

TEST(SuspensionQueue, RequeueAfterKillChargesOneHousekeepingStep) {
  // Fault-injection recovery path: a queued task gets drained for
  // placement, its node fails mid-execution, and the kill re-queues it.
  // The re-queue is not a scheduling attempt — it must charge exactly the
  // one enqueue housekeeping step (no scheduling-search charge), in both
  // drain modes, so fault runs keep the paper's step accounting honest.
  for (const bool indexed : {false, true}) {
    SuspensionQueue q;
    q.SetDrainIndexed(indexed);
    WorkloadMeter meter;
    (void)q.Add(TaskId{1}, Attrs(2, 300, 0.0), meter);
    (void)q.Add(TaskId{2}, Attrs(3, 400, 0.0), meter);
    q.RemoveSeq(0, meter);  // drained and placed on the doomed node
    const Steps sched_before = meter.scheduling_steps_total();
    const Steps house_before = meter.housekeeping_steps_total();
    ASSERT_TRUE(q.Add(TaskId{1}, Attrs(2, 300, 0.0), meter));
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
  SuspensionQueue q;
  WorkloadMeter meter;
  (void)q.Add(TaskId{4}, Attrs(2, 700, 5.0), meter);
  (void)q.Add(TaskId{5}, Attrs(3, 600, 1.0), meter);
  q.SetDrainIndexed(true);  // rebuild from retained attributes
  const analysis::AuditReport rebuilt =
      analysis::StructureAuditor::AuditSuspensionQueue(q);
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.Render();
  using Seq = SuspensionQueue::Seq;
  EXPECT_EQ(q.OldestExactMatch(ConfigId{3}), std::optional<Seq>{1});
  // Removals and a requeue while the index is off survive the next rebuild.
  q.SetDrainIndexed(false);
  ASSERT_TRUE(q.Remove(TaskId{4}, meter));
  (void)q.Add(TaskId{4}, Attrs(3, 700, 5.0), meter);
  q.SetDrainIndexed(true);
  const analysis::AuditReport toggled =
      analysis::StructureAuditor::AuditSuspensionQueue(q);
  EXPECT_TRUE(toggled.ok()) << toggled.Render();
  EXPECT_EQ(q.OldestExactMatch(ConfigId{2}), std::nullopt);
  EXPECT_EQ(q.OldestExactMatch(ConfigId{3}), std::optional<Seq>{1});
  ASSERT_TRUE(q.Remove(TaskId{5}, meter));
  // The requeued task 4 holds seq 2, now at the front.
  EXPECT_EQ(q.OldestExactMatch(ConfigId{3}), std::optional<Seq>{2});
  EXPECT_EQ(q.TaskAt(2), TaskId{4});
  EXPECT_EQ(q.PositionOf(2), 0u);
}

TEST(SuspensionQueue, FrontPopsAfterRemovalsKeepOrderAndChargeOneStepEach) {
  // FinishReport discards the leftover queue one front pop at a time: each
  // pop must cost exactly one housekeeping step however many entries were
  // removed ahead of or behind the front, and return the FIFO order.
  for (const bool indexed : {false, true}) {
    SuspensionQueue q;
    q.SetDrainIndexed(indexed);
    WorkloadMeter meter;
    for (std::uint32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(q.Add(TaskId{i}, meter));
    }
    const auto always = [](TaskId) { return true; };
    std::vector<std::uint32_t> popped;
    const auto pop = [&] {
      const Steps before = meter.housekeeping_steps_total();
      const std::optional<TaskId> id = q.PopFirstMatching(always, meter);
      ASSERT_TRUE(id.has_value());
      EXPECT_EQ(meter.housekeeping_steps_total(), before + 1) << indexed;
      popped.push_back(id->value());
    };
    pop();                                   // 0
    ASSERT_TRUE(q.Remove(TaskId{1}, meter));  // the new front
    q.RemoveSeq(4, meter);                   // task 4 of 2 3 4 5 6 7
    pop();                                   // 2
    ASSERT_TRUE(q.Remove(TaskId{7}, meter));  // the back
    ASSERT_TRUE(q.Add(TaskId{9}, meter));
    ASSERT_TRUE(q.Remove(TaskId{3}, meter));  // the front again
    while (!q.empty()) pop();                // 5 6 9
    EXPECT_EQ(popped, (std::vector<std::uint32_t>{0, 2, 5, 6, 9})) << indexed;
    const Steps before = meter.housekeeping_steps_total();
    EXPECT_FALSE(q.PopFirstMatching(always, meter).has_value());
    EXPECT_EQ(meter.housekeeping_steps_total(), before);  // empty: no visit
    // The emptied queue accepts new work at the front.
    ASSERT_TRUE(q.Add(TaskId{4}, meter));
    EXPECT_EQ(Fifo(q), std::vector<TaskId>{TaskId{4}});
    EXPECT_EQ(q.PositionOf(q.begin().seq()), 0u);
  }
}

/// How a fuzz run drives the drain index.
enum class IndexMode { kOff, kFifo, kPriority, kToggled };

/// Queue-level differential fuzz: the queue against a plain std::vector
/// FIFO model under random Add / Remove / RemoveSeq / PopFirstMatching /
/// Contains operations, requeues of tasks that left, and index toggles.
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
  SuspensionQueue q(capacity, order);
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
  const auto random_attrs = [&rng] {
    return Attrs(static_cast<std::uint32_t>(rng.uniform_int(0, 5)),
                 rng.uniform_int(100, 2000),
                 static_cast<double>(rng.uniform_int(0, 4)),
                 rng.uniform_int(0, 2) == 0 ? FamilyId::kInvalidValue : 1);
  };
  const auto some_task = [&]() -> TaskId {
    if (!model.empty() && rng.uniform_int(0, 3) != 0) {
      return model[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(model.size()) - 1))];
    }
    return TaskId{next_task + 1000};  // never queued
  };

  for (int op = 0; op < 1500; ++op) {
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2: {
        const TaskId task{next_task++};
        const bool fits = capacity == 0 || model.size() < capacity;
        ASSERT_EQ(q.Add(task, random_attrs(), meter), fits);
        charged += 1;
        if (fits) model.push_back(task);
        break;
      }
      case 3: {
        const TaskId task = some_task();
        const auto pos = model_pos(task);
        ASSERT_EQ(q.Contains(task, meter), pos.has_value());
        charged += pos ? *pos + 1 : model.size();
        break;
      }
      case 4: {
        const TaskId task = some_task();
        const auto pos = model_pos(task);
        charged += pos ? *pos + 1 : model.size();
        ASSERT_EQ(q.Remove(task, meter), pos.has_value());
        if (pos) model.erase(model.begin() + static_cast<std::ptrdiff_t>(*pos));
        break;
      }
      case 5: {
        if (model.empty()) break;
        const auto pos = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(model.size()) - 1));
        q.RemoveSeq(std::next(q.begin(), static_cast<std::ptrdiff_t>(pos)).seq(),
                    meter);
        charged += 1;
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      }
      case 6: {  // front pop, or the first task of a residue class
        const std::uint32_t residue =
            static_cast<std::uint32_t>(rng.uniform_int(0, 3));
        const auto pred = [residue](TaskId t) {
          return residue == 3 || t.value() % 3 == residue;
        };
        const auto it = std::find_if(model.begin(), model.end(), pred);
        const std::optional<TaskId> popped = q.PopFirstMatching(pred, meter);
        if (it == model.end()) {
          ASSERT_FALSE(popped.has_value());
          charged += model.size();
        } else {
          ASSERT_EQ(popped, std::optional<TaskId>{*it});
          charged += static_cast<Steps>(it - model.begin()) + 1;
          model.erase(it);
        }
        break;
      }
      case 7:
      case 8: {  // requeue a task that left (a killed task re-enters)
        if (next_task == 0) break;
        const TaskId task{static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(next_task) - 1))};
        if (model_pos(task)) break;
        const bool fits = capacity == 0 || model.size() < capacity;
        ASSERT_EQ(q.Add(task, random_attrs(), meter), fits);
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

}  // namespace
}  // namespace dreamsim::resource
