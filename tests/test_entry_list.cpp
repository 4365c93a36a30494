// Tests for the per-configuration idle/busy membership lists and their
// step accounting (Fig. 3 structures).
#include "resource/entry_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "util/rng.hpp"

namespace dreamsim::resource {
namespace {

EntryRef E(std::uint32_t node, SlotIndex slot) {
  return EntryRef{NodeId{node}, slot};
}

TEST(EntryList, AddAndContains) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(1, 0), meter);
  list.Add(E(2, 1), meter);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_TRUE(list.Contains(E(1, 0), meter, StepKind::kHousekeeping));
  EXPECT_FALSE(list.Contains(E(3, 0), meter, StepKind::kHousekeeping));
}

TEST(EntryList, AddChargesOneHousekeepingStep) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(1, 0), meter);
  EXPECT_EQ(meter.housekeeping_steps_total(), 1u);
  EXPECT_EQ(meter.scheduling_steps_total(), 0u);
}

TEST(EntryList, AddReturnsThePosition) {
  EntryList list;
  WorkloadMeter meter;
  EXPECT_EQ(list.Add(E(4, 0), meter), 0u);
  EXPECT_EQ(list.Add(E(2, 3), meter), 1u);
  EXPECT_EQ(list.Add(E(9, 1), meter), 2u);
}

TEST(EntryList, RemoveExistingAndMissing) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(1, 0), meter);
  list.Add(E(2, 0), meter);
  const EntryList::Removal removal = list.Remove(E(1, 0), 0, meter);
  EXPECT_TRUE(removal.removed);
  // The last cell moved into the freed position.
  EXPECT_EQ(removal.moved, E(2, 0));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_FALSE(list.Remove(E(1, 0), 0, meter).removed);
  EXPECT_FALSE(list.Remove(E(1, 0), 5, meter).removed);
  EXPECT_TRUE(list.Contains(E(2, 0), meter, StepKind::kHousekeeping));
  // Removing the last cell moves nothing.
  const EntryList::Removal last = list.Remove(E(2, 0), 0, meter);
  EXPECT_TRUE(last.removed);
  EXPECT_EQ(last.moved.slot, kInvalidSlot);
  EXPECT_TRUE(list.empty());
}

TEST(EntryList, RemoveChargesTraversalSteps) {
  EntryList list;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 10; ++i) list.Add(E(i, 0), meter);
  Steps before = meter.housekeeping_steps_total();
  // Element at position 7 costs 8 visited cells.
  EXPECT_TRUE(list.Remove(E(7, 0), 7, meter).removed);
  EXPECT_EQ(meter.housekeeping_steps_total() - before, 8u);
  // A miss costs the whole list.
  before = meter.housekeeping_steps_total();
  EXPECT_FALSE(list.Remove(E(7, 0), 7, meter).removed);
  EXPECT_EQ(meter.housekeeping_steps_total() - before, 9u);
}

TEST(EntryList, SlotDistinguishesEntriesOnSameNode) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(1, 0), meter);
  list.Add(E(1, 1), meter);
  EXPECT_FALSE(list.Remove(E(1, 1), 0, meter).removed);
  EXPECT_TRUE(list.Remove(E(1, 1), 1, meter).removed);
  EXPECT_TRUE(list.Contains(E(1, 0), meter, StepKind::kHousekeeping));
  EXPECT_FALSE(list.Contains(E(1, 1), meter, StepKind::kHousekeeping));
}

TEST(EntryList, FindFirstStopsAtMatch) {
  EntryList list;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 10; ++i) list.Add(E(i, 0), meter);
  const Steps before = meter.scheduling_steps_total();
  const auto found = list.FindFirst(
      [](EntryRef e) { return e.node.value() == 3; }, meter,
      StepKind::kSchedulingSearch);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->node.value(), 3u);
  EXPECT_EQ(meter.scheduling_steps_total() - before, 4u);
}

TEST(EntryList, FindFirstMissScansAll) {
  EntryList list;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < 5; ++i) list.Add(E(i, 0), meter);
  const Steps before = meter.scheduling_steps_total();
  const auto found = list.FindFirst([](EntryRef) { return false; }, meter,
                                    StepKind::kSchedulingSearch);
  EXPECT_FALSE(found.has_value());
  EXPECT_EQ(meter.scheduling_steps_total() - before, 5u);
}

TEST(EntryList, FindMinSelectsSmallestKey) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(5, 0), meter);
  list.Add(E(2, 0), meter);
  list.Add(E(8, 0), meter);
  const auto best = list.FindMin(
      [](EntryRef e) { return static_cast<long long>(e.node.value()); },
      [](EntryRef) { return true; }, meter, StepKind::kSchedulingSearch);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->node.value(), 2u);
}

TEST(EntryList, FindMinHonoursAcceptFilter) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(1, 0), meter);
  list.Add(E(2, 0), meter);
  const auto best = list.FindMin(
      [](EntryRef e) { return static_cast<long long>(e.node.value()); },
      [](EntryRef e) { return e.node.value() != 1; }, meter,
      StepKind::kSchedulingSearch);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->node.value(), 2u);
}

TEST(EntryList, FindMinEmptyOrAllRejected) {
  EntryList list;
  WorkloadMeter meter;
  EXPECT_FALSE(list.FindMin([](EntryRef) { return 0LL; },
                            [](EntryRef) { return true; }, meter,
                            StepKind::kSchedulingSearch)
                   .has_value());
  list.Add(E(1, 0), meter);
  EXPECT_FALSE(list.FindMin([](EntryRef) { return 0LL; },
                            [](EntryRef) { return false; }, meter,
                            StepKind::kSchedulingSearch)
                   .has_value());
}

TEST(EntryList, FindMinTieKeepsEarliest) {
  EntryList list;
  WorkloadMeter meter;
  list.Add(E(4, 0), meter);
  list.Add(E(4, 1), meter);
  const auto best = list.FindMin(
      [](EntryRef e) { return static_cast<long long>(e.node.value()); },
      [](EntryRef) { return true; }, meter, StepKind::kSchedulingSearch);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->slot, 0u);
}

// Random Add/Remove, absent entries included, against a plain vector
// walked the way the paper's linked list is: the cells, the positions the
// caller records and the charges agree after every operation.
TEST(EntryList, MatchesTheLinearSearchModel) {
  Rng rng(77);
  EntryList list;
  WorkloadMeter meter;
  std::vector<EntryRef> model;
  Steps model_steps = 0;
  std::map<std::uint64_t, std::size_t> recorded;  // packed entry -> position
  for (int step = 0; step < 20000; ++step) {
    const EntryRef entry = E(static_cast<std::uint32_t>(rng.uniform_int(0, 40)),
                             static_cast<SlotIndex>(rng.uniform_int(0, 3)));
    const auto it = recorded.find(PackEntryRef(entry));
    if (it == recorded.end() && rng.uniform_int(0, 2) != 0) {
      recorded[PackEntryRef(entry)] = list.Add(entry, meter);
      model.push_back(entry);
      model_steps += 1;
    } else {
      // A present entry at its recorded position, or an absent one at any
      // position, in range or not.
      const bool present = it != recorded.end();
      const std::size_t pos =
          present ? it->second
                  : static_cast<std::size_t>(rng.uniform_int(0, 60));
      const EntryList::Removal removal = list.Remove(entry, pos, meter);
      const auto found = std::find(model.begin(), model.end(), entry);
      ASSERT_EQ(removal.removed, found != model.end()) << "step " << step;
      if (found == model.end()) {
        model_steps += model.size();
      } else {
        const auto at = static_cast<std::size_t>(found - model.begin());
        model_steps += at + 1;
        *found = model.back();
        model.pop_back();
        recorded.erase(it);
        if (at < model.size()) {
          ASSERT_EQ(removal.moved, model[at]) << "step " << step;
          recorded[PackEntryRef(removal.moved)] = pos;
        } else {
          ASSERT_EQ(removal.moved.slot, kInvalidSlot) << "step " << step;
        }
      }
    }
    // lint: allow(entry-cells-iteration) — the model compares raw storage
    ASSERT_EQ(list.cells(), model) << "step " << step;
    ASSERT_EQ(meter.housekeeping_steps_total(), model_steps) << "step " << step;
    ASSERT_EQ(recorded.size(), model.size());
    for (const auto& [packed, pos] : recorded) {
      ASSERT_EQ(model[pos], UnpackEntryRef(packed)) << "step " << step;
    }
  }
}

TEST(WorkloadMeter, SeparatesKindsAndTotals) {
  WorkloadMeter meter;
  meter.BeginTask();
  meter.Add(StepKind::kSchedulingSearch, 3);
  meter.Add(StepKind::kHousekeeping, 2);
  EXPECT_EQ(meter.current_task_steps(), 3u);
  EXPECT_EQ(meter.scheduling_steps_total(), 3u);
  EXPECT_EQ(meter.housekeeping_steps_total(), 2u);
  EXPECT_EQ(meter.total_workload(), 5u);

  meter.BeginTask();
  EXPECT_EQ(meter.current_task_steps(), 0u);
  EXPECT_EQ(meter.total_workload(), 5u);  // totals survive BeginTask
}

TEST(WorkloadMeter, ResetClearsEverything) {
  WorkloadMeter meter;
  meter.Add(StepKind::kSchedulingSearch, 10);
  meter.Reset();
  EXPECT_EQ(meter.total_workload(), 0u);
  EXPECT_EQ(meter.scheduling_steps_total(), 0u);
  EXPECT_EQ(meter.housekeeping_steps_total(), 0u);
}

}  // namespace
}  // namespace dreamsim::resource
