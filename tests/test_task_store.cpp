// Tests for the Task model (Eq. 3) and its store.
#include "resource/task.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dreamsim::resource {
namespace {

TaskSpec MakeSpec(Area area = 500, Tick required = 1000, Tick created = 0) {
  TaskSpec spec;
  spec.create_time = created;
  spec.preferred_config = ConfigId{0};
  spec.needed_area = area;
  spec.required_time = required;
  return spec;
}

// A workload of `count` specs told apart by their areas: 100 + offset + k.
std::vector<TaskSpec> MakeSpecs(std::size_t count, Area offset) {
  std::vector<TaskSpec> specs;
  for (std::size_t k = 0; k < count; ++k) {
    specs.push_back(MakeSpec(100 + offset + static_cast<Area>(k), 10,
                             static_cast<Tick>(k)));
  }
  return specs;
}

TEST(TaskStore, CreateAssignsSequentialIds) {
  TaskStore store;
  const TaskId a = store.SubmitOne(MakeSpec());
  const TaskId b = store.SubmitOne(MakeSpec());
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(TaskStore, CreateValidates) {
  TaskStore store;
  EXPECT_THROW((void)store.SubmitOne(MakeSpec(500, 0)), std::invalid_argument);
  EXPECT_THROW((void)store.SubmitOne(MakeSpec(0, 100)), std::invalid_argument);
  EXPECT_EQ(store.size(), 0u);
}

TEST(TaskStore, GetRejectsUnknownIds) {
  TaskStore store;
  EXPECT_THROW((void)store.Get(TaskId{0}), std::out_of_range);
  EXPECT_THROW((void)store.Get(TaskId::invalid()), std::out_of_range);
  EXPECT_THROW((void)store.Spec(TaskId{0}), std::out_of_range);
  (void)store.SubmitOne(MakeSpec());
  EXPECT_THROW((void)store.Spec(TaskId{1}), std::out_of_range);
  EXPECT_THROW((void)store.Spec(TaskId::invalid()), std::out_of_range);
}

TEST(TaskStore, MutationThroughGet) {
  TaskStore store;
  const TaskId id = store.SubmitOne(MakeSpec());
  store.Get(id).state = TaskState::kRunning;
  EXPECT_EQ(store.Get(id).state, TaskState::kRunning);
}

TEST(TaskStore, CountStates) {
  TaskStore store;
  for (int i = 0; i < 6; ++i) (void)store.SubmitOne(MakeSpec());
  store.Get(TaskId{0}).state = TaskState::kCompleted;
  store.Get(TaskId{1}).state = TaskState::kCompleted;
  store.Get(TaskId{2}).state = TaskState::kDiscarded;
  store.Get(TaskId{3}).state = TaskState::kRunning;
  const TaskStateCounts counts = store.CountStates();
  EXPECT_EQ(counts[TaskState::kCompleted], 2u);
  EXPECT_EQ(counts[TaskState::kDiscarded], 1u);
  EXPECT_EQ(counts[TaskState::kRunning], 1u);
  EXPECT_EQ(counts[TaskState::kSuspended], 0u);
  EXPECT_EQ(counts[TaskState::kCreated], 2u);
}

TEST(TaskStore, SubmitBorrowsTheWorkloadInPlace) {
  const std::vector<TaskSpec> specs = MakeSpecs(4, 0);
  TaskStore store;
  store.Submit(specs);
  ASSERT_EQ(store.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(&store.Spec(TaskId{i}), &specs[i]);
    EXPECT_EQ(store.Get(TaskId{i}).state, TaskState::kCreated);
  }
}

TEST(TaskStore, SubmitOneOwnsItsCopy) {
  TaskStore store;
  TaskSpec spec = MakeSpec(321, 77, 5);
  const TaskId id = store.SubmitOne(spec);
  spec.needed_area = 1;  // the store kept its own copy
  EXPECT_EQ(store.Spec(id).needed_area, 321);
  EXPECT_EQ(store.Spec(id).required_time, 77);
  EXPECT_EQ(store.Spec(id).create_time, 5);
}

// Workloads and single submissions interleave: ids stay dense and every
// spec reads back from where it was submitted.
TEST(TaskStore, MixedSubmissionsKeepIdsDenseAndSpecsReadable) {
  const std::vector<TaskSpec> first = MakeSpecs(3, 0);
  const std::vector<TaskSpec> second = MakeSpecs(5, 1000);
  const std::vector<TaskSpec> empty;
  TaskStore store;
  std::vector<Area> want;
  const auto submit_one = [&](Area area) {
    const TaskId id = store.SubmitOne(MakeSpec(area));
    EXPECT_EQ(id.value(), want.size());
    want.push_back(area);
  };
  const auto submit = [&](const std::vector<TaskSpec>& specs) {
    store.Submit(specs);
    for (const TaskSpec& spec : specs) want.push_back(spec.needed_area);
  };
  submit_one(7);  // owned run before any workload (graph roots)
  submit_one(8);
  submit(first);
  submit(empty);
  submit_one(9);  // owned run between workloads
  submit(second);
  submit_one(10);  // and after the last (chain links)
  submit_one(11);
  ASSERT_EQ(store.size(), want.size());
  for (std::uint32_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(store.Spec(TaskId{i}).needed_area, want[i]) << "task " << i;
  }
  EXPECT_EQ(&store.Spec(TaskId{2}), &first[0]);
  EXPECT_EQ(&store.Spec(TaskId{6}), &second[0]);
}

TEST(TaskStore, OwnedSpecsStayPutAcrossLaterSubmissions) {
  TaskStore store;
  const TaskSpec& kept = store.Spec(store.SubmitOne(MakeSpec(123)));
  for (int i = 0; i < 5000; ++i) (void)store.SubmitOne(MakeSpec(200));
  EXPECT_EQ(&kept, &store.Spec(TaskId{0}));
  EXPECT_EQ(kept.needed_area, 123);
}

// A workload with one bad entry is rejected whole, with the message a
// single submission gives, and leaves the store as it was.
TEST(TaskStore, InvalidWorkloadRegistersNothing) {
  for (const bool bad_time : {true, false}) {
    std::vector<TaskSpec> specs = MakeSpecs(4, 0);
    if (bad_time) {
      specs[2].required_time = 0;
    } else {
      specs[2].needed_area = -3;
    }
    TaskStore store;
    (void)store.SubmitOne(MakeSpec(50));
    try {
      store.Submit(specs);
      ADD_FAILURE() << "accepted an invalid workload";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                bad_time ? "task required_time must be positive"
                         : "task needed_area must be positive");
    }
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.Spec(TaskId{0}).needed_area, 50);
    EXPECT_THROW((void)store.Spec(TaskId{1}), std::out_of_range);
    // The store still takes the next valid submission at the next id.
    EXPECT_EQ(store.SubmitOne(MakeSpec(60)).value(), 1u);
    EXPECT_EQ(store.Spec(TaskId{1}).needed_area, 60);
  }
}

TEST(Task, WaitingTimeEq8) {
  const TaskSpec spec = MakeSpec(500, 1000, 100);
  Task t;
  t.ready_time = 150 + 5 + 12;  // t_start + t_comm + t_config
  // Eq. 8: t_start - t_create + t_comm + t_config.
  EXPECT_EQ(WaitingTime(spec, t), 67);
}

TEST(Task, TurnaroundTime) {
  const TaskSpec spec = MakeSpec(500, 1000, 100);
  EXPECT_EQ(TurnaroundTime(spec, 450), 350);
}

TEST(Task, DefaultStateIsCreated) {
  const Task t;
  EXPECT_EQ(t.state, TaskState::kCreated);
  EXPECT_EQ(t.ready_time, kNoTick);
  EXPECT_FALSE(t.killed);
  EXPECT_EQ(t.sus_retry, 0u);
}

TEST(TaskStateNames, AllCovered) {
  EXPECT_EQ(ToString(TaskState::kCreated), "created");
  EXPECT_EQ(ToString(TaskState::kSuspended), "suspended");
  EXPECT_EQ(ToString(TaskState::kRunning), "running");
  EXPECT_EQ(ToString(TaskState::kCompleted), "completed");
  EXPECT_EQ(ToString(TaskState::kDiscarded), "discarded");
}

}  // namespace
}  // namespace dreamsim::resource
