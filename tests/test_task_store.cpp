// Tests for the Task model (Eq. 3) and its store.
#include "resource/task.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
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

// The side columns read in place next to the specs; a batch without a
// column, and a task submitted on its own without the fields, read 0.
TEST(TaskStore, SideColumnsReadInPlaceAndMissingOnesReadZero) {
  const std::vector<TaskSpec> with_columns = MakeSpecs(3, 0);
  const std::vector<Bytes> data_size = {10, 0, 30};
  const std::vector<double> priority = {0.5, -2.0, 0.0};
  const std::vector<TaskSpec> without = MakeSpecs(2, 100);
  TaskStore store;
  store.Submit(with_columns, data_size, priority);
  store.Submit(without);
  (void)store.SubmitOne(MakeSpec(), 7, 1.5);
  (void)store.SubmitOne(MakeSpec());
  const std::vector<Bytes> want_size = {10, 0, 30, 0, 0, 7, 0};
  const std::vector<double> want_priority = {0.5, -2.0, 0.0, 0.0,
                                             0.0, 1.5, 0.0};
  ASSERT_EQ(store.size(), want_size.size());
  for (std::uint32_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store.DataSize(TaskId{i}), want_size[i]) << "task " << i;
    EXPECT_EQ(store.Priority(TaskId{i}), want_priority[i]) << "task " << i;
  }
  EXPECT_THROW((void)store.DataSize(TaskId{7}), std::out_of_range);
  EXPECT_THROW((void)store.Priority(TaskId::invalid()), std::out_of_range);
}

TEST(TaskStore, SubmitRejectsAColumnOfAnotherSize) {
  const std::vector<TaskSpec> specs = MakeSpecs(3, 0);
  const std::vector<Bytes> short_sizes = {1, 2};
  const std::vector<double> long_priorities = {1, 2, 3, 4};
  TaskStore store;
  EXPECT_THROW(store.Submit(specs, short_sizes), std::invalid_argument);
  EXPECT_THROW(store.Submit(specs, {}, long_priorities), std::invalid_argument);
  EXPECT_EQ(store.size(), 0u);
}

// A negative data size would be added to the network model's
// transferred-bytes total.
TEST(TaskStore, SubmitRejectsANegativeDataSize) {
  const std::vector<TaskSpec> specs = MakeSpecs(3, 0);
  const std::vector<Bytes> data_size = {0, -1, 5};
  TaskStore store;
  try {
    store.Submit(specs, data_size);
    ADD_FAILURE() << "accepted a negative data size";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "task data_size must be non-negative");
  }
  EXPECT_EQ(store.size(), 0u);
}

TEST(TaskStore, SubmitOneRejectsANegativeDataSize) {
  TaskStore store;
  EXPECT_THROW((void)store.SubmitOne(MakeSpec(), -1), std::invalid_argument);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.SubmitOne(MakeSpec(), 0).value(), 0u);
}

// A NaN priority breaks the strict weak order of the drain index's
// (-priority, seq) sets; every non-finite value is rejected.
TEST(TaskStore, SubmitRejectsANonFinitePriority) {
  const std::vector<TaskSpec> specs = MakeSpecs(3, 0);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const std::vector<double> priority = {1.0, bad, 2.0};
    TaskStore store;
    try {
      store.Submit(specs, {}, priority);
      ADD_FAILURE() << "accepted priority " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "task priority must be finite");
    }
    EXPECT_EQ(store.size(), 0u);
  }
}

TEST(TaskStore, SubmitOneRejectsANonFinitePriority) {
  TaskStore store;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)store.SubmitOne(MakeSpec(), 0, bad),
                 std::invalid_argument)
        << "priority " << bad;
  }
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.SubmitOne(MakeSpec(), 0, -3.5).value(), 0u);
  EXPECT_EQ(store.Priority(TaskId{0}), -3.5);
}

TEST(Task, WaitingTimeEq8) {
  const TaskSpec spec = MakeSpec(500, 1000, 100);
  const Tick ready_time = 150 + 5 + 12;  // t_start + t_comm + t_config
  // Eq. 8: t_start - t_create + t_comm + t_config.
  EXPECT_EQ(WaitingTime(spec, ready_time), 67);
}

TEST(Task, TurnaroundTime) {
  const TaskSpec spec = MakeSpec(500, 1000, 100);
  EXPECT_EQ(TurnaroundTime(spec, 450), 350);
}

TEST(Task, DefaultStateIsCreated) {
  const Task t;
  EXPECT_EQ(t.state, TaskState::kCreated);
  EXPECT_FALSE(t.killed);
  EXPECT_EQ(t.sus_retry, 0u);
}

TEST(Task, OneWordHoldsEveryStateKillBitAndRetryCount) {
  static_assert(sizeof(Task) == 4);
  for (std::size_t s = 0; s < kTaskStateCount; ++s) {
    for (const bool killed : {false, true}) {
      for (const std::uint32_t retries : {0u, 1u, kMaxSusRetry}) {
        Task t;
        t.state = static_cast<TaskState>(s);
        t.killed = killed;
        t.sus_retry = retries;
        const Task copy = t;
        EXPECT_EQ(copy.state, static_cast<TaskState>(s));
        EXPECT_EQ(copy.killed, killed);
        EXPECT_EQ(copy.sus_retry, retries);
      }
    }
  }
  EXPECT_EQ(kMaxSusRetry, (1u << 28) - 1);
}

TEST(TaskStore, AddRetryStopsAtTheFieldWidthNamingTheTask) {
  TaskStore store;
  (void)store.SubmitOne(MakeSpec());
  const TaskId id = store.SubmitOne(MakeSpec());
  EXPECT_EQ(store.AddRetry(id), 1u);
  EXPECT_EQ(store.AddRetry(id), 2u);
  store.Get(id).state = TaskState::kSuspended;
  store.Get(id).killed = true;
  store.Get(id).sus_retry = kMaxSusRetry - 1;
  EXPECT_EQ(store.AddRetry(id), kMaxSusRetry);
  try {
    (void)store.AddRetry(id);
    FAIL() << "a retry past 2^28 - 1 must throw";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("task 1"), std::string::npos)
        << e.what();
  }
  // The failed increment counted nothing and left the other fields alone.
  EXPECT_EQ(store.Get(id).sus_retry, kMaxSusRetry);
  EXPECT_EQ(store.Get(id).state, TaskState::kSuspended);
  EXPECT_TRUE(store.Get(id).killed);
  EXPECT_EQ(store.Get(TaskId{0}).sus_retry, 0u);
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
