// Application tasks (Eq. 3) and the task store.
//
//   Task_i(t_required, C_pref, data)
//
// A task asks for a preferred processor configuration; when that is not in
// the catalogue the scheduler falls back to the closest match by area. A
// task is two records: its TaskSpec, the generated tuple, which never
// changes once submitted, and its Task, the run-time state the simulator
// writes (lifecycle, kill bit and retry count, in one word).
// The size of the task's `data` and its scheduling priority are zero in
// every Table II run, so they are not in the spec: they sit in two side
// columns per submitted batch, and a batch without a column reads 0 for
// every one of its tasks.
// The store keeps the run-time state of every task and borrows the specs
// and columns of a submitted workload in place, so a run holds the
// workload only once.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "util/run_vector.hpp"
#include "util/types.hpp"

namespace dreamsim::resource {

/// The generated tuple of one task that every run reads: its creation tick
/// plus Eq. 3's t_required and C_pref with the area that C_pref needs.
/// Eq. 3's `data` (its size) and the scheduling priority are side columns
/// of the store (TaskStore::DataSize, TaskStore::Priority).
struct TaskSpec {
  Tick create_time = 0;
  /// Execution time on C_pref (t_required).
  Tick required_time = 0;
  /// Area of the preferred configuration (drives closest-match search).
  Area needed_area = 0;
  /// Preferred processor configuration C_pref. Valid = a catalogue
  /// configuration; invalid = the paper's "C_pref not in configurations
  /// list" case (the 15% closest-match experiments), where the scheduler
  /// matches by `needed_area`.
  ConfigId preferred_config;
};
// One spec per task for the whole run, read in place from the workload:
// two fit one 64-byte cache line.
static_assert(sizeof(TaskSpec) == 32);

/// Lifecycle of a task inside the simulator.
enum class TaskState : std::uint8_t {
  kCreated,    // generated, not yet scheduled
  kSuspended,  // parked in the suspension queue
  kRunning,    // executing on a node
  kCompleted,  // finished
  kDiscarded,  // rejected: no feasible configuration/node
};
inline constexpr std::size_t kTaskStateCount =
    static_cast<std::size_t>(TaskState::kDiscarded) + 1;

[[nodiscard]] std::string_view ToString(TaskState state);

/// Largest suspension retry count a Task can hold (its 28-bit field).
inline constexpr std::uint32_t kMaxSusRetry = (std::uint32_t{1} << 28) - 1;

/// The run-time state of one task; its TaskSpec holds the rest. A queued
/// task's resolved configuration lives in its suspension-queue attributes,
/// and a running task's configuration, node and ready tick (Eq. 8's
/// t_start + t_comm + t_config) in its store slot, not here; the
/// placement's comm and configuration waits reach observers through the
/// kPlaced event.
struct Task {
  TaskState state : 3 = TaskState::kCreated;
  /// Whether a node failure ever killed this task mid-execution (fault
  /// injection).
  bool killed : 1 = false;
  /// Times the task was re-queued from the suspension queue; at most
  /// kMaxSusRetry (TaskStore::AddRetry).
  std::uint32_t sus_retry : 28 = 0;
};
// One cell per task for the whole run: one word of run-time state.
static_assert(sizeof(Task) == 4);

/// Waiting time per Eq. 8: t_start - t_create + t_comm + t_config, where
/// `ready_time` is the placement's t_start + t_comm + t_config (the busy
/// slot's ConfigTaskPair::ready_time).
[[nodiscard]] inline Tick WaitingTime(const TaskSpec& spec, Tick ready_time) {
  return ready_time - spec.create_time;
}

/// Total time in system of a task that completed at `completion`:
/// completion - creation (Table I "average running time of each task").
[[nodiscard]] inline Tick TurnaroundTime(const TaskSpec& spec,
                                         Tick completion) {
  return completion - spec.create_time;
}

/// Number of tasks in each TaskState.
struct TaskStateCounts {
  std::array<std::size_t, kTaskStateCount> by_state{};

  [[nodiscard]] std::size_t operator[](TaskState state) const {
    return by_state[static_cast<std::size_t>(state)];
  }
};

/// Densely indexed table of every submitted task: the run-time state of
/// each, and its spec, data size and priority, either borrowed from a
/// submitted workload or owned. Ids are dense and consecutive: the n-th
/// submitted task has id n.
class TaskStore {
 public:
  /// Registers `specs` as the next tasks, in order, borrowing them and the
  /// side columns `data_size` and `priority` (each empty, which reads 0
  /// for every task, or one value per spec): the store reads them in
  /// place, so they must outlive every read of these ids. Throws
  /// std::invalid_argument, registering none, when a spec has a
  /// non-positive required_time or needed_area, a data size is negative,
  /// a priority is not finite or a non-empty column's size differs from
  /// the specs'.
  void Submit(std::span<const TaskSpec> specs,
              std::span<const Bytes> data_size = {},
              std::span<const double> priority = {});
  /// Registers one task with copies of `spec`, `data_size` and `priority`
  /// the store owns. Throws like Submit().
  TaskId SubmitOne(const TaskSpec& spec, Bytes data_size = 0,
                   double priority = 0.0);

  /// Pre-reserves room for the run-time state of `tasks` tasks in total.
  void Reserve(std::size_t tasks) { tasks_.reserve(tasks); }

  [[nodiscard]] Task& Get(TaskId id) { return tasks_[CheckedId(id)]; }
  [[nodiscard]] const Task& Get(TaskId id) const {
    return tasks_[CheckedId(id)];
  }
  /// The spec of task `id` (inline: the suspension queue's literal walks
  /// read one per visited entry).
  [[nodiscard]] const TaskSpec& Spec(TaskId id) const {
    const auto [run, offset] = Locate(id);
    return run->specs != nullptr ? run->specs[offset]
                                 : owned_[run->owned_at + offset].spec;
  }
  /// The size of task `id`'s input data (Eq. 3's `data`).
  [[nodiscard]] Bytes DataSize(TaskId id) const {
    const auto [run, offset] = Locate(id);
    if (run->specs == nullptr) return owned_[run->owned_at + offset].data_size;
    return run->data_size != nullptr ? run->data_size[offset] : 0;
  }
  /// The scheduling priority of task `id`; only a priority-order
  /// suspension queue reads it (SimulationConfig::priority_scheduling).
  /// Higher wins; ties fall back to FIFO.
  [[nodiscard]] double Priority(TaskId id) const {
    const auto [run, offset] = Locate(id);
    if (run->specs == nullptr) return owned_[run->owned_at + offset].priority;
    return run->priority != nullptr ? run->priority[offset] : 0.0;
  }
  /// Counts one more suspension retry of task `id` and returns the new
  /// count. Throws std::overflow_error naming the task, counting nothing,
  /// when the count would pass kMaxSusRetry.
  std::uint32_t AddRetry(TaskId id);
  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  /// Run-time state of every task, indexed by id.
  [[nodiscard]] const RunVector<Task>& all() const { return tasks_; }

  /// Number of tasks currently in each state, from one pass over the
  /// table.
  [[nodiscard]] TaskStateCounts CountStates() const;

 private:
  /// Consecutive ids [first, next run's first) submitted together: a
  /// borrowed batch (specs[id - first], a null column reads 0), or, when
  /// `specs` is null, owned_[owned_at + id - first].
  struct SpecRun {
    std::uint32_t first = 0;
    const TaskSpec* specs = nullptr;
    const Bytes* data_size = nullptr;
    const double* priority = nullptr;
    std::size_t owned_at = 0;
  };
  /// A task submitted on its own, with its side fields inline.
  struct OwnedTask {
    TaskSpec spec;
    Bytes data_size = 0;
    double priority = 0.0;
  };

  static void Validate(const TaskSpec& spec, Bytes data_size,
                       double priority);
  [[nodiscard]] std::uint32_t CheckedId(TaskId id) const {
    if (!id.valid() || id.value() >= tasks_.size()) ThrowUnknownId();
    return id.value();
  }
  [[noreturn]] static void ThrowUnknownId();
  /// The run holding task `id` and the id's offset in it.
  [[nodiscard]] std::pair<const SpecRun*, std::size_t> Locate(
      TaskId id) const {
    const std::uint32_t at = CheckedId(id);
    // Runs are few (one per workload, one per stretch of single
    // submissions), and the latest is the likeliest.
    auto run = runs_.end();
    do {
      --run;
    } while (run->first > at);
    return {&*run, at - run->first};
  }

  RunVector<Task> tasks_;
  std::vector<SpecRun> runs_;  // ascending by first
  std::deque<OwnedTask> owned_;  // stable: a Spec() reference outlives
                                 // later SubmitOne() calls
};

}  // namespace dreamsim::resource
