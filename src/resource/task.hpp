// Application tasks (Eq. 3) and the task store.
//
//   Task_i(t_required, C_pref, data)
//
// A task asks for a preferred processor configuration; when that is not in
// the catalogue the scheduler falls back to the closest match by area. The
// store owns every generated task and tracks its lifecycle and the
// timestamps the metrics system needs (Eq. 8/9).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace dreamsim::resource {

/// Lifecycle of a task inside the simulator.
enum class TaskState : std::uint8_t {
  kCreated,    // generated, not yet scheduled
  kSuspended,  // parked in the suspension queue
  kRunning,    // executing on a node
  kCompleted,  // finished
  kDiscarded,  // rejected: no feasible configuration/node
};

[[nodiscard]] std::string_view ToString(TaskState state);

/// One application task (Eq. 3) plus scheduling bookkeeping.
struct Task {
  TaskId id;

  /// Preferred processor configuration C_pref. May name a configuration
  /// that does not exist in the catalogue (the paper's 15% closest-match
  /// experiments); the scheduler then matches by `needed_area`.
  ConfigId preferred_config;

  /// Area of the preferred configuration (drives closest-match search).
  Area needed_area = 0;

  /// Execution time on C_pref (t_required).
  Tick required_time = 0;

  /// Size of the task's input `data` (shipped over the network model).
  Bytes data_size = 0;

  /// Scheduling priority under priority_scheduling (higher wins; ties are
  /// FIFO). The task-graph session sets this to the vertex's upward rank.
  double priority = 0.0;

  // --- Mutable scheduling state ---
  TaskState state = TaskState::kCreated;
  /// Cached result of the first ResolveConfig() for this task (C_pref when
  /// it exists in the catalogue, else the closest match). Lets the
  /// suspension-queue prefilters test config compatibility in O(1).
  ConfigId resolved_config;
  /// Configuration actually used (C_pref or closest match).
  ConfigId assigned_config;
  /// Node the task ran on (diagnostics).
  NodeId assigned_node;
  Tick create_time = kNoTick;
  Tick start_time = kNoTick;       // submission to the node (Eq. 8 t_start)
  Tick completion_time = kNoTick;
  /// Communication + configuration components of the wait (Eq. 8).
  Tick comm_time = 0;
  Tick config_wait = 0;
  /// Times the task was re-queued from the suspension queue.
  std::uint32_t sus_retry = 0;
  /// Times a node failure killed this task mid-execution (fault injection).
  std::uint32_t kill_count = 0;

  /// Waiting time per Eq. 8: t_start - t_create + t_comm + t_config.
  /// Only meaningful once the task has started.
  [[nodiscard]] Tick WaitingTime() const {
    return start_time - create_time + comm_time + config_wait;
  }

  /// Total time in system: completion - creation (Table I "average running
  /// time of each task").
  [[nodiscard]] Tick TurnaroundTime() const {
    return completion_time - create_time;
  }
};

/// Owning, densely indexed container of all generated tasks.
class TaskStore {
 public:
  /// CreateTask(): registers a task; the stored copy receives its id.
  /// Ids are dense and consecutive: the n-th created task has id n.
  TaskId Create(Task task);

  /// Pre-reserves room for `tasks` tasks in total.
  void Reserve(std::size_t tasks) { tasks_.reserve(tasks); }

  [[nodiscard]] Task& Get(TaskId id);
  [[nodiscard]] const Task& Get(TaskId id) const;
  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] const std::vector<Task>& all() const { return tasks_; }

  /// Number of tasks currently in `state`.
  [[nodiscard]] std::size_t CountInState(TaskState state) const;

 private:
  std::vector<Task> tasks_;
};

}  // namespace dreamsim::resource
