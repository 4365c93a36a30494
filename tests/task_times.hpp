// Test-only per-task timestamps read from the Simulator's event stream.
// Only the busy store slot keeps the tick execution begins (Eq. 8's
// t_start + t_comm + t_config), and only while the task runs, so tests that
// check a placement's timing take it from the task's latest kPlaced event,
// the slot's tick at that event, and the kCompleted event that ends it.
#pragma once

#include <vector>

#include "core/simulator.hpp"

namespace dreamsim::testtimes {

/// One task's latest placement and its completion.
struct TaskTimes {
  Tick placed = kNoTick;  // Eq. 8 t_start of the latest placement
  NodeId node;
  ConfigId config;
  Tick comm_time = 0;
  Tick config_wait = 0;
  /// The ready tick the task's busy slot held at its latest kPlaced event.
  Tick slot_ready = kNoTick;
  Tick completed = kNoTick;  // kNoTick unless the task completed

  /// Tick execution began: t_start + t_comm + t_config.
  [[nodiscard]] Tick ready() const { return placed + comm_time + config_wait; }
};

/// Records the TaskTimes of every task of `sim` through its event logger,
/// which it takes over; it must outlive the runs it records.
class TaskTimeLog {
 public:
  explicit TaskTimeLog(core::Simulator& sim) : sim_(sim) {
    sim.SetEventLogger([this](const core::SimEvent& e) { Record(e); });
  }
  TaskTimeLog(const TaskTimeLog&) = delete;
  TaskTimeLog& operator=(const TaskTimeLog&) = delete;

  /// The times of task `id`; all unset for a task with no event yet.
  [[nodiscard]] const TaskTimes& operator[](TaskId id) const {
    static const TaskTimes kNone;
    return id.value() < times_.size() ? times_[id.value()] : kNone;
  }
  /// Completed tasks, in completion order.
  [[nodiscard]] const std::vector<TaskId>& completions() const {
    return completions_;
  }

 private:
  void Record(const core::SimEvent& e) {
    using Kind = core::SimEvent::Kind;
    if (e.kind != Kind::kPlaced && e.kind != Kind::kCompleted) return;
    if (times_.size() <= e.task.value()) times_.resize(e.task.value() + 1);
    TaskTimes& t = times_[e.task.value()];
    if (e.kind == Kind::kCompleted) {
      t.completed = e.tick;
      completions_.push_back(e.task);
      return;
    }
    t.placed = e.tick;
    t.node = e.node;
    t.config = e.config;
    t.comm_time = e.comm_time;
    t.config_wait = e.config_wait;
    // The placement has assigned the task to a slot of e.node: read its
    // tick there while the slot is busy.
    t.slot_ready = kNoTick;
    const resource::Node& node = sim_.store().node(e.node);
    node.ForEachSlot(
        [&](resource::SlotIndex, const resource::ConfigTaskPair& pair) {
          if (pair.task == e.task) t.slot_ready = pair.ready_time;
        });
  }

  const core::Simulator& sim_;
  std::vector<TaskTimes> times_;
  std::vector<TaskId> completions_;
};

}  // namespace dreamsim::testtimes
