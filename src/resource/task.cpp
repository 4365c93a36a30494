#include "resource/task.hpp"

#include <cmath>
#include <stdexcept>

#include "util/fmt.hpp"

namespace dreamsim::resource {

std::string_view ToString(TaskState state) {
  switch (state) {
    case TaskState::kCreated: return "created";
    case TaskState::kSuspended: return "suspended";
    case TaskState::kRunning: return "running";
    case TaskState::kCompleted: return "completed";
    case TaskState::kDiscarded: return "discarded";
  }
  return "?";
}

void TaskStore::Validate(const TaskSpec& spec, Bytes data_size,
                         double priority) {
  if (spec.required_time <= 0) {
    throw std::invalid_argument("task required_time must be positive");
  }
  if (spec.needed_area <= 0) {
    throw std::invalid_argument("task needed_area must be positive");
  }
  // A negative size would shrink the network's transferred-bytes total.
  if (data_size < 0) {
    throw std::invalid_argument("task data_size must be non-negative");
  }
  // A NaN key breaks the strict weak order of the drain index's priority
  // sets; an infinite one ties every other infinite one.
  if (!std::isfinite(priority)) {
    throw std::invalid_argument("task priority must be finite");
  }
}

void TaskStore::Submit(std::span<const TaskSpec> specs,
                       std::span<const Bytes> data_size,
                       std::span<const double> priority) {
  if ((!data_size.empty() && data_size.size() != specs.size()) ||
      (!priority.empty() && priority.size() != specs.size())) {
    throw std::invalid_argument(
        "task side column size differs from the spec count");
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Validate(specs[i], data_size.empty() ? 0 : data_size[i],
             priority.empty() ? 0.0 : priority[i]);
  }
  if (specs.empty()) return;
  runs_.push_back({static_cast<std::uint32_t>(size()), specs.data(),
                   data_size.empty() ? nullptr : data_size.data(),
                   priority.empty() ? nullptr : priority.data(), 0});
  tasks_.resize(size() + specs.size());
}

TaskId TaskStore::SubmitOne(const TaskSpec& spec, Bytes data_size,
                            double priority) {
  Validate(spec, data_size, priority);
  const auto id = static_cast<std::uint32_t>(size());
  // Consecutive owned tasks share one run.
  if (runs_.empty() || runs_.back().specs != nullptr) {
    runs_.push_back({id, nullptr, nullptr, nullptr, owned_.size()});
  }
  owned_.push_back({spec, data_size, priority});
  tasks_.emplace_back();
  return TaskId{id};
}

std::uint32_t TaskStore::AddRetry(TaskId id) {
  Task& task = Get(id);
  if (task.sus_retry == kMaxSusRetry) {
    throw std::overflow_error(
        Format("task {}: suspension retry count passes {}", id.value(),
               kMaxSusRetry));
  }
  return ++task.sus_retry;
}

void TaskStore::ThrowUnknownId() { throw std::out_of_range("unknown TaskId"); }

TaskStateCounts TaskStore::CountStates() const {
  TaskStateCounts counts;
  for (const Task& t : tasks_) {
    ++counts.by_state[static_cast<std::size_t>(t.state)];
  }
  return counts;
}

}  // namespace dreamsim::resource
