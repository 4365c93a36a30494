#include "resource/task.hpp"

#include <stdexcept>

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

void TaskStore::Validate(const TaskSpec& spec) {
  if (spec.required_time <= 0) {
    throw std::invalid_argument("task required_time must be positive");
  }
  if (spec.needed_area <= 0) {
    throw std::invalid_argument("task needed_area must be positive");
  }
}

void TaskStore::Submit(std::span<const TaskSpec> specs) {
  for (const TaskSpec& spec : specs) Validate(spec);
  if (specs.empty()) return;
  runs_.push_back({static_cast<std::uint32_t>(size()), specs.data(), 0});
  tasks_.resize(size() + specs.size());
}

TaskId TaskStore::SubmitOne(const TaskSpec& spec) {
  Validate(spec);
  const auto id = static_cast<std::uint32_t>(size());
  // Consecutive owned tasks share one run.
  if (runs_.empty() || runs_.back().borrowed != nullptr) {
    runs_.push_back({id, nullptr, owned_.size()});
  }
  owned_.push_back(spec);
  tasks_.emplace_back();
  return TaskId{id};
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
