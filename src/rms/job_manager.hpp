// Job submission manager (information subsystem, Sec. III).
//
// "The job submission manager simulates the task arrivals corresponding to
// a user-defined task arrival rate and distribution function." It converts
// a materialized Workload (synthetic or trace) into TaskStore entries and
// kernel arrival events (EventKind::kArrival, `a` = task id); whoever runs
// the kernel dispatches them.
#pragma once

#include "resource/task.hpp"
#include "sim/kernel.hpp"
#include "workload/generator.hpp"

namespace dreamsim::rms {

/// Feeds a workload into the simulation.
class JobSubmissionManager {
 public:
  JobSubmissionManager(sim::Kernel& kernel, resource::TaskStore& tasks)
      : kernel_(kernel), tasks_(tasks) {}

  /// Creates one Task (state kCreated, create_time set) per workload entry,
  /// with consecutive ids in workload order, and registers their arrivals:
  /// each fires at its create_time, ties in submission order. A workload
  /// in create_time order is read in place by the kernel's arrival cursor,
  /// so `workload` must outlive the kernel run that delivers it. Returns
  /// the number of arrivals scheduled.
  std::size_t Submit(const workload::Workload& workload);

  /// Submits one task to arrive at `at` (>= kernel.now()).
  TaskId SubmitOne(const workload::GeneratedTask& task, Tick at);

  [[nodiscard]] std::size_t submitted() const { return submitted_; }

 private:
  /// Stores the task described by `gen`, created at `at`.
  TaskId CreateTask(const workload::GeneratedTask& gen, Tick at);

  sim::Kernel& kernel_;
  resource::TaskStore& tasks_;
  std::size_t submitted_ = 0;
};

}  // namespace dreamsim::rms
