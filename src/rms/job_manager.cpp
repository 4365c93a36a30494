#include "rms/job_manager.hpp"

namespace dreamsim::rms {

TaskId JobSubmissionManager::SubmitOne(const workload::GeneratedTask& gen,
                                       Tick at) {
  resource::TaskSpec spec = gen;
  spec.create_time = at;
  const TaskId id = tasks_.SubmitOne(spec, gen.data_size, gen.priority);
  ++submitted_;
  (void)kernel_.ScheduleAt(at, sim::EventPriority::kArrival,
                           sim::Event{sim::EventKind::kArrival, id.value(), 0});
  return id;
}

std::size_t JobSubmissionManager::Submit(const workload::Workload& workload) {
  // TaskStore ids are dense, so the tasks get ids first, first + 1, ...
  const auto first = static_cast<std::uint32_t>(tasks_.size());
  tasks_.Submit(workload.specs(), workload.data_sizes(),
                workload.priorities());
  submitted_ += workload.size();
  kernel_.ScheduleArrivals(
      sim::TickView::Of(workload.specs().data(), workload.size(),
                        &resource::TaskSpec::create_time),
      first);
  return workload.size();
}

}  // namespace dreamsim::rms
