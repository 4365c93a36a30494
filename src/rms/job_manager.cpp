#include "rms/job_manager.hpp"

namespace dreamsim::rms {

TaskId JobSubmissionManager::CreateTask(const workload::GeneratedTask& gen,
                                        Tick at) {
  resource::Task task;
  task.preferred_config = gen.preferred_config;
  task.needed_area = gen.needed_area;
  task.required_time = gen.required_time;
  task.data_size = gen.data_size;
  task.priority = gen.priority;
  task.create_time = at;
  ++submitted_;
  return tasks_.Create(task);
}

TaskId JobSubmissionManager::SubmitOne(const workload::GeneratedTask& gen,
                                       Tick at) {
  const TaskId id = CreateTask(gen, at);
  (void)kernel_.ScheduleAt(at, sim::EventPriority::kArrival,
                           sim::Event{sim::EventKind::kArrival, id.value(), 0});
  return id;
}

std::size_t JobSubmissionManager::Submit(const workload::Workload& workload) {
  // TaskStore ids are dense, so the tasks get ids first, first + 1, ...
  const auto first = static_cast<std::uint32_t>(tasks_.size());
  for (const workload::GeneratedTask& gen : workload) {
    (void)CreateTask(gen, gen.create_time);
  }
  kernel_.ScheduleArrivals(
      sim::TickView::Of(workload.data(), workload.size(),
                        &workload::GeneratedTask::create_time),
      first);
  return workload.size();
}

}  // namespace dreamsim::rms
