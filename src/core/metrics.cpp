#include "core/metrics.hpp"

namespace dreamsim::core {

std::string_view ToString(WasteAccounting accounting) {
  switch (accounting) {
    case WasteAccounting::kOnConfigure: return "on-configure";
    case WasteAccounting::kOnSchedule: return "on-schedule";
    case WasteAccounting::kTimeWeighted: return "time-weighted";
    case WasteAccounting::kIdleConfigured: return "idle-configured";
  }
  return "?";
}

std::string_view ToString(PolicyChoice choice) {
  switch (choice) {
    case PolicyChoice::kDreamSim: return "dreamsim";
    case PolicyChoice::kFirstFit: return "first-fit";
    case PolicyChoice::kBestFit: return "best-fit";
    case PolicyChoice::kWorstFit: return "worst-fit";
    case PolicyChoice::kRandomFit: return "random-fit";
    case PolicyChoice::kRoundRobin: return "round-robin";
    case PolicyChoice::kLeastLoaded: return "least-loaded";
  }
  return "?";
}

void MetricsCollector::OnScheduleAttempt(Tick /*now*/, bool is_arrival,
                                         const resource::ResourceStore& store) {
  if (!is_arrival) return;
  if (accounting_ == WasteAccounting::kOnSchedule) {
    const auto wasted = static_cast<double>(store.TotalWastedArea());
    waste_accum_ += wasted;
    waste_samples_.Add(wasted);
  } else if (accounting_ == WasteAccounting::kIdleConfigured) {
    const auto wasted = static_cast<double>(store.TotalIdleWastedArea());
    waste_accum_ += wasted;
    waste_samples_.Add(wasted);
  }
}

void MetricsCollector::OnConfigured(Tick /*now*/, Tick config_time,
                                    Area node_available_after,
                                    const resource::ResourceStore& /*store*/) {
  total_config_time_ += config_time;
  if (accounting_ == WasteAccounting::kOnConfigure) {
    const auto wasted = static_cast<double>(node_available_after);
    waste_accum_ += wasted;
    waste_samples_.Add(wasted);
  }
}

void MetricsCollector::OnWasteSignal(Tick now, Area total_wasted) {
  if (accounting_ == WasteAccounting::kTimeWeighted) {
    waste_signal_.Set(now, static_cast<double>(total_wasted));
  }
}

void MetricsCollector::OnPlaced(const sched::Decision& decision) {
  obs::MetricInc(obs::MetricId::kTasksPlaced);
  const auto kind = static_cast<std::size_t>(decision.kind);
  if (kind < 5) ++placements_by_kind_[kind];
  if (decision.config.valid()) {
    const std::size_t index = decision.config.value();
    if (placements_per_config_.size() <= index) {
      placements_per_config_.resize(index + 1, 0);
    }
    ++placements_per_config_[index];
  }
}

void MetricsCollector::OnCompleted(const resource::TaskSpec& spec,
                                   Tick ready_time, std::uint32_t sus_retry,
                                   Tick completion) {
  ++completed_;
  obs::MetricInc(obs::MetricId::kTasksCompleted);
  waiting_.Add(static_cast<double>(resource::WaitingTime(spec, ready_time)));
  turnaround_.Add(
      static_cast<double>(resource::TurnaroundTime(spec, completion)));
  retries_.Add(static_cast<double>(sus_retry));
}

MetricsReport MetricsCollector::Finish(const SimulationConfig& config,
                                       std::string_view policy_name,
                                       const resource::ResourceStore& store,
                                       Tick end) const {
  MetricsReport r;
  r.label = config.label;
  r.policy_name = std::string(policy_name);
  r.mode_name = std::string(sched::ToString(config.mode));
  r.seed = config.seed;
  r.total_nodes = store.node_count();
  r.total_configs = store.configs().size();

  r.total_tasks = total_tasks_;
  r.completed_tasks = completed_;
  r.discarded_tasks = discarded_;
  r.suspended_ever = suspended_ever_;
  r.closest_match_tasks = closest_match_;

  const double tasks =
      total_tasks_ > 0 ? static_cast<double>(total_tasks_) : 1.0;

  switch (accounting_) {
    case WasteAccounting::kOnConfigure:
    case WasteAccounting::kOnSchedule:
    case WasteAccounting::kIdleConfigured:
      r.avg_wasted_area_per_task = waste_accum_ / tasks;
      break;
    case WasteAccounting::kTimeWeighted:
      r.avg_wasted_area_per_task = waste_signal_.AverageUntil(end);
      break;
  }

  r.avg_task_running_time = turnaround_.mean();
  r.avg_waiting_time_per_task = waiting_.mean();
  const double node_count =
      store.node_count() > 0 ? static_cast<double>(store.node_count()) : 1.0;
  r.avg_reconfig_count_per_node =
      static_cast<double>(store.TotalReconfigurations()) / node_count;
  r.avg_config_time_per_task = static_cast<double>(total_config_time_) / tasks;

  const resource::WorkloadMeter& meter = store.meter();
  r.scheduling_steps_total = meter.scheduling_steps_total();
  r.housekeeping_steps_total = meter.housekeeping_steps_total();
  r.total_scheduler_workload = meter.total_workload();
  r.avg_scheduling_steps_per_task =
      static_cast<double>(meter.scheduling_steps_total()) / tasks;

  r.total_used_nodes = store.UsedNodeCount();
  r.total_simulation_time = end;
  r.total_reconfigurations = store.TotalReconfigurations();
  r.total_configuration_time = total_config_time_;
  for (std::size_t i = 0; i < 5; ++i) {
    r.placements_by_kind[i] = placements_by_kind_[i];
  }
  r.placements_per_config = placements_per_config_;
  r.avg_suspension_retries = retries_.mean();

  r.waiting_time_stats = waiting_;
  r.turnaround_stats = turnaround_;
  r.wasted_area_samples = waste_samples_;
  return r;
}

}  // namespace dreamsim::core
