// Metrics collection (Table I).
//
// The collector receives one call per simulator event (task scheduled,
// configured, completed, suspended, discarded) and produces the final
// MetricsReport — every row of Table I plus diagnostic extras. See
// DESIGN.md §4 for the wasted-area sampling policies.
#pragma once

#include <cstdint>

#include "core/sim_config.hpp"
#include "obs/metrics.hpp"
#include "resource/store.hpp"
#include "resource/task.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace dreamsim::core {

/// Final per-run metrics. Field names follow Table I.
struct MetricsReport {
  // Identification
  std::string label;
  std::string policy_name;
  std::string mode_name;
  std::uint64_t seed = 0;
  std::size_t total_nodes = 0;
  std::size_t total_configs = 0;

  // Task population
  std::uint64_t total_tasks = 0;       // generated
  std::uint64_t completed_tasks = 0;
  std::uint64_t discarded_tasks = 0;   // Table I "total discarded tasks"
  std::uint64_t suspended_ever = 0;    // tasks that visited the queue
  std::uint64_t closest_match_tasks = 0;

  // Table I metrics
  double avg_wasted_area_per_task = 0.0;
  double avg_task_running_time = 0.0;       // turnaround (arrival->completion)
  double avg_reconfig_count_per_node = 0.0;
  double avg_config_time_per_task = 0.0;    // Eq. 10 / tasks
  double avg_waiting_time_per_task = 0.0;   // Eq. 9
  double avg_scheduling_steps_per_task = 0.0;
  Steps total_scheduler_workload = 0;
  std::size_t total_used_nodes = 0;
  Tick total_simulation_time = 0;           // Eq. 5

  // Decomposition / diagnostics
  Steps scheduling_steps_total = 0;
  Steps housekeeping_steps_total = 0;
  std::uint64_t total_reconfigurations = 0;
  Tick total_configuration_time = 0;        // Eq. 10
  std::uint64_t placements_by_kind[5] = {0, 0, 0, 0, 0};
  /// Placements per configuration, indexed by ConfigId (feeds the
  /// per-configuration detail report).
  std::vector<std::uint64_t> placements_per_config;
  double avg_suspension_retries = 0.0;
  /// Bitstream-cache statistics (ship_bitstreams extension; 0 otherwise).
  std::uint64_t bitstream_hits = 0;
  std::uint64_t bitstream_misses = 0;
  Tick bitstream_transfer_time = 0;

  // Fault injection (DESIGN.md §10; all zero in fault-free runs)
  std::uint64_t failures_injected = 0;
  std::uint64_t repairs_completed = 0;
  /// Running tasks killed by node failures (one task can count repeatedly).
  std::uint64_t tasks_killed = 0;
  /// Tasks that were killed at least once and still completed.
  std::uint64_t tasks_recovered = 0;
  /// Tasks that were killed at least once and ended discarded.
  std::uint64_t tasks_lost_to_failure = 0;
  /// Area×time of partially executed work destroyed by failures.
  std::uint64_t lost_work_area_ticks = 0;
  /// Summed node downtime (failure to repair, or to run end if never
  /// repaired).
  Tick total_downtime = 0;

  // Distribution summaries
  OnlineStats waiting_time_stats;
  OnlineStats turnaround_stats;
  OnlineStats wasted_area_samples;

  /// Pre-rendered final metrics-registry snapshot (obs::RenderMetricsBlock),
  /// filled by the CLI when --metrics-out/--explain enabled the registry;
  /// empty otherwise. RenderReportTable appends it verbatim.
  std::string metrics_block;
};

/// Streaming collector driven by the Simulator.
class MetricsCollector {
 public:
  MetricsCollector(WasteAccounting accounting, Tick start = 0)
      : accounting_(accounting) {
    waste_signal_.Set(start, 0.0);
  }

  /// One generated task entered the system.
  void OnTaskGenerated() {
    ++total_tasks_;
    obs::MetricInc(obs::MetricId::kTasksGenerated);
  }

  /// A scheduling attempt ran at `now` (after the policy returned).
  /// `store` provides Eq. 6 for the sampling accountings, which only
  /// sample on arrival attempts (`is_arrival`), not suspension retries,
  /// so "per task" keeps one sample per generated task.
  void OnScheduleAttempt(Tick now, bool is_arrival,
                         const resource::ResourceStore& store);

  /// A configuration was loaded for a task; `node_available_after` is the
  /// node's AvailableArea right after configuring (kOnConfigure sample).
  void OnConfigured(Tick now, Tick config_time, Area node_available_after,
                    const resource::ResourceStore& store);

  /// The Eq. 6 signal changed (any configure/reclaim/blank); needed only by
  /// kTimeWeighted.
  void OnWasteSignal(Tick now, Area total_wasted);

  void OnPlaced(const sched::Decision& decision);
  void OnSuspendedFirstTime() {
    ++suspended_ever_;
    obs::MetricInc(obs::MetricId::kTasksSuspendedFirst);
  }
  void OnDiscarded() {
    ++discarded_;
    obs::MetricInc(obs::MetricId::kTasksDiscarded);
  }
  void OnClosestMatchUsed() {
    ++closest_match_;
    obs::MetricInc(obs::MetricId::kClosestMatchPlacements);
  }

  /// Task finished at tick `completion`; called with its spec, the tick
  /// its last placement's execution began (Eq. 8) and its retry count.
  void OnCompleted(const resource::TaskSpec& spec, Tick ready_time,
                   std::uint32_t sus_retry, Tick completion);

  /// Produces the report. `store` supplies node-side aggregates; `end` is
  /// the final simulation tick (Eq. 5).
  [[nodiscard]] MetricsReport Finish(const SimulationConfig& config,
                                     std::string_view policy_name,
                                     const resource::ResourceStore& store,
                                     Tick end) const;

 private:
  WasteAccounting accounting_;

  std::uint64_t total_tasks_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t suspended_ever_ = 0;
  std::uint64_t closest_match_ = 0;
  std::uint64_t placements_by_kind_[5] = {0, 0, 0, 0, 0};
  std::vector<std::uint64_t> placements_per_config_;

  double waste_accum_ = 0.0;          // kOnConfigure / kOnSchedule
  TimeWeightedValue waste_signal_;    // kTimeWeighted
  Tick total_config_time_ = 0;        // Eq. 10 accumulation

  OnlineStats waiting_;
  OnlineStats turnaround_;
  OnlineStats waste_samples_;
  OnlineStats retries_;
};

}  // namespace dreamsim::core
