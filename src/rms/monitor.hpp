// Monitoring module (core subsystem, Sec. III): "The current states of
// different nodes can be checked by the monitoring module."
//
// The simulator notifies the monitor on every state-changing event; the
// monitor maintains time-weighted occupancy signals and peak counters that
// feed the report's utilization section. Sampling is event-driven — no
// per-tick polling — costing one O(1) snapshot (the store's FleetTotals)
// per observed event; the simulator exposes a switch to disable it.
#pragma once

#include <cstdint>

#include "rms/resource_info.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace dreamsim::rms {

/// Utilization summary produced at the end of a run.
struct UtilizationReport {
  double avg_running_tasks = 0.0;   // time-weighted
  double avg_busy_nodes = 0.0;      // time-weighted
  double avg_wasted_area = 0.0;     // time-weighted Eq. 6 signal
  std::size_t peak_running_tasks = 0;
  std::size_t peak_suspended_tasks = 0;
  Tick observed_until = 0;
};

/// Event-driven system monitor.
class MonitoringModule {
 public:
  /// Records the system state of `snapshot` (take one after each
  /// scheduling or completion event) along with the current
  /// suspension-queue depth. The simulator shares one Snapshot() between
  /// the monitor and the state observer.
  void ObserveSnapshot(const SystemSnapshot& snapshot,
                       std::size_t suspended_tasks);

  /// Finalizes the signals at tick `now` and returns the summary.
  [[nodiscard]] UtilizationReport Finish(Tick now) const;

  [[nodiscard]] std::size_t observations() const { return observations_; }

 private:
  TimeWeightedValue running_tasks_;
  TimeWeightedValue busy_nodes_;
  TimeWeightedValue wasted_area_;
  std::size_t peak_running_ = 0;
  std::size_t peak_suspended_ = 0;
  std::size_t observations_ = 0;
};

}  // namespace dreamsim::rms
