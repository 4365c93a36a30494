#include "rms/monitor.hpp"

#include <algorithm>

namespace dreamsim::rms {

void MonitoringModule::ObserveSnapshot(const SystemSnapshot& snapshot,
                                       std::size_t suspended_tasks) {
  const Tick now = snapshot.at;
  running_tasks_.Set(now, static_cast<double>(snapshot.running_tasks));
  busy_nodes_.Set(now, static_cast<double>(snapshot.busy_nodes));
  wasted_area_.Set(now, static_cast<double>(snapshot.wasted_area));
  peak_running_ = std::max(peak_running_, snapshot.running_tasks);
  peak_suspended_ = std::max(peak_suspended_, suspended_tasks);
  ++observations_;
}

UtilizationReport MonitoringModule::Finish(Tick now) const {
  UtilizationReport report;
  report.avg_running_tasks = running_tasks_.AverageUntil(now);
  report.avg_busy_nodes = busy_nodes_.AverageUntil(now);
  report.avg_wasted_area = wasted_area_.AverageUntil(now);
  report.peak_running_tasks = peak_running_;
  report.peak_suspended_tasks = peak_suspended_;
  report.observed_until = now;
  return report;
}

}  // namespace dreamsim::rms
