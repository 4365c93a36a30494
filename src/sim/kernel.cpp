#include "sim/kernel.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace dreamsim::sim {

EventHandle Kernel::ScheduleAfter(Tick delay, EventPriority priority,
                                  Event event) {
  if (delay < 0) throw std::invalid_argument("negative event delay");
  return queue_.Push(clock_.now() + delay, priority, event);
}

EventHandle Kernel::ScheduleAt(Tick at, EventPriority priority, Event event) {
  if (at < clock_.now()) {
    throw std::invalid_argument("cannot schedule an event in the past");
  }
  return queue_.Push(at, priority, event);
}

void Kernel::ScheduleArrivals(TickView ticks, std::uint32_t first_task) {
  if (ticks.empty()) return;
  bool ordered = true;
  Tick earliest = ticks[0];
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    const Tick tick = ticks[i];
    if (tick < ticks[i - 1]) ordered = false;
    if (tick < earliest) earliest = tick;
  }
  if (earliest < clock_.now()) {
    throw std::invalid_argument("cannot schedule an event in the past");
  }
  if (ordered && queue_.cursor_free()) {
    (void)queue_.PushArrivals(ticks, first_task);
    return;
  }
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    (void)queue_.Push(
        ticks[i], EventPriority::kArrival,
        Event{EventKind::kArrival,
              first_task + static_cast<std::uint32_t>(i), 0});
  }
}

FiredEvent Kernel::Advance() {
  const FiredEvent fired = queue_.Pop();
  if (obs::MetricsRegistry::enabled()) {
    // Simulated-time stride between consecutive executed events — a model-
    // plane histogram: the event order is a pure function of (seed, config).
    obs::MetricObserve(
        obs::MetricId::kEventGapTicks,
        static_cast<std::uint64_t>(fired.tick - clock_.now()));
  }
  clock_.AdvanceTo(fired.tick);
  ++executed_;
  return fired;
}

void Kernel::Reset() {
  queue_.Clear();
  clock_.Reset();
  executed_ = 0;
  stop_requested_ = false;
}

}  // namespace dreamsim::sim
