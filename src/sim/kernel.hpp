// Discrete-event simulation kernel: owns the clock and the event queue, and
// runs the event loop. Entities (the RMS, the job submission manager)
// schedule typed events; the kernel advances the clock to each event's tick
// and hands the event to the handler its owner passes to Run().
// Integer-tick semantics match the paper's timetick model while avoiding
// per-tick iteration over billion-tick horizons.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace dreamsim::sim {

/// Event-loop driver.
class Kernel {
 public:
  /// Schedules `event` to fire `delay` ticks from now (delay >= 0).
  EventHandle ScheduleAfter(Tick delay, EventPriority priority, Event event);

  /// Schedules `event` at absolute tick `at` (at >= now()).
  EventHandle ScheduleAt(Tick at, EventPriority priority, Event event);

  /// Schedules one kArrival event per entry of `ticks` (every tick >=
  /// now()): arrival i carries task id first_task + i, and ties fire in
  /// index order. A time-ordered array with the cursor free becomes the
  /// queue's arrival cursor and is read in place, so it must outlive the
  /// run; any other array takes the heap, one ScheduleAt() per entry.
  void ScheduleArrivals(TickView ticks, std::uint32_t first_task);

  /// Cancels a previously scheduled event; false if already run/cancelled.
  bool Cancel(EventHandle handle) { return queue_.Cancel(handle); }

  /// Runs until the event queue drains; calls handler(const FiredEvent&)
  /// for each event after advancing the clock to its tick.
  template <typename Handler>
  void Run(Handler&& handler) {
    while (!queue_.empty()) handler(Advance());
  }

  /// The current tick: the tick of the last executed event (0 before the
  /// first). Eq. 5's total simulation time is the tick count.
  [[nodiscard]] Tick now() const { return now_; }
  /// Read-only view of the pending-event set (structure audits).
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

  /// Pre-reserves event-queue capacity: `heap_events` simultaneously
  /// pending heap events, `total_events` events over the run.
  void ReserveEvents(std::size_t heap_events, std::size_t total_events) {
    queue_.Reserve(heap_events, total_events);
  }

 private:
  /// Pops the next live event and advances the clock to it.
  FiredEvent Advance();

  Tick now_ = 0;
  EventQueue queue_;
};

}  // namespace dreamsim::sim
