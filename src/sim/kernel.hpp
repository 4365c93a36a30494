// Discrete-event simulation kernel: owns the clock and the event queue, and
// runs the event loop. Entities (the RMS, the job submission manager)
// schedule typed events; the kernel advances the clock to each event's tick
// and hands the event to the handler its owner passes to Run()/Step().
// Integer-tick semantics match the paper's timetick model while avoiding
// per-tick iteration over billion-tick horizons.
#pragma once

#include <cstdint>
#include <limits>

#include "sim/clock.hpp"
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

  /// Runs until the event queue drains, the next event lies past
  /// `horizon`, or RequestStop() is called; calls handler(const
  /// FiredEvent&) for each event after advancing the clock to its tick.
  /// Returns the number of events executed.
  template <typename Handler>
  std::uint64_t Run(Handler&& handler,
                    Tick horizon = std::numeric_limits<Tick>::max()) {
    stop_requested_ = false;
    std::uint64_t count = 0;
    while (!queue_.empty() && !stop_requested_) {
      if (queue_.next_tick() > horizon) break;
      handler(Advance());
      ++count;
    }
    return count;
  }

  /// Executes at most one event; returns false when the queue is empty.
  template <typename Handler>
  bool Step(Handler&& handler) {
    if (queue_.empty()) return false;
    handler(Advance());
    return true;
  }

  /// Requests the Run() loop to stop after the current event.
  void RequestStop() { stop_requested_ = true; }

  [[nodiscard]] Tick now() const { return clock_.now(); }
  [[nodiscard]] const Clock& clock() const { return clock_; }
  [[nodiscard]] Clock& clock() { return clock_; }
  /// Read-only view of the pending-event set (structure audits).
  [[nodiscard]] const EventQueue& queue() const { return queue_; }
  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Clears all pending events and rewinds the clock to zero.
  void Reset();

  /// Pre-reserves event-queue capacity: `heap_events` simultaneously
  /// pending heap events, `total_events` events over the run.
  void ReserveEvents(std::size_t heap_events, std::size_t total_events) {
    queue_.Reserve(heap_events, total_events);
  }

 private:
  /// Pops the next live event and advances the clock to it.
  FiredEvent Advance();

  Clock clock_;
  EventQueue queue_;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace dreamsim::sim
