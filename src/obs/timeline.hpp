// TimeSeriesSampler (observability layer, DESIGN.md §11): turns the
// simulator's event-driven StateSample stream into an interval-sampled
// time series written as CSV.
//
// The simulator observes state only when it changes (arrival, completion,
// fault), so every signal is piecewise-constant between observations. The
// sampler resamples that signal onto a regular grid of ticks by holding the
// most recent observation ("left-hold"): the row at grid tick t carries the
// last observation at or before t. Recomputing time-weighted averages from
// the emitted rows therefore converges to the MonitoringModule's
// UtilizationReport as the interval shrinks (test_timeline), and matches it
// exactly at interval 1.
//
// Like the RunTracer this is a pure observer: it never charges the
// WorkloadMeter and paper metrics are bit-identical with sampling on.
#pragma once

#include <fstream>
#include <ostream>
#include <string>

#include "core/simulator.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace dreamsim::obs {

class TimeSeriesSampler {
 public:
  /// Samples every `interval` ticks (0 is coerced to 1; negative throws
  /// std::invalid_argument) to a caller-owned stream (tests) …
  TimeSeriesSampler(std::ostream& out, Tick interval);
  /// … or to a file the sampler owns. Throws std::runtime_error when the
  /// file cannot be opened.
  TimeSeriesSampler(const std::string& path, Tick interval);

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;
  ~TimeSeriesSampler();

  /// State-observer hook: wire with
  /// `sim.SetStateObserver([&s](const core::StateSample& x) { s.Observe(x); })`.
  /// Observations must arrive in non-decreasing tick order (the simulator
  /// guarantees this).
  void Observe(const core::StateSample& sample);

  /// Emits the grid rows up to and including `end` and flushes. Idempotent;
  /// the destructor calls it with the last observed tick if the caller did
  /// not.
  void Finish(Tick end);

  [[nodiscard]] std::size_t rows_written() const { return rows_; }
  [[nodiscard]] std::size_t observations() const { return observations_; }

 private:
  void EmitRow(Tick at) REQUIRES(role_);
  /// Emits every grid point strictly before `t` (they see the held sample).
  void CatchUpTo(Tick t) REQUIRES(role_);
  /// Writes the buffered rows to the output stream.
  void FlushBatch() REQUIRES(role_);

  std::ofstream owned_out_;
  std::ostream& sink_;
  /// Rows are all-integer and emitted on the simulator's hot path, so they
  /// are serialized with std::to_chars into this batch and written out one
  /// batch (not one ostream call) at a time (bench_overhead gates the
  /// overhead).
  std::string batch_ GUARDED_BY(role_);
  std::size_t rows_ = 0;
  Tick interval_;
  Tick next_grid_ = 0;         // next grid tick to emit
  core::StateSample held_{};   // last observation (left-hold value)
  bool have_sample_ = false;
  std::size_t observations_ = 0;
  bool finished_ = false;
  /// Single-writer contract (DESIGN.md §17): the simulation thread owns
  /// the row batch; Observe/Finish assert the role.
  util::ThreadRole role_;
};

}  // namespace dreamsim::obs
