#include "obs/timeline.hpp"

#include <charconv>
#include <stdexcept>

#include "util/fmt.hpp"

namespace dreamsim::obs {
namespace {

constexpr std::string_view kHeader =
    "tick,busy_nodes,running_tasks,suspended_tasks,wasted_area,"
    "scheduler_steps,failed_nodes\n";

/// Row batching: sampling sits on the simulator's hot path and a fine grid
/// emits tens of thousands of rows (bench_overhead gates the overhead).
constexpr std::size_t kBatchBytes = 64 * 1024;
/// Seven 20-digit fields, commas, newline — a row cannot outgrow this.
constexpr std::size_t kMaxRowBytes = 160;

char* PutU64(char* p, std::uint64_t value) {
  return std::to_chars(p, p + 20, value).ptr;
}

/// The sampling step: 0 means 1; a negative step would never reach the
/// next grid tick, so it is rejected.
Tick CheckedInterval(Tick interval) {
  if (interval < 0) {
    throw std::invalid_argument(
        Format("timeline sampling interval must be non-negative (got {})",
               interval));
  }
  return interval == 0 ? 1 : interval;
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(std::ostream& out, Tick interval)
    : sink_(out), interval_(CheckedInterval(interval)) {
  batch_.reserve(kBatchBytes);
  sink_ << kHeader;
}

TimeSeriesSampler::TimeSeriesSampler(const std::string& path, Tick interval)
    : sink_(owned_out_), interval_(CheckedInterval(interval)) {
  // Opened only once the interval is known good, so a rejected interval
  // leaves no file behind.
  owned_out_.open(path);
  if (!owned_out_.is_open()) {
    throw std::runtime_error(Format("cannot open timeline file '{}'", path));
  }
  batch_.reserve(kBatchBytes);
  sink_ << kHeader;
}

TimeSeriesSampler::~TimeSeriesSampler() {
  if (!finished_ && have_sample_) Finish(held_.tick);
}

void TimeSeriesSampler::EmitRow(Tick at) {
  char buf[kMaxRowBytes];
  char* p = buf;
  p = PutU64(p, static_cast<std::uint64_t>(at));
  *p++ = ',';
  p = PutU64(p, static_cast<std::uint64_t>(held_.busy_nodes));
  *p++ = ',';
  p = PutU64(p, static_cast<std::uint64_t>(held_.running_tasks));
  *p++ = ',';
  p = PutU64(p, static_cast<std::uint64_t>(held_.suspended_tasks));
  *p++ = ',';
  p = PutU64(p, static_cast<std::uint64_t>(held_.wasted_area));
  *p++ = ',';
  p = PutU64(p, static_cast<std::uint64_t>(held_.scheduler_steps));
  *p++ = ',';
  p = PutU64(p, static_cast<std::uint64_t>(held_.failed_nodes));
  *p++ = '\n';
  batch_.append(buf, static_cast<std::size_t>(p - buf));
  if (batch_.size() > kBatchBytes - kMaxRowBytes) FlushBatch();
  ++rows_;
}

void TimeSeriesSampler::FlushBatch() {
  if (batch_.empty()) return;
  sink_.write(batch_.data(), static_cast<std::streamsize>(batch_.size()));
  batch_.clear();
}

void TimeSeriesSampler::CatchUpTo(Tick t) {
  // A grid point is final once an observation lands strictly beyond it:
  // the held sample is then the last observation at-or-before the point.
  while (next_grid_ < t) {
    EmitRow(next_grid_);
    next_grid_ += interval_;
  }
}

void TimeSeriesSampler::Observe(const core::StateSample& sample) {
  ++observations_;
  if (!have_sample_) {
    // Anchor the grid at the first observation (the same tick the
    // MonitoringModule's time-weighted signals start integrating from).
    have_sample_ = true;
    next_grid_ = sample.tick;
    held_ = sample;
    return;
  }
  CatchUpTo(sample.tick);
  held_ = sample;
}

void TimeSeriesSampler::Finish(Tick end) {
  if (finished_) return;
  finished_ = true;
  if (have_sample_) {
    while (next_grid_ <= end) {
      EmitRow(next_grid_);
      next_grid_ += interval_;
    }
  }
  FlushBatch();
  sink_.flush();
}

}  // namespace dreamsim::obs
