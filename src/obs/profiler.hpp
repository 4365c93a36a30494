// Scheduler phase profiler (observability layer, DESIGN.md §11).
//
// Scoped host-side wall-clock timers over the four Fig. 5 scheduling phases,
// the per-completion suspension-queue drain, and the StoreIndex /
// SusQueueIndex query surfaces. The profiler measures *host* time only — it
// never touches the WorkloadMeter, so the paper's modeled-effort metrics are
// unaffected by profiling (the §9 contract).
//
// The hot path is header-only on purpose: the hooks compile into any layer
// (resource, sched, core) without a link dependency on dreamsim_obs, and
// when profiling is disabled a hook costs one relaxed atomic load plus a
// predictable branch — no clock read, no allocation (the "~0% disabled"
// gate in bench/bench_overhead). Report rendering lives in profiler.cpp.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace dreamsim::obs {

/// Profiled code regions. The first five mirror sched::PlacementKind (the
/// case-study phases of Fig. 5); the rest are the hot query surfaces.
enum class ProfPhase : std::uint8_t {
  kAllocation = 0,          // phase 1: idle entry with the wanted config
  kConfiguration,           // phase 2: blank node configured
  kPartialConfiguration,    // phase 3: spare area configured
  kPartialReconfiguration,  // phase 4: Algorithm 1 reclaim + configure
  kFullReconfiguration,     // full mode phase 3: wipe + configure
  kSuspensionDrain,         // per-completion queue drain (all modes)
  kStoreQuery,              // ResourceStore counted scheduler queries
  kSusQueueQuery,           // SuspensionQueue indexed drain queries
};

inline constexpr std::size_t kProfPhaseCount = 8;

[[nodiscard]] std::string_view ToString(ProfPhase phase);

/// Process-global accumulator of per-phase call counts and wall-time
/// histograms. All counters are relaxed atomics so parallel sweeps can
/// record concurrently; readers (Report/stats) are meant for quiescent
/// post-run use.
class PhaseProfiler {
 public:
  /// Log2-spaced duration bins: bin 0 counts 0 ns; bin i (i >= 1) counts
  /// durations in [2^(i-1), 2^i) ns; the last bin saturates.
  static constexpr std::size_t kBins = 24;

  /// Snapshot of one phase's accumulated statistics.
  struct PhaseStats {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    std::array<std::uint64_t, kBins> bins{};
    [[nodiscard]] double mean_ns() const {
      return calls == 0 ? 0.0
                        : static_cast<double>(total_ns) /
                              static_cast<double>(calls);
    }
  };

  [[nodiscard]] static PhaseProfiler& Instance() {
    static PhaseProfiler profiler;
    return profiler;
  }

  /// Global on/off switch; hooks are inert (no clock read) while disabled.
  static void SetEnabled(bool on) {
    EnabledFlag().store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() {
    return EnabledFlag().load(std::memory_order_relaxed);
  }

  static constexpr std::size_t BinOf(std::uint64_t ns) {
    const std::size_t width = static_cast<std::size_t>(std::bit_width(ns));
    return width < kBins ? width : kBins - 1;
  }

  void Record(ProfPhase phase, std::uint64_t ns) {
    Slot& slot = slots_[static_cast<std::size_t>(phase)];
    slot.calls.fetch_add(1, std::memory_order_relaxed);
    slot.total_ns.fetch_add(ns, std::memory_order_relaxed);
    slot.bins[BinOf(ns)].fetch_add(1, std::memory_order_relaxed);
    std::uint64_t seen = slot.max_ns.load(std::memory_order_relaxed);
    while (seen < ns && !slot.max_ns.compare_exchange_weak(
                            seen, ns, std::memory_order_relaxed)) {
    }
  }

  /// Zeroes every phase (call between runs that should report separately).
  void Reset() {
    for (Slot& slot : slots_) {
      slot.calls.store(0, std::memory_order_relaxed);
      slot.total_ns.store(0, std::memory_order_relaxed);
      slot.max_ns.store(0, std::memory_order_relaxed);
      for (auto& bin : slot.bins) bin.store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] PhaseStats stats(ProfPhase phase) const {
    const Slot& slot = slots_[static_cast<std::size_t>(phase)];
    PhaseStats out;
    out.calls = slot.calls.load(std::memory_order_relaxed);
    out.total_ns = slot.total_ns.load(std::memory_order_relaxed);
    out.max_ns = slot.max_ns.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kBins; ++i) {
      out.bins[i] = slot.bins[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Human-readable per-phase table (counts, total/mean/max, histogram);
  /// defined in profiler.cpp.
  [[nodiscard]] std::string Report() const;

  /// Machine-readable form of Report() (one object per phase).
  void WriteJson(std::ostream& out) const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> max_ns{0};
    std::array<std::atomic<std::uint64_t>, kBins> bins{};
  };

  [[nodiscard]] static std::atomic<bool>& EnabledFlag() {
    static std::atomic<bool> enabled{false};
    return enabled;
  }

  std::array<Slot, kProfPhaseCount> slots_{};
};

/// RAII hook: samples the clock only when profiling is enabled at
/// construction, and records the elapsed wall time on destruction.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(ProfPhase phase) {
    if (PhaseProfiler::enabled()) {
      armed_ = true;
      phase_ = phase;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedPhaseTimer() {
    if (armed_) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count();
      PhaseProfiler::Instance().Record(
          phase_, ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    }
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  bool armed_ = false;
  ProfPhase phase_{};
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace dreamsim::obs
