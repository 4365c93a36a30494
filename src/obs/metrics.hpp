// Live metrics registry (observability layer, DESIGN.md §16).
//
// A process-global registry of the counters, gauges, and fixed-bucket
// histograms catalogued in obs/metric_catalogue.hpp. Like the PhaseProfiler
// it is header-only on purpose: the hot layers (sim, resource, core) hook it
// without a link dependency on dreamsim_obs, and a disabled hook costs one
// relaxed atomic load plus a predictable branch — no clock read, no
// allocation (the <5ns gate in bench/bench_overhead). Exposition (JSONL
// snapshots, Prometheus text, the report block) lives in
// obs/metrics_export.{hpp,cpp}.
//
// Storage is one slot of relaxed atomics per metric: concurrent
// replication drivers share this process-global registry, so a stray
// cross-thread write is a reporting bug, never a data race.
// TakeSnapshot() copies the slots into plain values.
//
// Pure observer: the registry never touches the WorkloadMeter or any
// scheduler decision (the §9 contract; pinned by test_obs_diff). Every
// metric is a pure function of (seed, config), and all but the
// scan-fallback and drain-index query counters are byte-identical across
// the index modes (pinned by test_metrics_diff).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "obs/metric_catalogue.hpp"

namespace dreamsim::obs {

/// Plain-value copy of the registry state. Cold-path only.
struct MetricsSnapshot {
  /// Log2-spaced value bins: bin i counts values v with bit_width(v) == i,
  /// i.e. bin 0 holds v=0 and bin i (i >= 1) holds v in [2^(i-1), 2^i);
  /// the last bin saturates. Matches PhaseProfiler::kBins spacing.
  static constexpr std::size_t kBins = 24;

  struct Hist {
    std::array<std::uint64_t, kBins> bins{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
  };

  /// Scalar per metric (histograms report their sample count here).
  std::array<std::uint64_t, kMetricCount> value{};
  /// Histograms, indexed by kHistSlotOf.
  std::array<Hist, kHistMetricCount> hist{};
};

/// Process-global metric store. All writes are relaxed atomics; readers
/// (TakeSnapshot) are safe at any time but meant for quiescent or
/// tick-boundary use.
class MetricsRegistry {
 public:
  static constexpr std::size_t kBins = MetricsSnapshot::kBins;

  [[nodiscard]] static MetricsRegistry& Instance() {
    static MetricsRegistry registry;
    return registry;
  }

  /// Global on/off switch; hooks are inert while disabled.
  static void SetEnabled(bool on) {
    EnabledFlag().store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() {
    return EnabledFlag().load(std::memory_order_relaxed);
  }

  static constexpr std::size_t BinOf(std::uint64_t value) {
    const std::size_t width = static_cast<std::size_t>(std::bit_width(value));
    return width < kBins ? width : kBins - 1;
  }

  void Add(MetricId id, std::uint64_t delta = 1) {
    ScalarAt(id).fetch_add(delta, std::memory_order_relaxed);
  }

  /// Last-write-wins level. Single-writer by convention (the simulation
  /// thread).
  void GaugeSet(MetricId id, std::uint64_t value) {
    ScalarAt(id).store(value, std::memory_order_relaxed);
  }

  void GaugeMax(MetricId id, std::uint64_t value) {
    RelaxedMax(ScalarAt(id), value);
  }

  void Observe(MetricId id, std::uint64_t value) {
    HistSlot& h = hists_[kHistSlotOf[static_cast<std::size_t>(id)]];
    h.bins[BinOf(value)].fetch_add(1, std::memory_order_relaxed);
    h.count.fetch_add(1, std::memory_order_relaxed);
    h.sum.fetch_add(value, std::memory_order_relaxed);
    RelaxedMax(h.max, value);
  }

  /// Zeroes every slot (call between runs that should report separately).
  void Reset() {
    for (auto& s : scalars_) s.store(0, std::memory_order_relaxed);
    for (auto& h : hists_) {
      for (auto& b : h.bins) b.store(0, std::memory_order_relaxed);
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      h.max.store(0, std::memory_order_relaxed);
    }
  }

  /// Copies every slot into plain values.
  [[nodiscard]] MetricsSnapshot TakeSnapshot() const {
    MetricsSnapshot snap;
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      if (kMetricInfo[m].kind == MetricKind::kHistogram) {
        MetricsSnapshot::Hist& out = snap.hist[kHistSlotOf[m]];
        const HistSlot& h = hists_[kHistSlotOf[m]];
        for (std::size_t b = 0; b < kBins; ++b) {
          out.bins[b] = h.bins[b].load(std::memory_order_relaxed);
        }
        out.count = h.count.load(std::memory_order_relaxed);
        out.sum = h.sum.load(std::memory_order_relaxed);
        out.max = h.max.load(std::memory_order_relaxed);
        snap.value[m] = out.count;
        continue;
      }
      snap.value[m] = scalars_[m].load(std::memory_order_relaxed);
    }
    return snap;
  }

 private:
  struct HistSlot {
    std::array<std::atomic<std::uint64_t>, kBins> bins{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };

  [[nodiscard]] static std::atomic<bool>& EnabledFlag() {
    static std::atomic<bool> enabled{false};
    return enabled;
  }

  static void RelaxedMax(std::atomic<std::uint64_t>& slot,
                         std::uint64_t value) {
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value && !slot.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::atomic<std::uint64_t>& ScalarAt(MetricId id) {
    return scalars_[static_cast<std::size_t>(id)];
  }

  /// Every slot is a relaxed atomic: concurrent replication drivers
  /// (tools/sweep, tools/replication) share this process-global registry,
  /// so unlike the per-run observers no single thread owns it (DESIGN.md
  /// §17). The atomics-discipline lint rule enforces the rest of the
  /// contract: the slots stay memory_order_relaxed, and model-plane code
  /// never grows its own atomics.
  std::array<std::atomic<std::uint64_t>, kMetricCount> scalars_{};
  std::array<HistSlot, kHistMetricCount> hists_{};
};

// --- Hot-path hooks -------------------------------------------------------
// The id argument must be a literal MetricId::k... token from the catalogue
// (enforced by dreamsim_lint's `metric-catalogue` rule), so every exposition
// name stays stable and documented.

inline void MetricInc(MetricId id, std::uint64_t delta = 1) {
  if (MetricsRegistry::enabled()) {
    MetricsRegistry::Instance().Add(id, delta);
  }
}

inline void MetricGaugeSet(MetricId id, std::uint64_t value) {
  if (MetricsRegistry::enabled()) {
    MetricsRegistry::Instance().GaugeSet(id, value);
  }
}

inline void MetricGaugeMax(MetricId id, std::uint64_t value) {
  if (MetricsRegistry::enabled()) {
    MetricsRegistry::Instance().GaugeMax(id, value);
  }
}

inline void MetricObserve(MetricId id, std::uint64_t value) {
  if (MetricsRegistry::enabled()) {
    MetricsRegistry::Instance().Observe(id, value);
  }
}

}  // namespace dreamsim::obs
