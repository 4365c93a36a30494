// Compile-time metric catalogue (observability layer, DESIGN.md §16).
//
// Every counter, gauge, and histogram the live metrics registry can hold is
// declared here, once, as an X-macro row. The registry (obs/metrics.hpp)
// derives the MetricId enum, the storage layout, and the exposition names
// and types from this single table, so a metric cannot exist without a
// stable Prometheus-safe name and a declared kind — and
// tools/dreamsim_lint's `metric-catalogue` rule rejects registry calls
// whose id is not a literal `MetricId::k...` token from this file.
//
// Columns:
//   ident       C++ identifier stem (MetricId::k<ident>).
//   name        exposition name, without the "dreamsim_" prefix. Counters
//               end in `_total`, histograms in `_ns`/`_ticks`/plain per
//               Prometheus conventions.
//   kind        kCounter | kGauge | kGaugeMax | kHistogram.
//   help        Prometheus HELP line.
//
// Every catalogued metric is derived from the simulated event/decision
// stream, so a snapshot is a pure function of (seed, config) (pinned by
// test_metrics_diff). Wall-clock values belong in the phase profiler.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dreamsim::obs {

enum class MetricKind : std::uint8_t {
  kCounter = 0,  // monotone
  kGauge,        // last-written level
  kGaugeMax,     // high-water mark
  kHistogram,    // log2-bucket histogram
};

// clang-format off
#define DREAMSIM_METRIC_CATALOGUE(M)                                          \
  /* --- Event queue (sim/event_queue, model plane) --- */                    \
  M(EvqPushed, "evq_pushed_total", kCounter,                                  \
    "Events pushed onto the kernel event queue")                              \
  M(EvqPopped, "evq_popped_total", kCounter,                                  \
    "Live events popped and executed by the kernel")                          \
  M(EvqCancelled, "evq_cancelled_total", kCounter,                            \
    "Events cancelled before execution")                                      \
  M(EvqDeadDropped, "evq_dead_dropped_total", kCounter,                       \
    "Cancelled heap residue dropped lazily at the top")                       \
  M(EvqHeapSifts, "evq_heap_sift_total", kCounter,                            \
    "Event-queue pushes plus pops, live or dead (cursor arrivals included)")  \
  M(EvqDepth, "evq_depth", kGauge,                                            \
    "Live (uncancelled) pending events")                                      \
  M(EvqDepthPeak, "evq_depth_peak", kGaugeMax,                                \
    "Peak live pending events")                                               \
  M(EventGapTicks, "event_gap_ticks", kHistogram,                             \
    "Simulated-tick gap between consecutive executed events")                 \
  /* --- ResourceStore scheduler queries (model plane) --- */                 \
  M(StoreQueryIdleEntry, "store_query_idle_entry_total", kCounter,            \
    "FindBestIdleEntry calls (phase 1 allocation)")                           \
  M(StoreQueryBlank, "store_query_blank_total", kCounter,                     \
    "FindBestBlankNode calls (phase 2 configuration)")                        \
  M(StoreQueryPartialBlank, "store_query_partial_blank_total", kCounter,      \
    "FindBestPartiallyBlankNode calls (phase 3)")                             \
  M(StoreQueryReclaim, "store_query_reclaim_total", kCounter,                 \
    "FindAnyIdleNode calls (Algorithm 1 reclaim)")                            \
  M(StoreQueryBusyFit, "store_query_busy_fit_total", kCounter,                \
    "AnyBusyNodeCouldFit calls (suspension eligibility)")                     \
  M(StoreQueryIdleConfigured, "store_query_idle_configured_total", kCounter,  \
    "FindBestIdleConfiguredNode calls (full mode)")                           \
  M(StoreQueryRanked, "store_query_ranked_total", kCounter,                   \
    "FindRankedHostNode calls (heuristic policies)")                          \
  M(StoreScanFallback, "store_scan_fallback_total", kCounter,                 \
    "Store queries answered by scan semantics (no StoreIndex built)")         \
  /* --- Suspension queue + drain index (model plane) --- */                  \
  M(SusqQueryOldestExact, "susq_query_oldest_exact_total", kCounter,          \
    "SusQueueIndex OldestExactMatch queries")                                 \
  M(SusqQueryOldestEligible, "susq_query_oldest_eligible_total", kCounter,    \
    "SusQueueIndex OldestEligible queries")                                   \
  M(SusqScanFallback, "susq_scan_fallback_total", kCounter,                   \
    "Suspension-drain picks answered by the literal walk (no drain index)")   \
  M(SusEnqueued, "sus_enqueued_total", kCounter,                              \
    "Tasks admitted to the suspension queue")                                 \
  M(SusRemoved, "sus_removed_total", kCounter,                                \
    "Tasks removed from the suspension queue (drained or dropped)")           \
  M(SusOverflow, "sus_overflow_total", kCounter,                              \
    "Suspension admissions rejected at capacity")                             \
  M(SusDepth, "sus_depth", kGauge,                                            \
    "Tasks currently parked in the suspension queue")                         \
  M(SusDepthPeak, "sus_depth_peak", kGaugeMax,                                \
    "Peak suspension-queue depth")                                            \
  M(DrainAttempts, "drain_attempts_total", kCounter,                          \
    "Placement attempts for queued tasks during drains")                      \
  M(DrainPlacements, "drain_placements_total", kCounter,                      \
    "Drain attempts that placed the queued task")                             \
  /* --- Task lifecycle (core/metrics collector, model plane) --- */          \
  M(TasksGenerated, "tasks_generated_total", kCounter,                        \
    "Tasks generated by the workload")                                        \
  M(TasksPlaced, "tasks_placed_total", kCounter,                              \
    "Task placements onto nodes (includes requeue placements)")               \
  M(TasksCompleted, "tasks_completed_total", kCounter,                        \
    "Tasks that ran to completion")                                           \
  M(TasksDiscarded, "tasks_discarded_total", kCounter,                        \
    "Tasks discarded (infeasible, overflow, or retry budget)")                \
  M(TasksSuspendedFirst, "tasks_suspended_first_total", kCounter,             \
    "Tasks that entered the suspension queue at least once")                  \
  M(ClosestMatchPlacements, "closest_match_placements_total", kCounter,       \
    "Placements that used the closest-match configuration")                   \
  /* --- Fault subsystem (model plane) --- */                                 \
  M(FaultFailures, "fault_failures_total", kCounter,                          \
    "Node failures injected")                                                 \
  M(FaultRepairs, "fault_repairs_total", kCounter,                            \
    "Node repairs completed")                                                 \
  M(FaultKills, "fault_kills_total", kCounter,                                \
    "Running tasks killed by node failures")                                  \
  M(FaultLostWorkTicks, "fault_lost_work_area_ticks_total", kCounter,         \
    "Area-ticks of in-progress work destroyed by failures")                   \
  M(FaultFailedNodes, "fault_failed_nodes", kGauge,                           \
    "Nodes currently failed")                                                 \
  /* --- Decision explainability (model plane) --- */                         \
  M(ExplainRecords, "explain_records_total", kCounter,                        \
    "Decision-explanation records emitted for --explain tasks")
// clang-format on

/// Stable identifier for one catalogued metric.
enum class MetricId : std::uint16_t {
#define DREAMSIM_METRIC_ENUM(ident, name, kind, help) \
  k##ident,
  DREAMSIM_METRIC_CATALOGUE(DREAMSIM_METRIC_ENUM)
#undef DREAMSIM_METRIC_ENUM
};

/// Static description of one catalogued metric.
struct MetricInfo {
  std::string_view name;  // exposition name, sans "dreamsim_" prefix
  MetricKind kind;
  std::string_view help;
};

inline constexpr std::array kMetricInfo = {
#define DREAMSIM_METRIC_INFO(ident, name, kind, help) \
  MetricInfo{name, MetricKind::kind, help},
    DREAMSIM_METRIC_CATALOGUE(DREAMSIM_METRIC_INFO)
#undef DREAMSIM_METRIC_INFO
};

inline constexpr std::size_t kMetricCount = kMetricInfo.size();

[[nodiscard]] constexpr const MetricInfo& InfoOf(MetricId id) {
  return kMetricInfo[static_cast<std::size_t>(id)];
}

/// Number of histogram-kind metrics (sized storage in the registry).
inline constexpr std::size_t kHistMetricCount = [] {
  std::size_t n = 0;
  for (const MetricInfo& info : kMetricInfo) {
    if (info.kind == MetricKind::kHistogram) ++n;
  }
  return n;
}();

/// Dense histogram slot for a histogram metric; kHistMetricCount for others.
inline constexpr std::array<std::size_t, kMetricCount> kHistSlotOf = [] {
  std::array<std::size_t, kMetricCount> slots{};
  std::size_t next = 0;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    slots[i] = kMetricInfo[i].kind == MetricKind::kHistogram
                   ? next++
                   : kHistMetricCount;
  }
  return slots;
}();

}  // namespace dreamsim::obs
