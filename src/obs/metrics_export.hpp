// Exposition for the live metrics registry (DESIGN.md §16): JSONL
// snapshots, Prometheus text exposition 0.0.4, and the human-readable block
// the CLI embeds under the MetricsReport. Schemas in docs/formats.md
// ("Metrics snapshots").
//
// The renderers emit metrics in catalogue order, so the rendered bytes are
// a pure function of (seed, config) — test_metrics_diff pins this across
// the index modes.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace dreamsim::obs {

enum class MetricsFormat : std::uint8_t { kJson, kProm };

[[nodiscard]] std::string_view ToString(MetricsFormat format);
/// Parses "json" / "prom"; nullopt on anything else.
[[nodiscard]] std::optional<MetricsFormat> ParseMetricsFormat(
    std::string_view name);

/// One snapshot as a single JSON object (no trailing newline). `tick` and
/// `seq` label the snapshot; `final` marks the end-of-run snapshot.
[[nodiscard]] std::string RenderMetricsJson(const MetricsSnapshot& snap,
                                            Tick tick, std::uint64_t seq,
                                            bool final);

/// Full Prometheus text exposition (version 0.0.4): HELP + TYPE + samples
/// per catalogued metric, `dreamsim_` prefix, histogram `_bucket/_sum/
/// _count` series.
[[nodiscard]] std::string RenderMetricsProm(const MetricsSnapshot& snap);

/// Human-readable block for the run report: non-zero scalars plus
/// count/mean/max per histogram.
[[nodiscard]] std::string RenderMetricsBlock(const MetricsSnapshot& snap);

/// Streams registry snapshots to a file while a run executes. Wire as an
/// event logger next to the RunTracer:
///   sim.SetEventLogger([&w](const core::SimEvent& e) { w.OnEvent(e); });
//
/// With the JSON format, a snapshot line is appended at the first event at
/// or after each `interval`-tick boundary, plus a final snapshot on
/// Finish(). The Prometheus format is scrape-oriented (one document, not a
/// stream): OnEvent only tracks time and Finish() writes the end-of-run
/// exposition. Pure observer either way.
class MetricsSnapshotWriter {
 public:
  /// Throws std::invalid_argument on a negative `interval` (0 means 1) and
  /// std::runtime_error when the file cannot be opened.
  MetricsSnapshotWriter(const std::string& path, MetricsFormat format,
                        Tick interval);
  ~MetricsSnapshotWriter();

  MetricsSnapshotWriter(const MetricsSnapshotWriter&) = delete;
  MetricsSnapshotWriter& operator=(const MetricsSnapshotWriter&) = delete;

  void OnEvent(const core::SimEvent& event);

  /// Writes the final snapshot (JSON) or the exposition document (prom)
  /// and flushes. Idempotent; the destructor calls it with the last seen
  /// tick if the caller did not.
  void Finish(Tick end);

  [[nodiscard]] std::size_t snapshots_written() const { return snapshots_; }

 private:
  std::ofstream out_ GUARDED_BY(role_);
  MetricsFormat format_;
  Tick interval_;
  Tick last_tick_ = 0;
  /// Next interval boundary to snapshot at; the hot path is one tick
  /// comparison (no division per event).
  Tick next_boundary_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t snapshots_ = 0;
  bool finished_ = false;
  /// Single-writer contract (DESIGN.md §17): the simulation thread owns
  /// the snapshot stream; OnEvent/Finish assert the role.
  util::ThreadRole role_;
};

}  // namespace dreamsim::obs
