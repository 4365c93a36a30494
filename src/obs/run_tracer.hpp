// RunTracer (observability layer, DESIGN.md §11): persists the simulator's
// SimEvent stream — task lifecycle plus fault events — to disk while a run
// executes, in one of two formats:
//
//  * kJsonl — one JSON object per line, streamed as events arrive (a meta
//    line first). The archival form; schema in docs/formats.md.
//  * kChrome — Chrome trace-event JSON (catapult format) with one track per
//    node: comm/config setup spans, task-execution spans, and node-downtime
//    spans, plus a "scheduler" track of instant events (arrival, suspend,
//    requeue, discard). Opens directly in chrome://tracing or Perfetto.
//    Spans need end ticks, so this format buffers and writes on Finish().
//
// The tracer is a pure observer: it never charges the WorkloadMeter and
// never mutates simulator state, so every paper metric is bit-identical
// with tracing on or off (test_obs_diff).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/simulator.hpp"
#include "util/types.hpp"

namespace dreamsim::obs {

enum class TraceFormat : std::uint8_t { kJsonl, kChrome };

[[nodiscard]] std::string_view ToString(TraceFormat format);
/// Parses "jsonl" / "chrome"; nullopt on anything else.
[[nodiscard]] std::optional<TraceFormat> ParseTraceFormat(
    std::string_view name);

/// Escapes a string for embedding in a JSON string literal.
[[nodiscard]] std::string JsonEscape(std::string_view raw);

class RunTracer {
 public:
  /// Run identification, carried into the trace header (JSONL meta line /
  /// Chrome otherData + process name).
  struct RunInfo {
    std::string label;
    std::string mode;
    std::uint64_t seed = 0;
    std::size_t nodes = 0;
  };

  /// Streams to a caller-owned stream (tests) …
  RunTracer(std::ostream& out, TraceFormat format, RunInfo info);
  /// … or to a file the tracer owns. Throws std::runtime_error when the
  /// file cannot be opened.
  RunTracer(const std::string& path, TraceFormat format, RunInfo info);
  ~RunTracer();

  RunTracer(const RunTracer&) = delete;
  RunTracer& operator=(const RunTracer&) = delete;

  /// Event-logger hook: wire with
  /// `sim.SetEventLogger([&t](const core::SimEvent& e) { t.OnEvent(e); })`.
  void OnEvent(const core::SimEvent& event);

  /// Explain-observer hook (--explain): appends one `"type":"explain"`
  /// record to the JSONL stream, ordered exactly where it happened in the
  /// event stream (the pending event burst is flushed first; explain
  /// records are rare, so the burst serializer stays on its fast path).
  /// Ignored in Chrome format — explain records are line-oriented data,
  /// not spans.
  void OnExplain(const core::ExplainRecord& record);

  /// Closes spans still open at `end` (running tasks, unrepaired nodes)
  /// and writes/flushes the output. Idempotent; the destructor calls it
  /// with the last seen tick if the caller did not.
  void Finish(Tick end);

  [[nodiscard]] std::size_t events_seen() const { return events_seen_; }
  [[nodiscard]] bool finished() const { return finished_; }

 private:
  struct OpenTask {
    NodeId node;
    ConfigId config;
    Tick placed_at = 0;
    Tick comm_time = 0;
    Tick config_wait = 0;
    sched::PlacementKind placement{};
  };

  void WriteJsonlMeta();
  void WriteJsonlEvent(const core::SimEvent& event);
  /// Serializes the pending JSONL events in one burst.
  void SerializeJsonlPending();
  /// Writes the buffered JSONL batch to the output stream.
  void FlushJsonlBatch();
  void ChromeOnEvent(const core::SimEvent& event);
  /// Emits the setup + execution spans of one placement ending (completed
  /// or killed) at `end_tick`.
  void ChromeCloseTask(TaskId task, const OpenTask& open, Tick end_tick,
                       bool killed);
  void ChromeSpan(std::string_view name, std::string_view category,
                  std::uint32_t tid, Tick start, Tick duration);
  void ChromeInstant(std::string_view name, std::string_view category,
                     std::uint32_t tid, Tick at);
  void WriteChromeDocument(Tick end);
  /// The scheduler (non-node) track id: one past the node tracks.
  [[nodiscard]] std::uint32_t SchedulerTid() const;

  std::ofstream owned_out_;
  std::ostream& out_;
  TraceFormat format_;
  RunInfo info_;
  std::size_t events_seen_ = 0;
  Tick last_tick_ = 0;
  bool finished_ = false;
  /// JSONL fast path: tracing sits on the simulator's hot path, so OnEvent
  /// only copies the event into `pending_`; full pending bursts are then
  /// serialized with std::to_chars into `batch_`, which is written out one
  /// batch (not one ostream call) at a time. The burst keeps the serializer
  /// and its buffers cache-warm, and batching the writes avoids a stream
  /// sentry per event (bench_overhead gates the overhead).
  std::vector<core::SimEvent> pending_;
  std::string batch_;

  // --- Chrome-format buffering ---
  /// Pre-rendered JSON objects.
  std::vector<std::string> chrome_events_;
  std::unordered_map<std::uint32_t, OpenTask> open_tasks_;  // by TaskId
  std::unordered_map<std::uint32_t, Tick> down_since_;      // by NodeId
  /// Tracks needing thread metadata.
  std::vector<bool> node_seen_;
};

}  // namespace dreamsim::obs
