#include "obs/run_tracer.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <ostream>
#include <stdexcept>

#include "util/fmt.hpp"

namespace dreamsim::obs {
namespace {

/// Hot-path append helpers: the tracer serializes one line per simulator
/// event, so these avoid Format's parse-and-allocate cycle.
void AppendU64(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, static_cast<std::size_t>(result.ptr - buf));
}

/// Appends `", \"key\": <value>"`.
void AppendField(std::string& out, std::string_view key, std::uint64_t value) {
  out += ", \"";
  out += key;
  out += "\": ";
  AppendU64(out, value);
}

/// Pointer-bump serialization for the JSONL fast path: lines are built in
/// a stack buffer with memcpy'd literals (lengths folded at compile time)
/// and std::to_chars digits, then appended to the batch in one go.
template <std::size_t N>
char* PutLit(char* p, const char (&lit)[N]) {
  std::memcpy(p, lit, N - 1);
  return p + (N - 1);
}

char* PutU64(char* p, std::uint64_t value) {
  return std::to_chars(p, p + 20, value).ptr;
}

char* PutToken(char* p, std::string_view token) {
  std::memcpy(p, token.data(), token.size());
  return p + token.size();
}

/// Flush threshold for the JSONL batch buffer; one worst-case line (kPlaced
/// with 20-digit values everywhere) stays well under the headroom.
constexpr std::size_t kJsonlBatchBytes = 64 * 1024;
constexpr std::size_t kJsonlMaxLineBytes = 512;
/// Events buffered per serialization burst (~48 KiB of SimEvents, L2-sized).
constexpr std::size_t kJsonlPendingEvents = 1024;

/// Local kind names (the tracer's schema contract, kept independent of the
/// core library's diagnostic ToString so the two can evolve separately —
/// and so this translation unit links without dreamsim_core).
std::string_view KindName(core::SimEvent::Kind kind) {
  using Kind = core::SimEvent::Kind;
  switch (kind) {
    case Kind::kArrival: return "arrival";
    case Kind::kPlaced: return "placed";
    case Kind::kSuspended: return "suspended";
    case Kind::kRequeued: return "requeued";
    case Kind::kDiscarded: return "discarded";
    case Kind::kCompleted: return "completed";
    case Kind::kKilled: return "killed";
    case Kind::kNodeFailed: return "node-failed";
    case Kind::kNodeRepaired: return "node-repaired";
  }
  return "?";
}

std::string_view OutcomeName(sched::Outcome outcome) {
  switch (outcome) {
    case sched::Outcome::kPlaced: return "placed";
    case sched::Outcome::kSuspend: return "suspend";
    case sched::Outcome::kDiscard: return "discard";
  }
  return "?";
}

std::string_view PlacementName(sched::PlacementKind kind) {
  using sched::PlacementKind;
  switch (kind) {
    case PlacementKind::kAllocation: return "allocation";
    case PlacementKind::kConfiguration: return "configuration";
    case PlacementKind::kPartialConfiguration: return "partial-configuration";
    case PlacementKind::kPartialReconfiguration:
      return "partial-reconfiguration";
    case PlacementKind::kFullReconfiguration: return "full-reconfiguration";
  }
  return "?";
}

}  // namespace

std::string_view ToString(TraceFormat format) {
  switch (format) {
    case TraceFormat::kJsonl: return "jsonl";
    case TraceFormat::kChrome: return "chrome";
  }
  return "?";
}

std::optional<TraceFormat> ParseTraceFormat(std::string_view name) {
  if (name == "jsonl") return TraceFormat::kJsonl;
  if (name == "chrome") return TraceFormat::kChrome;
  return std::nullopt;
}

std::string JsonEscape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += Format("\\u00{}{}", "0123456789abcdef"[(c >> 4) & 0xf],
                        "0123456789abcdef"[c & 0xf]);
        } else {
          out += c;
        }
    }
  }
  return out;
}

RunTracer::RunTracer(std::ostream& out, TraceFormat format, RunInfo info)
    : out_(out), format_(format), info_(std::move(info)) {
  node_seen_.assign(info_.nodes, false);
  if (format_ == TraceFormat::kJsonl) {
    pending_.reserve(kJsonlPendingEvents);
    batch_.reserve(kJsonlBatchBytes);
    WriteJsonlMeta();
  }
}

RunTracer::RunTracer(const std::string& path, TraceFormat format,
                     RunInfo info)
    : owned_out_(path), out_(owned_out_), format_(format),
      info_(std::move(info)) {
  if (!owned_out_.is_open()) {
    throw std::runtime_error(Format("cannot open run-trace file '{}'", path));
  }
  node_seen_.assign(info_.nodes, false);
  if (format_ == TraceFormat::kJsonl) {
    pending_.reserve(kJsonlPendingEvents);
    batch_.reserve(kJsonlBatchBytes);
    WriteJsonlMeta();
  }
}

RunTracer::~RunTracer() {
  if (!finished_) Finish(last_tick_);
}

void RunTracer::OnEvent(const core::SimEvent& event) {
  ++events_seen_;
  last_tick_ = event.tick;
  if (format_ == TraceFormat::kJsonl) {
    pending_.push_back(event);
    if (pending_.size() >= kJsonlPendingEvents) SerializeJsonlPending();
  } else {
    ChromeOnEvent(event);
  }
}

void RunTracer::OnExplain(const core::ExplainRecord& record) {
  if (format_ != TraceFormat::kJsonl) return;
  // Flush buffered events first so the explain line lands at its true
  // position in the stream.
  SerializeJsonlPending();
  char buf[kJsonlMaxLineBytes];
  char* p = buf;
  p = PutLit(p, "{\"type\":\"explain\",\"tick\":");
  p = PutU64(p, static_cast<std::uint64_t>(record.tick));
  p = PutLit(p, ",\"task\":");
  p = PutU64(p, record.task.value());
  p = PutLit(p, ",\"attempt\":\"");
  p = PutToken(p, record.is_arrival ? "arrival" : "retry");
  p = PutLit(p, "\",\"outcome\":\"");
  p = PutToken(p, OutcomeName(record.outcome));
  p = PutLit(p, "\",\"reason\":\"");
  p = PutToken(p, record.reason);
  *p++ = '"';
  if (record.outcome == sched::Outcome::kPlaced) {
    p = PutLit(p, ",\"node\":");
    p = PutU64(p, record.node.value());
    p = PutLit(p, ",\"placement\":\"");
    p = PutToken(p, PlacementName(record.kind));
    *p++ = '"';
    p = PutLit(p, ",\"closest_match\":");
    p = PutToken(p, record.used_closest_match ? "true" : "false");
    p = PutLit(p, ",\"config_time\":");
    p = PutU64(p, static_cast<std::uint64_t>(record.config_time));
  }
  if (record.config.valid()) {
    p = PutLit(p, ",\"config\":");
    p = PutU64(p, record.config.value());
  }
  p = PutLit(p, ",\"steps\":");
  p = PutU64(p, static_cast<std::uint64_t>(record.attempt_steps));
  p = PutLit(p, ",\"queue_depth\":");
  p = PutU64(p, static_cast<std::uint64_t>(record.queue_depth));
  p = PutLit(p, ",\"failed_nodes\":");
  p = PutU64(p, static_cast<std::uint64_t>(record.failed_nodes));
  p = PutLit(p, "}\n");
  batch_.append(buf, static_cast<std::size_t>(p - buf));
  if (batch_.size() > kJsonlBatchBytes - kJsonlMaxLineBytes) FlushJsonlBatch();
}

void RunTracer::Finish(Tick end) {
  if (finished_) return;
  finished_ = true;
  if (format_ == TraceFormat::kJsonl) {
    SerializeJsonlPending();
    FlushJsonlBatch();
  } else {
    WriteChromeDocument(end);
  }
  out_.flush();
}

// --- JSONL ---

void RunTracer::WriteJsonlMeta() {
  out_ << Format(
      "{{\"type\":\"meta\",\"version\":1,\"label\":\"{}\","
      "\"mode\":\"{}\",\"seed\":{},\"nodes\":{}}}\n",
      JsonEscape(info_.label), JsonEscape(info_.mode), info_.seed,
      info_.nodes);
}

void RunTracer::WriteJsonlEvent(const core::SimEvent& event) {
  // Compact separators: the trace is machine-read, and event lines are the
  // dominant share of the bytes serialized and written per run.
  char buf[kJsonlMaxLineBytes];
  char* p = buf;
  p = PutLit(p, "{\"tick\":");
  p = PutU64(p, static_cast<std::uint64_t>(event.tick));
  p = PutLit(p, ",\"kind\":\"");
  p = PutToken(p, KindName(event.kind));
  *p++ = '"';
  if (event.task.valid()) {
    p = PutLit(p, ",\"task\":");
    p = PutU64(p, event.task.value());
  }
  if (event.node.valid()) {
    p = PutLit(p, ",\"node\":");
    p = PutU64(p, event.node.value());
  }
  if (event.config.valid()) {
    p = PutLit(p, ",\"config\":");
    p = PutU64(p, event.config.value());
  }
  if (event.kind == core::SimEvent::Kind::kPlaced) {
    p = PutLit(p, ",\"placement\":\"");
    p = PutToken(p, PlacementName(event.placement));
    *p++ = '"';
    p = PutLit(p, ",\"comm\":");
    p = PutU64(p, static_cast<std::uint64_t>(event.comm_time));
    p = PutLit(p, ",\"config_wait\":");
    p = PutU64(p, static_cast<std::uint64_t>(event.config_wait));
  }
  p = PutLit(p, "}\n");
  batch_.append(buf, static_cast<std::size_t>(p - buf));
  if (batch_.size() > kJsonlBatchBytes - kJsonlMaxLineBytes) FlushJsonlBatch();
}

void RunTracer::SerializeJsonlPending() {
  for (const core::SimEvent& event : pending_) WriteJsonlEvent(event);
  pending_.clear();
}

void RunTracer::FlushJsonlBatch() {
  if (batch_.empty()) return;
  out_.write(batch_.data(), static_cast<std::streamsize>(batch_.size()));
  batch_.clear();
}

// --- Chrome trace-event ---

std::uint32_t RunTracer::SchedulerTid() const {
  return static_cast<std::uint32_t>(info_.nodes);
}

void RunTracer::ChromeSpan(std::string_view name, std::string_view category,
                           std::uint32_t tid, Tick start, Tick duration) {
  std::string line;
  line.reserve(96 + name.size());
  line += "{\"name\": \"";
  line += JsonEscape(name);
  line += "\", \"cat\": \"";
  line += category;
  line += "\", \"ph\": \"X\", \"ts\": ";
  AppendU64(line, static_cast<std::uint64_t>(start));
  AppendField(line, "dur", static_cast<std::uint64_t>(duration));
  line += ", \"pid\": 0";
  AppendField(line, "tid", tid);
  line += '}';
  chrome_events_.push_back(std::move(line));
}

void RunTracer::ChromeInstant(std::string_view name,
                              std::string_view category, std::uint32_t tid,
                              Tick at) {
  std::string line;
  line.reserve(96 + name.size());
  line += "{\"name\": \"";
  line += JsonEscape(name);
  line += "\", \"cat\": \"";
  line += category;
  line += "\", \"ph\": \"i\", \"ts\": ";
  AppendU64(line, static_cast<std::uint64_t>(at));
  line += ", \"s\": \"t\", \"pid\": 0";
  AppendField(line, "tid", tid);
  line += '}';
  chrome_events_.push_back(std::move(line));
}

void RunTracer::ChromeCloseTask(TaskId task, const OpenTask& open,
                                Tick end_tick, bool killed) {
  const std::uint32_t tid = open.node.value();
  if (tid < node_seen_.size()) node_seen_[tid] = true;
  // Setup spans, clipped to the end tick (a task killed mid-setup never
  // reaches execution).
  const Tick comm_end = std::min(open.placed_at + open.comm_time, end_tick);
  if (comm_end > open.placed_at) {
    ChromeSpan(Format("comm task {}", task.value()), "setup", tid,
               open.placed_at, comm_end - open.placed_at);
  }
  const Tick config_end =
      std::min(open.placed_at + open.comm_time + open.config_wait, end_tick);
  if (open.config_wait > 0 && config_end > comm_end) {
    const bool reconfig =
        open.placement == sched::PlacementKind::kPartialReconfiguration ||
        open.placement == sched::PlacementKind::kFullReconfiguration;
    ChromeSpan(Format("{} cfg {}", reconfig ? "reconfigure" : "configure",
                      open.config.value()),
               "config", tid, comm_end, config_end - comm_end);
  }
  if (end_tick > config_end) {
    ChromeSpan(Format("task {} (cfg {}){}", task.value(),
                      open.config.value(), killed ? " [killed]" : ""),
               killed ? "task-killed" : "task", tid, config_end,
               end_tick - config_end);
  }
}

void RunTracer::ChromeOnEvent(const core::SimEvent& event) {
  using Kind = core::SimEvent::Kind;
  switch (event.kind) {
    case Kind::kPlaced: {
      OpenTask open;
      open.node = event.node;
      open.config = event.config;
      open.placed_at = event.tick;
      open.comm_time = event.comm_time;
      open.config_wait = event.config_wait;
      open.placement = event.placement;
      open_tasks_[event.task.value()] = open;
      if (event.node.value() < node_seen_.size()) {
        node_seen_[event.node.value()] = true;
      }
      break;
    }
    case Kind::kCompleted:
    case Kind::kKilled: {
      const auto it = open_tasks_.find(event.task.value());
      if (it != open_tasks_.end()) {
        ChromeCloseTask(event.task, it->second, event.tick,
                        event.kind == Kind::kKilled);
        open_tasks_.erase(it);
      }
      break;
    }
    case Kind::kNodeFailed:
      down_since_[event.node.value()] = event.tick;
      if (event.node.value() < node_seen_.size()) {
        node_seen_[event.node.value()] = true;
      }
      break;
    case Kind::kNodeRepaired: {
      const auto it = down_since_.find(event.node.value());
      if (it != down_since_.end()) {
        ChromeSpan("DOWN", "fault", event.node.value(), it->second,
                   event.tick - it->second);
        down_since_.erase(it);
      }
      break;
    }
    case Kind::kArrival:
      ChromeInstant(Format("arrival task {}", event.task.value()),
                    "scheduler", SchedulerTid(), event.tick);
      break;
    case Kind::kSuspended:
    case Kind::kRequeued:
      ChromeInstant(Format("{} task {}", KindName(event.kind),
                           event.task.value()),
                    "scheduler", SchedulerTid(), event.tick);
      break;
    case Kind::kDiscarded:
      ChromeInstant(Format("discarded task {}", event.task.value()),
                    "scheduler", SchedulerTid(), event.tick);
      break;
  }
}

void RunTracer::WriteChromeDocument(Tick end) {
  // Close anything still open at the end of the run. The open sets are
  // hash maps; emit in sorted key order so the document bytes are a pure
  // function of the run, not of the hash layout.
  std::vector<std::uint32_t> open_ids;
  open_ids.reserve(open_tasks_.size());
  // lint: allow(unordered-writer-iteration) — keys sorted before emitting
  for (const auto& kv : open_tasks_) open_ids.push_back(kv.first);
  std::sort(open_ids.begin(), open_ids.end());
  for (const std::uint32_t task : open_ids) {
    ChromeCloseTask(TaskId{task}, open_tasks_.at(task), end,
                    /*killed=*/false);
  }
  open_tasks_.clear();
  std::vector<std::uint32_t> down_ids;
  down_ids.reserve(down_since_.size());
  // lint: allow(unordered-writer-iteration) — keys sorted before emitting
  for (const auto& kv : down_since_) down_ids.push_back(kv.first);
  std::sort(down_ids.begin(), down_ids.end());
  for (const std::uint32_t node : down_ids) {
    const Tick since = down_since_.at(node);
    if (end > since) ChromeSpan("DOWN", "fault", node, since, end - since);
    if (node < node_seen_.size()) node_seen_[node] = true;
  }
  down_since_.clear();

  out_ << "{\n\"traceEvents\": [\n";
  bool first = true;
  // Track metadata: one named process, one named thread per active node,
  // plus the scheduler track. Ticks map 1:1 onto trace-event microseconds.
  auto emit = [&](const std::string& line) {
    if (!first) out_ << ",\n";
    first = false;
    out_ << line;
  };
  emit(Format(
      "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
      "\"args\": {{\"name\": \"dreamsim {} (seed {})\"}}}}",
      JsonEscape(info_.mode), info_.seed));
  for (std::size_t node = 0; node < node_seen_.size(); ++node) {
    if (!node_seen_[node]) continue;
    emit(Format(
        "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": {}, \"args\": {{\"name\": \"node {}\"}}}}",
        node, node));
  }
  emit(Format(
      "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {}, "
      "\"args\": {{\"name\": \"scheduler\"}}}}",
      SchedulerTid()));
  for (const std::string& line : chrome_events_) emit(line);
  chrome_events_.clear();
  out_ << Format(
      "\n],\n\"displayTimeUnit\": \"ms\",\n"
      "\"otherData\": {{\"label\": \"{}\", \"mode\": \"{}\", \"seed\": {}, "
      "\"nodes\": {}, \"end_tick\": {}}}\n}}\n",
      JsonEscape(info_.label), JsonEscape(info_.mode), info_.seed,
      info_.nodes, end);
}

}  // namespace dreamsim::obs
