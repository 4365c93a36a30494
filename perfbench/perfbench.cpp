// Benchmark program: runs core::Simulator through its public API on one
// generated batch workload and prints one JSON object of raw measurements
// on stdout. perfbench/run.py builds this program, picks the workload
// parameters from perfbench/workloads.json, checks the outputs and turns
// the measurements into the benchmark's metrics.
//
//   perfbench --nodes N --tasks T --mode partial|full --monitoring 0|1
//             --seed S --seconds X [--trace 0|1] [--scan 0|1]
//
// Plain mode (--trace 0) repeats setup + RunWithWorkload until X seconds
// of setup and run time have passed (at least kMinReps runs), with the
// profiler, the metrics registry and every observer off. Each run reports
// its setup and run wall time, the FNV-1a digest of its CsvReportRow, and
// the end-of-run AuditStructures() verdict.
//
// Trace mode (--trace 1) makes one traced run between two plain runs of
// the same inputs (three runs, all checked). The traced run installs the event logger, the explain
// observer and the completion hook, stamps steady_clock in each, and
// enables the PhaseProfiler and the MetricsRegistry. The stamps split the
// run's wall time into four segments at public boundaries:
//   arrival_decide   kArrival event -> the arrival's explain record
//                    (Policy::Schedule + MetricsCollector attempt hook)
//   arrival_place    explain record -> kPlaced/kSuspended/kDiscarded
//   completion       kCompleted event -> completion hook (queue drain and
//                    monitoring after a completion)
//   between_events   everything else inside the event loop (monitoring
//                    after arrivals, enqueueing, kernel schedule/pop)
// It then times the two fleet-wide aggregates the run calls per event on
// the end-of-run store, and the end-of-run audit.
//
// --scan 1 runs the literal scan kernels (scheduler_index and drain_index
// off); run.py uses it once per (workload, seed) to produce the reference
// digests in perfbench/reference.json.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "rms/resource_info.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using dreamsim::core::ExplainRecord;
using dreamsim::core::SimEvent;
using dreamsim::core::Simulator;
using dreamsim::obs::MetricId;
using dreamsim::obs::PhaseProfiler;
using dreamsim::obs::ProfPhase;
using Clock = std::chrono::steady_clock;

// --seed selects the task timeline only. The simulated system (node areas,
// configuration catalogue) comes from one fixed seed, the Table II default:
// drawing a new system per seed moved peak RSS by up to 18% between seeds,
// more than the bound a regression is judged against.
constexpr std::uint64_t kSystemSeed = 42;
// The sub-stream Simulator::Run() draws its workload from.
constexpr std::uint64_t kWorkloadStream = 1;
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 50;
// Setup is short and noisy, so plain mode samples it at least this often
// (extra construct + generate rounds that are not run).
constexpr std::size_t kMinSetupSamples = 25;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  int nodes = 200;
  int tasks = 1000;
  dreamsim::sched::ReconfigMode mode = dreamsim::sched::ReconfigMode::kPartial;
  bool monitoring = true;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool scan = false;
};

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--nodes") {
      o.nodes = std::stoi(value);
    } else if (key == "--tasks") {
      o.tasks = std::stoi(value);
    } else if (key == "--mode") {
      if (value != "partial" && value != "full") {
        throw std::invalid_argument("--mode must be partial or full");
      }
      o.mode = value == "full" ? dreamsim::sched::ReconfigMode::kFull
                               : dreamsim::sched::ReconfigMode::kPartial;
    } else if (key == "--monitoring") {
      o.monitoring = value == "1";
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--scan") {
      o.scan = value == "1";
    } else {
      throw std::invalid_argument("unknown option " + std::string(key));
    }
  }
  if ((argc - 1) % 2 != 0) throw std::invalid_argument("missing option value");
  if (o.nodes <= 0 || o.tasks <= 0) {
    throw std::invalid_argument("--nodes and --tasks must be positive");
  }
  return o;
}

dreamsim::core::SimulationConfig MakeConfig(const Options& o) {
  dreamsim::core::SimulationConfig config;  // Table II defaults
  config.nodes.count = o.nodes;
  config.tasks.total_tasks = o.tasks;
  config.mode = o.mode;
  config.enable_monitoring = o.monitoring;
  config.seed = kSystemSeed;
  config.shards = 1;
  config.scheduler_index = !o.scan;
  config.drain_index = !o.scan;
  return config;
}

// FNV-1a 64 over the report's CSV fields, each followed by a separator.
std::string Digest(const dreamsim::core::MetricsReport& report) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  };
  for (const std::string& field : dreamsim::core::CsvReportRow(report)) {
    for (const char c : field) mix(static_cast<unsigned char>(c));
    mix(0x1f);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// One prepared run: a fresh Simulator plus its generated timeline.
struct Prepared {
  std::unique_ptr<Simulator> sim;
  dreamsim::workload::Workload workload;
  double construct_s = 0.0;
  double generate_s = 0.0;
};

Prepared Prepare(const Options& o) {
  Prepared p;
  const Clock::time_point start = Clock::now();
  p.sim = std::make_unique<Simulator>(MakeConfig(o));
  p.construct_s = Since(start);
  const Clock::time_point gen = Clock::now();
  dreamsim::Rng rng(dreamsim::DeriveSeed(o.seed, kWorkloadStream));
  p.workload = dreamsim::workload::GenerateWorkload(
      p.sim->config().tasks, p.sim->store().configs(), rng);
  p.generate_s = Since(gen);
  return p;
}

struct RunResult {
  double construct_s = 0.0;
  double generate_s = 0.0;
  double run_s = 0.0;
  double audit_s = 0.0;
  std::size_t tasks = 0;
  std::string digest;
  std::size_t violations = 0;
  std::string error;
};

// Runs a prepared simulation, then digests and audits its end state.
RunResult Execute(Prepared& p) {
  RunResult r;
  r.construct_s = p.construct_s;
  r.generate_s = p.generate_s;
  r.tasks = p.workload.size();
  const Clock::time_point start = Clock::now();
  try {
    const dreamsim::core::MetricsReport report =
        p.sim->RunWithWorkload(p.workload);
    r.run_s = Since(start);
    r.digest = Digest(report);
    const Clock::time_point audit = Clock::now();
    r.violations = p.sim->AuditStructures().violations.size();
    r.audit_s = Since(audit);
  } catch (const std::exception& e) {
    r.run_s = Since(start);
    r.error = e.what();
    if (r.error.empty()) r.error = "exception";
  }
  return r;
}

// --- Traced run ------------------------------------------------------------

constexpr std::array<ProfPhase, 5> kSchedPhases = {
    ProfPhase::kAllocation, ProfPhase::kConfiguration,
    ProfPhase::kPartialConfiguration, ProfPhase::kPartialReconfiguration,
    ProfPhase::kFullReconfiguration};
constexpr std::array<std::string_view, 5> kSchedPhaseNames = {
    "allocation", "configuration", "partial_configuration",
    "partial_reconfiguration", "full_reconfiguration"};

// Profiler time inside the scheduling phases and the suspension-queue
// queries; read at the completion boundaries to split drain time.
struct PhaseTotals {
  std::uint64_t sched_ns = 0;
  std::uint64_t susq_ns = 0;
};

PhaseTotals ReadPhaseTotals() {
  const PhaseProfiler& prof = PhaseProfiler::Instance();
  PhaseTotals t;
  for (const ProfPhase phase : kSchedPhases) {
    t.sched_ns += prof.stats(phase).total_ns;
  }
  t.susq_ns = prof.stats(ProfPhase::kSusQueueQuery).total_ns;
  return t;
}

// State machine over the observer callbacks: every callback that crosses a
// segment boundary charges the time since the previous boundary to the
// segment that was open.
class LayerTrace {
 public:
  enum Segment : std::uint8_t {
    kBetween = 0,
    kDecide,
    kPlace,
    kCompletion,
    kSegmentCount
  };

  void Install(Simulator& sim) {
    sim.SetEventLogger([this](const SimEvent& e) { OnEvent(e); });
    sim.SetExplainObserver(
        [this](const ExplainRecord& r) { OnExplain(r); });
    sim.SetCompletionHook(
        [this](dreamsim::TaskId, dreamsim::Tick) { OnCompletionHook(); });
  }

  void Start() {
    last_ = Clock::now();
    open_ = kBetween;
  }

  [[nodiscard]] double segment_s(Segment s) const {
    return static_cast<double>(segment_ns_[s]) * 1e-9;
  }
  [[nodiscard]] std::uint64_t arrival_attempts() const {
    return arrival_attempts_;
  }
  [[nodiscard]] std::uint64_t configured_placements() const {
    return configured_placements_;
  }
  [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }
  [[nodiscard]] std::uint64_t completions() const { return completions_; }
  [[nodiscard]] std::uint64_t explain_records() const {
    return explain_records_;
  }
  [[nodiscard]] double drain_sched_s() const {
    return static_cast<double>(drain_sched_ns_) * 1e-9;
  }
  [[nodiscard]] double drain_susq_s() const {
    return static_cast<double>(drain_susq_ns_) * 1e-9;
  }

 private:
  void Mark(Segment next) {
    const Clock::time_point now = Clock::now();
    segment_ns_[open_] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
            .count());
    last_ = now;
    open_ = next;
  }

  void OnEvent(const SimEvent& e) {
    switch (e.kind) {
      case SimEvent::Kind::kArrival:
        ++arrivals_;
        Mark(kDecide);
        break;
      case SimEvent::Kind::kPlaced:
        // A fresh configuration triggers one TotalWastedArea() call.
        if (e.config_wait > 0) ++configured_placements_;
        if (open_ == kPlace) Mark(kBetween);
        break;
      case SimEvent::Kind::kSuspended:
      case SimEvent::Kind::kDiscarded:
        if (open_ == kPlace) Mark(kBetween);
        break;
      case SimEvent::Kind::kCompleted:
        ++completions_;
        Mark(kCompletion);
        at_completion_ = ReadPhaseTotals();
        break;
      default:
        break;
    }
  }

  void OnExplain(const ExplainRecord& r) {
    ++explain_records_;
    if (r.is_arrival && open_ == kDecide) {
      ++arrival_attempts_;
      Mark(kPlace);
    }
  }

  void OnCompletionHook() {
    const PhaseTotals now = ReadPhaseTotals();
    drain_sched_ns_ += now.sched_ns - at_completion_.sched_ns;
    drain_susq_ns_ += now.susq_ns - at_completion_.susq_ns;
    Mark(kBetween);
  }

  Clock::time_point last_{};
  Segment open_ = kBetween;
  std::array<std::uint64_t, kSegmentCount> segment_ns_{};
  PhaseTotals at_completion_{};
  std::uint64_t drain_sched_ns_ = 0;
  std::uint64_t drain_susq_ns_ = 0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t arrival_attempts_ = 0;
  std::uint64_t configured_placements_ = 0;
  std::uint64_t explain_records_ = 0;
};

volatile std::uint64_t g_sink = 0;

// Median per-call time in microseconds of `call`, over batches sized to
// take at least 2 ms each.
template <typename F>
double PerCallMicros(F call) {
  std::size_t batch = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) g_sink = g_sink + call();
    if (Since(start) >= 2e-3 || batch >= (std::size_t{1} << 24)) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 15; ++b) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) g_sink = g_sink + call();
    per_call.push_back(Since(start) * 1e6 / static_cast<double>(batch));
  }
  std::nth_element(per_call.begin(),
                   per_call.begin() + static_cast<long>(per_call.size() / 2),
                   per_call.end());
  return per_call[per_call.size() / 2];
}

// --- Output ----------------------------------------------------------------

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string RunJson(const RunResult& r) {
  return "{\"construct_s\": " + JsonNumber(r.construct_s) +
         ", \"generate_s\": " + JsonNumber(r.generate_s) +
         ", \"run_s\": " + JsonNumber(r.run_s) +
         ", \"audit_s\": " + JsonNumber(r.audit_s) +
         ", \"tasks\": " + std::to_string(r.tasks) +
         ", \"digest\": " + JsonString(r.digest) +
         ", \"violations\": " + std::to_string(r.violations) +
         ", \"error\": " + JsonString(r.error) + "}";
}

struct Layer {
  std::string name;
  double value = 0.0;
  std::string_view unit;
};

std::string LayersJson(const std::vector<Layer>& layers) {
  std::string out = "{";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(layers[i].name) + ": {\"value\": " +
           JsonNumber(layers[i].value) + ", \"unit\": " +
           JsonString(layers[i].unit) + "}";
  }
  return out + "}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string HeaderJson() {
  return "\"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
}

int RunPlain(const Options& o) {
  std::vector<RunResult> runs;
  std::vector<double> setups;
  // Peak RSS is read after the first run, the footprint of a process that
  // ran the workload once; later repetitions only add heap fragmentation.
  double peak_rss_mb = 0.0;
  double spent = 0.0;
  while (runs.size() < kMinReps ||
         (spent < o.seconds && runs.size() < kMaxReps)) {
    Prepared p = Prepare(o);
    RunResult r = Execute(p);
    setups.push_back(r.construct_s + r.generate_s);
    spent += r.construct_s + r.generate_s + r.run_s;
    runs.push_back(std::move(r));
    if (runs.size() == 1) peak_rss_mb = PeakRssMb();
    if (o.scan) break;  // reference digests need one run
  }
  while (!o.scan && setups.size() < kMinSetupSamples) {
    const Prepared p = Prepare(o);
    setups.push_back(p.construct_s + p.generate_s);
  }
  std::string out = "{" + HeaderJson() + ", \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out += (i > 0 ? ", " : "") + RunJson(runs[i]);
  }
  out += "], \"setup_samples_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(setups[i]);
  }
  out += "], \"peak_rss_mb\": " + JsonNumber(peak_rss_mb) + "}";
  std::puts(out.c_str());
  return 0;
}

int RunTraced(const Options& o) {
  // Plain runs bracket the traced one, so their mean is the base of
  // trace.overhead_frac and sim.ns_per_event whatever the host drifts.
  const auto plain_run = [&o] {
    Prepared prepared = Prepare(o);
    return Execute(prepared);
  };
  const RunResult plain_before = plain_run();

  Prepared p = Prepare(o);
  LayerTrace trace;
  trace.Install(*p.sim);
  PhaseProfiler::Instance().Reset();
  dreamsim::obs::MetricsRegistry::Instance().Reset();
  PhaseProfiler::SetEnabled(true);
  dreamsim::obs::MetricsRegistry::SetEnabled(true);
  trace.Start();
  const RunResult traced = Execute(p);
  PhaseProfiler::SetEnabled(false);
  const dreamsim::obs::MetricsSnapshot snap =
      dreamsim::obs::MetricsRegistry::Instance().TakeSnapshot();
  dreamsim::obs::MetricsRegistry::SetEnabled(false);
  const auto metric = [&snap](MetricId id) {
    return static_cast<double>(snap.value[static_cast<std::size_t>(id)]);
  };
  const PhaseProfiler& prof = PhaseProfiler::Instance();
  const auto phase_s = [&prof](ProfPhase phase) {
    return static_cast<double>(prof.stats(phase).total_ns) * 1e-9;
  };
  const auto phase_calls = [&prof](ProfPhase phase) {
    return static_cast<double>(prof.stats(phase).calls);
  };

  // Fleet-wide aggregates, per call, on the end-of-run store.
  const dreamsim::resource::ResourceStore& store = p.sim->store();
  const dreamsim::rms::ResourceInformationManager info(store);
  const dreamsim::Tick end = p.sim->kernel().now();
  const double waste_scan_us = PerCallMicros(
      [&store] { return static_cast<std::uint64_t>(store.TotalWastedArea()); });
  const double snapshot_us = PerCallMicros([&info, end] {
    return static_cast<std::uint64_t>(info.Snapshot(end).wasted_area);
  });
  const bool on_schedule = p.sim->config().waste_accounting ==
                           dreamsim::core::WasteAccounting::kOnSchedule;
  p = Prepared{};

  const RunResult plain_after = plain_run();
  const double plain_s = (plain_before.run_s + plain_after.run_s) / 2.0;

  const double waste_scan_calls =
      static_cast<double>((on_schedule ? trace.arrival_attempts() : 0) +
                          trace.configured_placements());
  const double snapshot_calls =
      o.monitoring
          ? static_cast<double>(trace.arrivals() + trace.completions())
          : 0.0;
  const double tasks = static_cast<double>(traced.tasks);
  const double events = metric(MetricId::kEvqPopped);
  const double drain_s = phase_s(ProfPhase::kSuspensionDrain);
  const double drain_attempts = metric(MetricId::kDrainAttempts);
  double segments_s = 0.0;
  for (int s = 0; s < LayerTrace::kSegmentCount; ++s) {
    segments_s += trace.segment_s(static_cast<LayerTrace::Segment>(s));
  }
  double phases_s = 0.0;
  for (const ProfPhase phase : kSchedPhases) phases_s += phase_s(phase);
  const auto share = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };

  // Times that can be structurally zero on a workload (a phase the mode
  // never reaches, queue queries on an always-empty queue) are reported as
  // shares of a time that never is.
  std::vector<Layer> layers = {
      {"workload.generate_s", traced.generate_s, "s"},
      {"core.construct_s", traced.construct_s, "s"},
      {"core.arrival_decide_s", trace.segment_s(LayerTrace::kDecide), "s"},
      {"core.arrival_place_s", trace.segment_s(LayerTrace::kPlace), "s"},
      {"core.completion_s", trace.segment_s(LayerTrace::kCompletion), "s"},
      {"core.between_events_s", trace.segment_s(LayerTrace::kBetween), "s"},
      {"core.drain_s", drain_s, "s"},
      {"core.drain_calls", phase_calls(ProfPhase::kSuspensionDrain), "count"},
      {"core.drain_self_s",
       drain_s - trace.drain_sched_s() - trace.drain_susq_s(), "s"},
      {"sched.phases_s", phases_s, "s"},
  };
  for (std::size_t i = 0; i < kSchedPhases.size(); ++i) {
    const std::string stem = "sched." + std::string(kSchedPhaseNames[i]);
    layers.push_back(
        {stem + "_share", share(phase_s(kSchedPhases[i]), phases_s), "ratio"});
    layers.push_back({stem + "_calls", phase_calls(kSchedPhases[i]), "count"});
  }
  const std::vector<Layer> rest = {
      {"resource.store_query_s", phase_s(ProfPhase::kStoreQuery), "s"},
      {"resource.store_query_calls", phase_calls(ProfPhase::kStoreQuery),
       "count"},
      {"resource.susq_query_share",
       share(phase_s(ProfPhase::kSusQueueQuery), drain_s), "ratio"},
      {"resource.susq_query_calls", phase_calls(ProfPhase::kSusQueueQuery),
       "count"},
      {"resource.waste_scan_us", waste_scan_us, "us"},
      {"resource.waste_scan_calls", waste_scan_calls, "count"},
      {"rms.snapshot_us", snapshot_us, "us"},
      {"rms.snapshot_calls", snapshot_calls, "count"},
      {"sim.events", events, "count"},
      {"sim.events_cancelled", metric(MetricId::kEvqCancelled), "count"},
      {"sim.evq_depth_peak", metric(MetricId::kEvqDepthPeak), "count"},
      {"sim.ns_per_event", share(plain_s * 1e9, events), "ns"},
      {"resource.susq_depth_peak", metric(MetricId::kSusDepthPeak), "count"},
      {"core.drain_attempts", drain_attempts, "count"},
      {"core.drain_hit_ratio",
       share(metric(MetricId::kDrainPlacements), drain_attempts), "ratio"},
      {"sched.attempts_per_task",
       share(static_cast<double>(trace.explain_records()), tasks), "ratio"},
      {"analysis.audit_s", traced.audit_s, "s"},
      {"trace.overhead_frac", share(traced.run_s, plain_s) - 1.0, "ratio"},
      {"trace.unattributed_frac", 1.0 - share(segments_s, traced.run_s),
       "ratio"},
  };
  layers.insert(layers.end(), rest.begin(), rest.end());

  std::string out = "{" + HeaderJson() + ", \"runs\": [" +
                    RunJson(plain_before) + ", " + RunJson(traced) + ", " +
                    RunJson(plain_after) + "], \"layers\": " +
                    LayersJson(layers) + "}";
  std::puts(out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = ParseOptions(argc, argv);
    return o.trace ? RunTraced(o) : RunPlain(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
