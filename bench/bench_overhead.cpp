// Feature-overhead table (DESIGN.md §10-§12, §16; docs/formats.md
// "Overhead benchmark JSON").
//
// Every observer, audit and fault switch promises to leave every
// paper-facing metric bit-identical (SameRun) at little host cost. Each
// row is one switch, timed in CPU seconds against the baseline of its base
// config (Table II, 200 nodes, seed 42): rows of one base share that
// base's baseline run in each round, and a row's overhead is the minimum
// per-round overhead (PairedRounds). Every run is audited after its
// timing stops. Gates: the JSONL tracer, the sampler, the registry and
// registry + snapshots < 5%; --audit=end < 1% (an upper bound on the
// off-mode branch); faults armed but never firing < 5%; the disabled
// profiler and metric hooks < 5 ns in optimized builds. Ungated context:
// tracer + sampler, the profiler on, one --audit=step run, and a run with
// faults firing, for its fault counts.
//
// Output: BENCH_overhead.json next to the executable (override with
// --out); --quick shrinks the workload for CI. Exits 1 if any row's
// metrics diverge, any audit fails or any gate is breached.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_sim.hpp"
#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "obs/profiler.hpp"
#include "obs/run_tracer.hpp"
#include "obs/timeline.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

namespace {

using namespace dreamsim;
using namespace dreamsim::bench;
using dreamsim::core::MetricsReport;
using dreamsim::core::SimulationConfig;
using dreamsim::core::Simulator;

constexpr double kFeatureBudgetPct = 5.0;
constexpr double kAuditEndBudgetPct = 1.0;
constexpr double kDisabledHookBudgetNs = 5.0;
constexpr double kUngated = -1.0;
#ifdef NDEBUG
constexpr bool kGateHooks = true;
#else
constexpr bool kGateHooks = false;
#endif

/// Flushes an observer at the run's final tick.
using Finish = std::function<void(Tick)>;
/// Wires one observer onto a freshly built Simulator.
using Attach = std::function<Finish(Simulator&)>;

/// One switch, turned on for one run. Rows leave everything else as their
/// base has it; the baseline row is a Row with only a name.
struct Row {
  std::string name;
  double budget_pct = kUngated;
  std::function<void(SimulationConfig&)> configure{};  // config switches
  bool profiler = false;  // process-global switches
  bool registry = false;
  std::vector<Attach> observers{};
  bool once = false;  // one run after the rounds instead of one per round
};

struct Base {
  std::string name;
  SimulationConfig config;
  std::vector<Row> rows;
};

struct Result {
  std::string base;
  std::string row;
  double budget_pct = kUngated;
  double seconds = 1e300;  // fastest run
  double min_pct = 0.0;
  double median_pct = 0.0;
  bool identical = true;
  bool audits_clean = true;
  std::string first_violation;
  MetricsReport report;  // the last run's

  [[nodiscard]] bool Gated() const { return budget_pct != kUngated; }
  [[nodiscard]] bool Pass() const {
    return identical && audits_clean && (!Gated() || min_pct < budget_pct);
  }
};

Attach TraceTo(const std::string& path) {
  return [path](Simulator& sim) -> Finish {
    obs::RunTracer::RunInfo info;
    info.label = "bench_overhead";
    info.mode = ToString(sim.config().mode);
    info.seed = sim.config().seed;
    info.nodes = sim.store().node_count();
    auto tracer = std::make_shared<obs::RunTracer>(
        path, obs::TraceFormat::kJsonl, info);
    sim.SetEventLogger(
        [tracer](const core::SimEvent& e) { tracer->OnEvent(e); });
    return [tracer](Tick now) { tracer->Finish(now); };
  };
}

Attach SampleTo(const std::string& path) {
  return [path](Simulator& sim) -> Finish {
    auto sampler = std::make_shared<obs::TimeSeriesSampler>(path, Tick{100});
    sim.SetStateObserver(
        [sampler](const core::StateSample& s) { sampler->Observe(s); });
    return [sampler](Tick now) { sampler->Finish(now); };
  };
}

/// Interval JSONL snapshots at the CLI's default cadence (one per ~75
/// tasks of horizon on a Table II run), so the gate prices what users get.
Attach SnapshotTo(const std::string& path) {
  return [path](Simulator& sim) -> Finish {
    auto writer = std::make_shared<obs::MetricsSnapshotWriter>(
        path, obs::MetricsFormat::kJson, Tick{10000});
    sim.SetEventLogger(
        [writer](const core::SimEvent& e) { writer->OnEvent(e); });
    return [writer](Tick now) { writer->Finish(now); };
  };
}

/// Runs `row` once on `config` and returns its CPU seconds. The report must
/// match the base's `reference` (the first run's), and the end state,
/// audited after the timing stops, must reconstruct clean; with the
/// registry still on, the audit also checks metric conservation.
double RunOnce(SimulationConfig config, const Row& row,
               std::optional<MetricsReport>& reference, Result& result) {
  if (row.configure) row.configure(config);
  obs::PhaseProfiler::SetEnabled(row.profiler);
  obs::PhaseProfiler::Instance().Reset();
  obs::MetricsRegistry::SetEnabled(row.registry);
  obs::MetricsRegistry::Instance().Reset();
  const double start = CpuSeconds();
  Simulator sim(std::move(config));
  std::vector<Finish> finishers;
  for (const Attach& attach : row.observers) finishers.push_back(attach(sim));
  result.report = sim.Run();
  for (const Finish& finish : finishers) finish(sim.kernel().now());
  const double seconds = CpuSeconds() - start;
  const analysis::AuditReport audit = sim.AuditStructures();
  if (!audit.ok() && result.audits_clean) {
    result.audits_clean = false;
    result.first_violation = audit.Render(1);
  }
  obs::PhaseProfiler::SetEnabled(false);
  obs::MetricsRegistry::SetEnabled(false);
  if (!reference) reference = result.report;
  result.identical = result.identical && SameRun(*reference, result.report);
  return seconds;
}

/// Times every row of `base`: the baseline and the per-round rows in
/// `rounds` paired rounds, then each `once` row against the fastest
/// baseline. Results come baseline first.
std::vector<Result> Measure(const Base& base, int rounds) {
  std::vector<Row> levels{Row{"off"}};
  for (const Row& row : base.rows) {
    if (!row.once) levels.push_back(row);
  }
  std::vector<Result> results(levels.size());
  std::optional<MetricsReport> reference;
  const RoundStats stats =
      PairedRounds(levels.size(), rounds, [&](std::size_t i) {
        return RunOnce(base.config, levels[i], reference, results[i]);
      });
  for (std::size_t i = 0; i < levels.size(); ++i) {
    results[i].row = levels[i].name;
    results[i].budget_pct = levels[i].budget_pct;
    results[i].seconds = stats.best_seconds[i];
    results[i].min_pct = stats.MinPct(i);
    results[i].median_pct = stats.MedianPct(i);
  }
  for (const Row& row : base.rows) {
    if (!row.once) continue;
    Result& result = results.emplace_back();
    result.row = row.name;
    result.budget_pct = row.budget_pct;
    result.seconds = RunOnce(base.config, row, reference, result);
    result.min_pct = result.median_pct =
        OverheadPct(stats.best_seconds[0], result.seconds);
  }
  for (Result& result : results) result.base = base.name;
  return results;
}

std::vector<Base> Bases(int tasks, const std::string& scratch) {
  SimulationConfig table2;  // Table II: 200 nodes, 50 configs
  table2.tasks.total_tasks = tasks;
  table2.seed = 42;

  // The CLI default: monitoring on. The sampler shares the monitor's
  // per-event snapshot, so these rows price serialization and sampling,
  // not the snapshot every CLI run already pays.
  Base monitored{"monitored", table2, {}};
  monitored.rows = {
      {.name = "tracer-jsonl",
       .budget_pct = kFeatureBudgetPct,
       .observers = {TraceTo(scratch + ".trace.jsonl")}},
      {.name = "sampler",
       .budget_pct = kFeatureBudgetPct,
       .observers = {SampleTo(scratch + ".timeline.csv")}},
      {.name = "tracer+sampler",
       .observers = {TraceTo(scratch + ".trace.jsonl"),
                     SampleTo(scratch + ".timeline.csv")}},
      {.name = "profiler-on", .profiler = true},
      {.name = "registry",
       .budget_pct = kFeatureBudgetPct,
       .registry = true},
      {.name = "registry+snapshots",
       .budget_pct = kFeatureBudgetPct,
       .registry = true,
       .observers = {SnapshotTo(scratch + ".metrics.jsonl")}},
  };

  // A light fault mix keeps the auditor's fault-visibility checks on real
  // work.
  Base faulty{"faulty", table2, {}};
  faulty.config.faults.mtbf = 200'000;
  faulty.config.faults.mttr = 20'000;
  faulty.config.tasks.max_required_time = 3000;
  faulty.config.max_suspension_retries = 10;
  faulty.rows = {
      {.name = "audit-end",
       .budget_pct = kAuditEndBudgetPct,
       .configure =
           [](SimulationConfig& c) { c.audit = analysis::AuditMode::kEnd; }},
      {.name = "audit-step",
       .configure =
           [](SimulationConfig& c) { c.audit = analysis::AuditMode::kStep; },
       .once = true},
  };

  // Faults off is the original zero-overhead path; armed with an MTBF far
  // past any reachable tick, all the bookkeeping runs and nothing fails.
  Base unmonitored{"unmonitored", table2, {}};
  unmonitored.config.enable_monitoring = false;
  unmonitored.rows = {
      {.name = "faults-armed",
       .budget_pct = kFeatureBudgetPct,
       .configure =
           [](SimulationConfig& c) {
             c.faults.mtbf = 1e12;
             c.faults.mttr = 1e6;
           }},
  };

  // Context: faults firing and repairing, with kills kept recoverable.
  Base active{"faults-active", unmonitored.config, {}};
  active.config.tasks.max_required_time = 5000;
  active.config.max_suspension_retries = 10;
  active.config.faults.mtbf = 200'000;
  active.config.faults.mttr = 20'000;

  return {monitored, faulty, unmonitored, active};
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Feature-overhead table; writes BENCH_overhead.json");
  const BenchArgs args =
      ParseBenchArgs(cli, "CI smoke workload (fewer tasks, fewer rounds)",
                     argc, argv, "BENCH_overhead.json");
  const std::string scratch = args.out_path + ".scratch";
  const int tasks = args.quick ? 5000 : 20000;
  const int rounds = args.quick ? 3 : 7;

  std::vector<Result> results;
  for (const Base& base : Bases(tasks, scratch)) {
    for (Result& r : Measure(base, rounds)) results.push_back(std::move(r));
  }
  for (const char* suffix : {".trace.jsonl", ".timeline.csv",
                             ".metrics.jsonl"}) {
    std::remove((scratch + suffix).c_str());
  }

  // A disabled hook is one relaxed atomic load and a branch: no clock
  // read, no allocation.
  obs::PhaseProfiler::SetEnabled(false);
  obs::MetricsRegistry::SetEnabled(false);
  const std::pair<const char*, double> hooks[] = {
      {"profiler", DisabledHookNs([] {
         const obs::ScopedPhaseTimer timer(obs::ProfPhase::kStoreQuery);
       })},
      {"metric",
       DisabledHookNs([] { obs::MetricInc(obs::MetricId::kEvqPushed); })},
  };

  bool pass = true;
  std::cout << Format("feature overhead @ {} nodes, {} tasks, CPU time, min "
                      "of {} paired rounds\n",
                      results[0].report.total_nodes, tasks, rounds);
  std::cout << Format("  {:<14}{:<20}{:>9}{:>9}{:>9}{:>8}  {}\n", "base", "row",
                      "best s", "min %", "median %", "budget", "check");
  for (const Result& r : results) {
    pass = pass && r.Pass();
    std::cout << Format(
        "  {:<14}{:<20}{:>9}{:>9}{:>9}{:>8}  {}\n", r.base, r.row,
        Fixed(r.seconds, 3), Fixed(r.min_pct, 2), Fixed(r.median_pct, 2),
        r.Gated() ? Fixed(r.budget_pct, 1) + "%" : std::string("-"),
        r.Pass() ? "ok"
                 : Format("FAIL{}{}", r.identical ? "" : " (metrics differ)",
                          r.audits_clean ? "" : " (audit violation)"));
    if (!r.audits_clean) std::cout << "    " << r.first_violation << "\n";
  }
  for (const auto& [hook, ns] : hooks) {
    const bool ok = !kGateHooks || ns < kDisabledHookBudgetNs;
    pass = pass && ok;
    std::cout << Format("  disabled {} hook: {} ns (budget {} ns{}) {}\n", hook,
                        Fixed(ns, 2), Fixed(kDisabledHookBudgetNs, 1),
                        kGateHooks ? "" : "; unoptimized build, ungated",
                        ok ? "ok" : "FAIL");
  }
  const MetricsReport& active = results.back().report;  // faults-active
  std::cout << Format(
      "  faults-active: {} failures, {} repairs, {} kills, {} recovered, {} "
      "lost\n",
      active.failures_injected, active.repairs_completed, active.tasks_killed,
      active.tasks_recovered, active.tasks_lost_to_failure);

  JsonWriter json;
  json.Field("bench", "overhead")
      .Field("quick", args.quick)
      .Field("hardware_threads", std::thread::hardware_concurrency())
      .Field("nodes", results[0].report.total_nodes)
      .Field("tasks", tasks)
      .Field("rounds", rounds)
      .BeginArray("rows");
  for (const Result& r : results) {
    json.Element(JsonRow()
                     .Add("base", r.base)
                     .Add("row", r.row)
                     .Add("seconds", r.seconds)
                     .Add("overhead_pct", r.min_pct)
                     .Add("median_pct", r.median_pct)
                     .Add("budget_pct",
                          JsonRaw{r.Gated() ? JsonValue(r.budget_pct) : "null"})
                     .Add("identical", r.identical)
                     .Add("audits_clean", r.audits_clean)
                     .Add("pass", r.Pass()));
  }
  json.End().BeginArray("hooks");
  for (const auto& [hook, ns] : hooks) {
    json.Element(JsonRow()
                     .Add("hook", hook)
                     .Add("ns", ns)
                     .Add("budget_ns", kDisabledHookBudgetNs)
                     .Add("gated", kGateHooks));
  }
  json.End()
      .BeginObject("active_faults")
      .Field("failures_injected", active.failures_injected)
      .Field("repairs_completed", active.repairs_completed)
      .Field("tasks_killed", active.tasks_killed)
      .Field("tasks_recovered", active.tasks_recovered)
      .Field("tasks_lost_to_failure", active.tasks_lost_to_failure)
      .Field("total_downtime", active.total_downtime)
      .End()
      .Field("pass", pass);
  if (!json.Write(args.out_path)) return 1;
  return pass ? 0 : 1;
}
