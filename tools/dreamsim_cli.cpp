// dreamsim — command-line front end for the DReAMSim simulator.
//
// Single runs, full-vs-partial comparisons, and task-count sweeps from one
// binary, with every Table II parameter exposed as a flag and reports in
// console/CSV/XML form. Examples:
//
//   dreamsim                                  # one Table II run, console report
//   dreamsim --mode=full --tasks=20000        # one full-reconfiguration run
//   dreamsim --compare --xml=report           # both modes + XML reports
//   dreamsim --sweep --scale=0.2 --csv=out.csv
//   dreamsim --trace-in=workload.csv          # replay an external trace
//   dreamsim --policy=best-fit --contiguous   # baseline policy, fabric model
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>

#include "core/replication.hpp"
#include "core/report.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "scenario/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_export.hpp"
#include "obs/profiler.hpp"
#include "obs/run_tracer.hpp"
#include "obs/timeline.hpp"
#include "rms/detail_report.hpp"
#include "util/cli.hpp"
#include "util/enum_name.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dreamsim;

std::optional<core::PolicyChoice> ParsePolicy(const std::string& name) {
  return FromName(name, {core::PolicyChoice::kDreamSim,
                         core::PolicyChoice::kFirstFit,
                         core::PolicyChoice::kBestFit,
                         core::PolicyChoice::kWorstFit,
                         core::PolicyChoice::kRandomFit,
                         core::PolicyChoice::kRoundRobin,
                         core::PolicyChoice::kLeastLoaded});
}

std::optional<core::WasteAccounting> ParseAccounting(const std::string& name) {
  return FromName(name, {core::WasteAccounting::kOnSchedule,
                         core::WasteAccounting::kOnConfigure,
                         core::WasteAccounting::kTimeWeighted,
                         core::WasteAccounting::kIdleConfigured});
}

/// The --mode flag's reconfiguration mode.
sched::ReconfigMode ParseMode(const CliParser& cli) {
  const std::string mode = cli.GetString("mode");
  const auto parsed = FromName(
      mode, {sched::ReconfigMode::kPartial, sched::ReconfigMode::kFull});
  if (!parsed) throw std::invalid_argument(Format("unknown mode '{}'", mode));
  return *parsed;
}

void RegisterFlags(CliParser& cli) {
  // Resources (Table II).
  cli.AddInt("nodes", 200, "number of reconfigurable nodes");
  cli.AddInt("node-min-area", 1000, "node TotalArea lower bound");
  cli.AddInt("node-max-area", 4000, "node TotalArea upper bound");
  cli.AddInt("configs", 50, "number of processor configurations");
  cli.AddInt("config-min-area", 200, "configuration ReqArea lower bound");
  cli.AddInt("config-max-area", 2000, "configuration ReqArea upper bound");
  cli.AddInt("config-time-min", 10, "t_config lower bound (ticks)");
  cli.AddInt("config-time-max", 20, "t_config upper bound (ticks)");
  // Workload (Table II).
  cli.AddInt("tasks", 10000, "number of generated tasks");
  cli.AddInt("interval-min", 1, "min inter-arrival gap (ticks)");
  cli.AddInt("interval-max", 50, "max inter-arrival gap (ticks)");
  cli.AddInt("time-min", 100, "min t_required (ticks)");
  cli.AddInt("time-max", 100000, "max t_required (ticks)");
  cli.AddDouble("closest-match", 0.15,
                "fraction of tasks whose C_pref is not in the catalogue");
  cli.AddDouble("closest-match-slowdown", 1.0,
                "execution-time multiplier on closest-match configurations");
  cli.AddInt("families", 1,
             "device families (bitstream compatibility; 1 = universal)");
  cli.AddString("arrivals", "uniform", "arrival process: uniform|poisson|constant");
  // Scheduling.
  cli.AddString("mode", "partial", "reconfiguration mode: partial|full");
  cli.AddString("policy", "dreamsim",
                "dreamsim|first-fit|best-fit|worst-fit|random-fit|"
                "round-robin|least-loaded");
  cli.AddInt("suspension-batch", 8, "policy re-runs per completion (0=all)");
  cli.AddInt("max-retries", 0, "suspension retries before discard (0=inf)");
  cli.AddInt("queue-capacity", 0, "suspension queue bound (0=unbounded)");
  // Extensions.
  cli.AddBool("contiguous", false, "contiguous-placement fabric model");
  cli.AddString("placement", "first-fit",
                "hole heuristic under --contiguous: first-fit|best-fit|worst-fit");
  // Network.
  cli.AddInt("net-bandwidth", 0, "payload bytes per tick (0 = no comm delay)");
  cli.AddInt("net-latency", 0, "base link latency (ticks)");
  cli.AddInt("net-jitter", 0, "max uniform jitter (ticks)");
  // Fault injection (disabled by default; paper figures are fault-free).
  cli.AddDouble("fault-mtbf", 0.0,
                "mean ticks between node failures (0 = no random failures)");
  cli.AddDouble("fault-mttr", 0.0,
                "mean ticks to repair a failed node (0 = failures are "
                "permanent)");
  cli.AddString("fault-script", "",
                "scripted fault events 'tick:node:fail|repair', "
                "comma-separated");
  // Metrics / output.
  cli.AddString("waste-accounting", "on-schedule",
                "on-schedule|on-configure|time-weighted|idle-configured");
  cli.AddBool("monitoring", true, "event-driven utilization monitoring");
  // Performance.
  cli.AddBool("scheduler-index", true,
              "O(log N) indexed scheduler queries (identical decisions and "
              "metrics; off = literal counted scans)");
  cli.AddBool("drain-index", true,
              "O(log Q) indexed suspension-queue drain, FIFO order only "
              "(identical decisions and metrics; off = literal counted "
              "scans)");
  // Correctness tooling (DESIGN.md §12).
  cli.AddString("audit", "off",
                "structure-invariant audit: off|end (once at end of run)|"
                "step (after every scheduler decision; slow)");
  cli.AddString("csv", "", "write run/sweep rows to this CSV file");
  cli.AddString("xml", "", "write XML report(s) with this path prefix");
  cli.AddString("node-csv", "", "write the per-node detail report here");
  cli.AddString("config-csv", "",
                "write the per-configuration detail report here");
  cli.AddInt("replications", 1,
             "run N independent replications and report mean/ci95");
  cli.AddString("trace-in", "", "replay this workload trace instead of generating");
  cli.AddString("workload-trace-out", "",
                "save the generated workload as a replayable trace");
  // Observability (DESIGN.md §11; all off by default, pure observers).
  cli.AddString("run-trace", "",
                "write a per-event run trace to this path (see --trace-format)");
  cli.AddString("trace-format", "jsonl",
                "run-trace format: jsonl|chrome (chrome://tracing JSON)");
  cli.AddString("timeline-out", "",
                "write an interval-sampled system-state time series (CSV)");
  cli.AddInt("sample-interval", 100, "timeline sampling interval (ticks)");
  cli.AddString("metrics-out", "",
                "write live metrics-registry snapshots to this path (see "
                "--metrics-format)");
  cli.AddString("metrics-format", "json",
                "metrics output format: json (tick-interval JSONL snapshots)"
                "|prom (final Prometheus text exposition)");
  cli.AddInt("metrics-interval", 10000,
             "ticks between JSONL metric snapshots (json format only)");
  cli.AddString("explain", "",
                "comma-separated TaskIds whose scheduling decisions are "
                "recorded as explain records in the jsonl --run-trace "
                "('all' = every task)");
  cli.AddBool("profile", false,
              "profile scheduler phases (host wall time; report on stdout)");
  // Scenario files (docs/formats.md).
  cli.AddString("scenario", "",
                "drive the run from this scenario file (device/task class "
                "blocks); structural flags then conflict, runtime knobs "
                "still apply");
  cli.AddBool("scenario-print", false,
              "print the canonical form and stable hash of --scenario, "
              "then exit");
  // Modes of operation.
  cli.AddBool("compare", false, "run both reconfiguration modes side by side");
  cli.AddBool("sweep", false, "task-count sweep (Fig. 6-10 style)");
  cli.AddDouble("scale", 0.1, "sweep task-axis scale (1.0 = 1000..100000)");
  cli.AddInt("threads", 0, "sweep worker threads (0 = hardware)");
  // Misc.
  cli.AddInt("seed", 42, "random seed");
  cli.AddBool("verbose", false, "log scheduling decisions (very chatty)");
}

/// Runtime knobs shared by the flag and scenario paths: none of these are
/// scenario identity (they never change which file describes which
/// experiment), so they always come from flags.
void ApplyRuntimeKnobs(const CliParser& cli, core::SimulationConfig& config) {
  config.suspension_batch =
      static_cast<std::size_t>(IntAtLeast(cli, "suspension-batch", 0));
  config.max_suspension_retries = static_cast<std::uint32_t>(
      IntInRange(cli, "max-retries", 0, resource::kMaxSusRetry));
  config.suspension_capacity =
      static_cast<std::size_t>(IntAtLeast(cli, "queue-capacity", 0));
  config.network.bytes_per_tick = IntAtLeast(cli, "net-bandwidth", 0);
  config.network.base_latency = IntAtLeast(cli, "net-latency", 0);
  config.network.max_jitter = IntAtLeast(cli, "net-jitter", 0);
  config.faults.mtbf = cli.GetDouble("fault-mtbf");
  config.faults.mttr = cli.GetDouble("fault-mttr");
  config.faults.script = core::ParseFaultScript(cli.GetString("fault-script"));
  config.enable_monitoring = cli.GetBool("monitoring");
  config.scheduler_index = cli.GetBool("scheduler-index");
  config.drain_index = cli.GetBool("drain-index");
  const auto audit = analysis::ParseAuditMode(cli.GetString("audit"));
  if (!audit) {
    throw std::invalid_argument(Format("unknown audit mode '{}' (want off|end|step)",
                                       cli.GetString("audit")));
  }
  config.audit = *audit;
  const auto accounting = ParseAccounting(cli.GetString("waste-accounting"));
  if (!accounting) {
    throw std::invalid_argument(Format("unknown waste accounting '{}'",
                                       cli.GetString("waste-accounting")));
  }
  config.waste_accounting = *accounting;
}

/// Flags whose meaning a scenario file owns; setting both is ambiguous and
/// rejected (the scenario hash must identify the experiment).
constexpr const char* kScenarioOwnedFlags[] = {
    "nodes",          "node-min-area",  "node-max-area",
    "configs",        "config-min-area", "config-max-area",
    "config-time-min", "config-time-max", "tasks",
    "interval-min",   "interval-max",   "time-min",
    "time-max",       "closest-match",  "closest-match-slowdown",
    "families",       "arrivals",       "contiguous",
    "placement",
};

core::SimulationConfig BuildScenarioConfig(const CliParser& cli) {
  const std::string path = cli.GetString("scenario");
  auto parsed = scenario::ParseScenarioFile(path);
  if (!parsed) {
    throw std::invalid_argument(Format("scenario '{}' is invalid:\n{}", path,
                                       scenario::Render(parsed.error())));
  }
  for (const char* flag : kScenarioOwnedFlags) {
    if (cli.WasSet(flag)) {
      throw std::invalid_argument(Format(
          "--{} conflicts with --scenario; set it in the scenario file",
          flag));
    }
  }
  core::SimulationConfig config = std::move(parsed->config);
  // Reproducibility and mode/policy may be varied per invocation without
  // editing the file: explicit flags override the scenario's declaration.
  if (cli.WasSet("seed")) {
    config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
  }
  if (cli.WasSet("mode")) config.mode = ParseMode(cli);
  if (cli.WasSet("policy")) {
    const auto policy = ParsePolicy(cli.GetString("policy"));
    if (!policy) {
      throw std::invalid_argument(
          Format("unknown policy '{}'", cli.GetString("policy")));
    }
    config.policy = *policy;
  }
  ApplyRuntimeKnobs(cli, config);
  return config;
}

core::SimulationConfig BuildConfig(const CliParser& cli) {
  if (!cli.GetString("scenario").empty()) return BuildScenarioConfig(cli);
  core::SimulationConfig config;
  config.nodes.count = static_cast<int>(
      IntInRange(cli, "nodes", 0, std::numeric_limits<int>::max()));
  config.nodes.min_area = cli.GetInt("node-min-area");
  config.nodes.max_area = cli.GetInt("node-max-area");
  config.nodes.contiguous_placement = cli.GetBool("contiguous");
  config.configs.count = static_cast<int>(
      IntInRange(cli, "configs", 0, std::numeric_limits<int>::max()));
  config.configs.min_area = cli.GetInt("config-min-area");
  config.configs.max_area = cli.GetInt("config-max-area");
  config.configs.min_config_time = cli.GetInt("config-time-min");
  config.configs.max_config_time = cli.GetInt("config-time-max");
  config.tasks.total_tasks = static_cast<int>(
      IntInRange(cli, "tasks", 0, std::numeric_limits<int>::max()));
  config.tasks.min_interval = cli.GetInt("interval-min");
  config.tasks.max_interval = cli.GetInt("interval-max");
  config.tasks.min_required_time = cli.GetInt("time-min");
  config.tasks.max_required_time = cli.GetInt("time-max");
  config.tasks.closest_match_fraction = cli.GetDouble("closest-match");
  config.tasks.unknown_min_area = config.configs.min_area;
  config.tasks.unknown_max_area = config.configs.max_area;
  config.closest_match_slowdown = cli.GetDouble("closest-match-slowdown");
  config.nodes.family_count = static_cast<int>(
      IntInRange(cli, "families", 1, std::numeric_limits<int>::max()));
  config.configs.family_count = config.nodes.family_count;
  ApplyRuntimeKnobs(cli, config);
  config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));

  const std::string arrivals = cli.GetString("arrivals");
  const auto process =
      FromName(arrivals, {workload::ArrivalProcess::kUniform,
                          workload::ArrivalProcess::kPoisson,
                          workload::ArrivalProcess::kConstant});
  if (!process) {
    throw std::invalid_argument(Format("unknown arrival process '{}'", arrivals));
  }
  config.tasks.arrivals = *process;

  config.mode = ParseMode(cli);

  const auto policy = ParsePolicy(cli.GetString("policy"));
  if (!policy) {
    throw std::invalid_argument(
        Format("unknown policy '{}'", cli.GetString("policy")));
  }
  config.policy = *policy;

  const std::string placement = cli.GetString("placement");
  const auto fit = FromName(placement, {resource::Placement::kFirstFit,
                                        resource::Placement::kBestFit,
                                        resource::Placement::kWorstFit});
  if (!fit) {
    throw std::invalid_argument(Format("unknown placement '{}'", placement));
  }
  config.nodes.placement = *fit;
  return config;
}

/// Under --compare each mode writes its own file: "runs.json" becomes
/// "runs-full.json" / "runs-partial.json". Single runs keep the path as-is.
std::string PerModePath(const std::string& path, std::string_view mode,
                        bool multiple_modes) {
  if (!multiple_modes) return path;
  const auto dot = path.rfind('.');
  const auto slash = path.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return Format("{}-{}", path, mode);
  }
  return Format("{}-{}{}", path.substr(0, dot), mode, path.substr(dot));
}

obs::TraceFormat RequireTraceFormat(const CliParser& cli) {
  const std::string name = cli.GetString("trace-format");
  const auto format = obs::ParseTraceFormat(name);
  if (!format) {
    throw std::invalid_argument(
        Format("unknown trace format '{}' (want jsonl|chrome)", name));
  }
  return *format;
}

obs::MetricsFormat RequireMetricsFormat(const CliParser& cli) {
  const std::string name = cli.GetString("metrics-format");
  const auto format = obs::ParseMetricsFormat(name);
  if (!format) {
    throw std::invalid_argument(
        Format("unknown metrics format '{}' (want json|prom)", name));
  }
  return *format;
}

/// Parses --explain: "all" (empty filter = every task) or a comma-separated
/// TaskId list.
std::vector<TaskId> ParseExplainTasks(const std::string& spec) {
  std::vector<TaskId> tasks;
  if (spec == "all") return tasks;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(start, end - start);
    if (token.empty()) {
      throw std::invalid_argument(
          "--explain wants 'all' or comma-separated task ids");
    }
    std::size_t consumed = 0;
    unsigned long value = 0;
    try {
      value = std::stoul(token, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != token.size() || value > 0xfffffffful) {
      throw std::invalid_argument(
          Format("--explain: '{}' is not a task id", token));
    }
    tasks.push_back(TaskId{static_cast<std::uint32_t>(value)});
    start = end + 1;
  }
  return tasks;
}

void MaybeWriteXml(const CliParser& cli, const core::MetricsReport& report) {
  const std::string prefix = cli.GetString("xml");
  if (prefix.empty()) return;
  const std::string path = Format("{}-{}.xml", prefix, report.mode_name);
  std::ofstream out(path);
  core::WriteXmlReport(out, report);
  std::cout << "wrote " << path << "\n";
}

int RunSingleOrCompare(const CliParser& cli) {
  std::vector<sched::ReconfigMode> modes;
  if (cli.GetBool("compare")) {
    modes = {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial};
  } else {
    modes = {BuildConfig(cli).mode};
  }

  // Optional trace replay: one workload shared by all runs.
  std::optional<workload::Workload> trace;
  const std::string trace_in = cli.GetString("trace-in");
  if (!trace_in.empty()) {
    trace = workload::ReadTraceFile(trace_in);
    std::cout << "replaying " << trace->size() << " tasks from " << trace_in
              << "\n";
  }

  const std::string trace_out = cli.GetString("workload-trace-out");
  const std::string run_trace = cli.GetString("run-trace");
  const std::string timeline_out = cli.GetString("timeline-out");
  const obs::TraceFormat trace_format = RequireTraceFormat(cli);
  const bool profile = cli.GetBool("profile");
  if (profile) obs::PhaseProfiler::SetEnabled(true);
  const std::string metrics_out = cli.GetString("metrics-out");
  const obs::MetricsFormat metrics_format = RequireMetricsFormat(cli);
  const Tick metrics_interval = IntAtLeast(cli, "metrics-interval", 0);
  const bool explain = cli.WasSet("explain");
  if (explain &&
      (run_trace.empty() || trace_format != obs::TraceFormat::kJsonl)) {
    throw std::invalid_argument(
        "--explain records ride the run trace: add --run-trace=FILE with "
        "--trace-format=jsonl");
  }
  const std::vector<TaskId> explain_tasks =
      explain ? ParseExplainTasks(cli.GetString("explain"))
              : std::vector<TaskId>{};
  // The registry is process-global: enable once, reset per run so each
  // report/snapshot covers exactly one run.
  const bool metrics_enabled = !metrics_out.empty() || explain;
  if (metrics_enabled) obs::MetricsRegistry::SetEnabled(true);

  std::vector<core::MetricsReport> reports;
  for (const auto mode : modes) {
    core::SimulationConfig config = BuildConfig(cli);
    config.mode = mode;
    config.label = config.scenario_name.empty()
                       ? std::string(sched::ToString(mode))
                       : Format("{}-{}", config.scenario_name,
                                sched::ToString(mode));

    if (!trace && !trace_out.empty() && !config.task_classes.empty()) {
      std::cerr << "warning: --workload-trace-out is ignored for "
                   "multi-class scenarios\n";
    } else if (!trace && !trace_out.empty()) {
      // Generate once, save, then replay the saved workload so the file is
      // exactly what the simulation consumed.
      Rng workload_rng(DeriveSeed(config.seed, 1));
      Rng catalogue_rng(DeriveSeed(config.seed, 2));
      const auto catalogue = resource::ConfigCatalogue::Generate(
          config.configs, ptype::Catalogue::Default(), catalogue_rng);
      trace = workload::GenerateWorkload(config.tasks, catalogue,
                                         workload_rng);
      workload::WriteTraceFile(trace_out, *trace);
      std::cout << "wrote " << trace_out << "\n";
    }

    const std::string mode_name(sched::ToString(mode));
    core::Simulator simulator(std::move(config));

    // Observability taps (pure observers; paper metrics are unaffected).
    std::unique_ptr<obs::RunTracer> tracer;
    if (!run_trace.empty()) {
      const std::string path =
          PerModePath(run_trace, mode_name, modes.size() > 1);
      obs::RunTracer::RunInfo info;
      info.label = simulator.config().label;
      info.mode = mode_name;
      info.seed = simulator.config().seed;
      info.nodes = simulator.store().node_count();
      tracer = std::make_unique<obs::RunTracer>(path, trace_format,
                                                std::move(info));
      std::cout << "tracing run to " << path << " ("
                << obs::ToString(trace_format) << ")\n";
    }
    std::unique_ptr<obs::MetricsSnapshotWriter> metrics_writer;
    if (!metrics_out.empty()) {
      const std::string path =
          PerModePath(metrics_out, mode_name, modes.size() > 1);
      metrics_writer = std::make_unique<obs::MetricsSnapshotWriter>(
          path, metrics_format, metrics_interval);
      std::cout << "metrics to " << path << " ("
                << obs::ToString(metrics_format) << ")\n";
    }
    if (tracer || metrics_writer) {
      simulator.SetEventLogger(
          [&tracer, &metrics_writer](const core::SimEvent& event) {
            if (tracer) tracer->OnEvent(event);
            if (metrics_writer) metrics_writer->OnEvent(event);
          });
    }
    if (explain) {
      // RequireTraceFormat/--explain validation above guarantees a jsonl
      // tracer exists here.
      simulator.SetExplainObserver(
          [&tracer](const core::ExplainRecord& record) {
            tracer->OnExplain(record);
          },
          explain_tasks);
    }
    std::unique_ptr<obs::TimeSeriesSampler> sampler;
    if (!timeline_out.empty()) {
      const std::string path =
          PerModePath(timeline_out, mode_name, modes.size() > 1);
      sampler = std::make_unique<obs::TimeSeriesSampler>(
          path, static_cast<Tick>(cli.GetInt("sample-interval")));
      simulator.SetStateObserver(
          [&sampler](const core::StateSample& sample) {
            sampler->Observe(sample);
          });
      std::cout << "sampling timeline to " << path << "\n";
    }
    if (profile) obs::PhaseProfiler::Instance().Reset();
    if (metrics_enabled) obs::MetricsRegistry::Instance().Reset();

    reports.push_back(trace ? simulator.RunWithWorkload(*trace)
                            : simulator.Run());
    const Tick end = simulator.kernel().now();
    if (metrics_enabled) {
      reports.back().metrics_block = obs::RenderMetricsBlock(
          obs::MetricsRegistry::Instance().TakeSnapshot());
    }
    if (tracer) tracer->Finish(end);
    if (metrics_writer) metrics_writer->Finish(end);
    if (sampler) sampler->Finish(end);
    if (profile) {
      std::cout << "\n[" << mode_name << "] "
                << obs::PhaseProfiler::Instance().Report();
    }
    MaybeWriteXml(cli, reports.back());

    const std::string node_csv = cli.GetString("node-csv");
    if (!node_csv.empty()) {
      std::ofstream out(Format("{}", node_csv));
      rms::WriteNodeCsv(out, simulator.store());
      std::cout << "wrote " << node_csv << "\n";
    }
    const std::string config_csv = cli.GetString("config-csv");
    if (!config_csv.empty()) {
      std::ofstream out(config_csv);
      rms::WriteConfigCsv(out, simulator.store(),
                          reports.back().placements_per_config);
      std::cout << "wrote " << config_csv << "\n";
    }
  }

  if (reports.size() == 1) {
    std::cout << core::RenderReportTable(reports.front());
  } else {
    std::cout << core::RenderComparisonTable(reports);
  }

  const std::string csv_path = cli.GetString("csv");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    core::WriteCsvReports(out, reports);
    std::cout << "wrote " << csv_path << "\n";
  }
  return 0;
}

/// Per-run traces/timelines only exist for single and --compare runs;
/// sweeps and replications run many simulators in parallel.
void WarnUnsupportedObs(const CliParser& cli, std::string_view where) {
  for (const std::string_view flag :
       {"run-trace", "timeline-out", "metrics-out", "explain"}) {
    if (!cli.GetString(flag).empty()) {
      std::cerr << "warning: --" << flag << " is ignored under --" << where
                << "\n";
    }
  }
}

/// Enables and zeroes the phase profiler under --profile. Its counters are
/// atomic, so parallel sweep and replication workers can share it; the
/// report then aggregates every run.
bool StartProfile(const CliParser& cli) {
  if (!cli.GetBool("profile")) return false;
  obs::PhaseProfiler::SetEnabled(true);
  obs::PhaseProfiler::Instance().Reset();
  return true;
}

int RunSweepMode(const CliParser& cli, unsigned threads) {
  WarnUnsupportedObs(cli, "sweep");
  const bool profile = StartProfile(cli);

  core::SweepParams params;
  params.base = BuildConfig(cli);
  params.base.enable_monitoring = false;
  params.task_counts = core::PaperTaskCounts(cli.GetDouble("scale"));
  params.modes = {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial};
  params.threads = threads;
  params.replications =
      static_cast<std::size_t>(IntAtLeast(cli, "replications", 1));

  if (params.replications > 1) {
    // Replicated grid: each point summarized over independent seeds.
    const auto points = core::RunReplicatedSweep(params);
    if (profile) {
      std::cout << "\n[sweep] " << obs::PhaseProfiler::Instance().Report();
    }
    std::vector<core::MetricsReport> all_runs;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto mode = params.modes[i / params.task_counts.size()];
      const int tasks = params.task_counts[i % params.task_counts.size()];
      std::cout << Format("\n[{} tasks={}]\n", sched::ToString(mode), tasks)
                << core::RenderReplicationTable(points[i]);
      all_runs.insert(all_runs.end(), points[i].runs.begin(),
                      points[i].runs.end());
    }
    const std::string csv_path = cli.GetString("csv");
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      core::WriteCsvReports(out, all_runs);
      std::cout << "wrote " << csv_path << "\n";
    }
    return 0;
  }

  const auto reports = core::RunSweep(params);
  if (profile) {
    std::cout << "\n[sweep] " << obs::PhaseProfiler::Instance().Report();
  }
  std::cout << core::RenderComparisonTable(reports);

  const std::string csv_path = cli.GetString("csv");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    core::WriteCsvReports(out, reports);
    std::cout << "wrote " << csv_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "dreamsim — task scheduling simulator for partially reconfigurable "
      "processing elements (IPDPSW 2012 reproduction).");
  RegisterFlags(cli);
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }
  if (cli.GetBool("verbose")) Log::SetLevel(LogLevel::kDebug);

  try {
    if (cli.GetBool("scenario-print")) {
      const std::string path = cli.GetString("scenario");
      if (path.empty()) {
        throw std::invalid_argument("--scenario-print needs --scenario FILE");
      }
      const auto parsed = scenario::ParseScenarioFile(path);
      if (!parsed) {
        std::cerr << Format("scenario '{}' is invalid:\n{}", path,
                            scenario::Render(parsed.error()));
        return 1;
      }
      // The hash comment keeps the output parseable as a scenario itself.
      std::cout << Format("# scenario hash: {}\n",
                          scenario::ScenarioHash(*parsed))
                << scenario::CanonicalScenario(*parsed);
      return 0;
    }
    // Checked in every mode, so a wrapped or truncated count never passes
    // unnoticed.
    const auto threads = static_cast<unsigned>(
        IntInRange(cli, "threads", 0, std::numeric_limits<unsigned>::max()));
    if (cli.GetBool("sweep")) {
      return RunSweepMode(cli, threads);  // owns --replications
    }
    const auto replications =
        static_cast<std::size_t>(IntAtLeast(cli, "replications", 1));
    if (replications > 1) {
      WarnUnsupportedObs(cli, "replications");
      const bool profile = StartProfile(cli);
      const core::ReplicationReport report = core::RunReplications(
          BuildConfig(cli), replications, threads);
      if (profile) {
        std::cout << "[replications] "
                  << obs::PhaseProfiler::Instance().Report() << "\n";
      }
      std::cout << core::RenderReplicationTable(report);
      return 0;
    }
    return RunSingleOrCompare(cli);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
