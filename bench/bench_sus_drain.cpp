// Indexed-vs-scan comparison for the suspension-queue drain queries
// (DESIGN.md "Scheduler index"), emitted as machine-readable JSON so the
// perf trajectory can be tracked across commits.
//
// Two layers:
//   1. ns/query for each drain candidate-selection pattern at queue depths
//      1k/10k/100k: a literal counted walk of the queue (what the
//      reference Simulator::DrainSuspensionQueue does) vs the
//      SusQueueIndex answer plus its analytic bulk step charge, on
//      identical populations.
//   2. End-to-end RunSweep wall-clock at saturation (deep queues) with
//      drain_index off vs on — scheduler_index stays on in both runs, so
//      the drain path is the only difference — plus a cross-check that the
//      paper-facing metrics are bit-identical in both modes.
//
// Output: BENCH_sus_drain.json next to the executable (override with
// --out). --quick shrinks the grid for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/sweep.hpp"
#include "resource/suspension_queue.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace dreamsim;
using dreamsim::core::MetricsReport;
using dreamsim::core::RunSweep;
using dreamsim::core::SweepParams;
using resource::StepKind;
using resource::SusEntryAttrs;
using resource::SuspensionQueue;
using resource::WorkloadMeter;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fixed-point rendering (util::Format pads but has no precision specs).
std::string Fixed(double value, int precision) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

/// A saturated-regime queue population: 64 distinct resolved configs, a
/// single device family (the paper's evaluation), areas mostly too large
/// for a freshly freed region with a sparse sprinkle of small tasks.
/// Deterministic, so the scan and indexed queues see identical state.
void FillQueue(SuspensionQueue& queue, std::vector<SusEntryAttrs>& attrs,
               int depth, WorkloadMeter& meter) {
  Rng rng(11);
  for (int i = 0; i < depth; ++i) {
    SusEntryAttrs a;
    a.resolved_config =
        ConfigId{static_cast<std::uint32_t>(rng.uniform_int(0, 63))};
    a.needed_area = (i % 997 == 996) ? 100 : rng.uniform_int(1000, 2000);
    a.priority = static_cast<double>(rng.uniform_int(0, 9));
    if (!queue.Add(TaskId{static_cast<std::uint32_t>(i)}, a, meter)) {
      throw std::logic_error("bench queue unexpectedly bounded");
    }
    attrs.push_back(a);
  }
}

/// The CouldUseNode predicate in attribute form (single family).
bool Eligible(const SusEntryAttrs& a, Area bound, ConfigId match) {
  if (match.valid() && a.resolved_config == match) return true;
  return a.needed_area <= bound;
}

// --- Literal reference walks (what the scan-mode drain executes) ---------

std::optional<std::size_t> ScanExactMatch(
    const SuspensionQueue& queue, const std::vector<SusEntryAttrs>& attrs,
    ConfigId config, bool by_priority, WorkloadMeter& meter) {
  std::optional<std::size_t> best;
  double best_priority = 0.0;
  std::size_t i = 0;
  for (const TaskId task : queue) {
    const std::size_t index = i++;
    meter.Add(StepKind::kSchedulingSearch);
    const SusEntryAttrs& a = attrs[task.value()];
    if (a.resolved_config != config) continue;
    if (!best || (by_priority && a.priority > best_priority)) {
      best = index;
      best_priority = a.priority;
    }
  }
  return best;
}

std::optional<std::size_t> ScanOldestEligible(
    const SuspensionQueue& queue, const std::vector<SusEntryAttrs>& attrs,
    Area bound, ConfigId match, WorkloadMeter& meter) {
  std::size_t i = 0;
  for (const TaskId task : queue) {
    meter.Add(StepKind::kSchedulingSearch);
    if (Eligible(attrs[task.value()], bound, match)) return i;
    ++i;
  }
  return std::nullopt;
}

std::optional<std::size_t> ScanBestPriorityEligible(
    const SuspensionQueue& queue, const std::vector<SusEntryAttrs>& attrs,
    Area bound, ConfigId match, WorkloadMeter& meter) {
  std::optional<std::size_t> best;
  double best_priority = 0.0;
  std::size_t i = 0;
  for (const TaskId task : queue) {
    const std::size_t index = i++;
    meter.Add(StepKind::kSchedulingSearch);
    const SusEntryAttrs& a = attrs[task.value()];
    if (!Eligible(a, bound, match)) continue;
    if (!best || a.priority > best_priority) {
      best = index;
      best_priority = a.priority;
    }
  }
  return best;
}

/// Times `fn` until at least `min_seconds` of samples accumulate; returns
/// mean ns per call.
double NsPerCall(const std::function<void()>& fn, double min_seconds) {
  fn();  // warm-up
  std::uint64_t iterations = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i) fn();
    const double elapsed = SecondsSince(start);
    if (elapsed >= min_seconds || iterations >= (1ULL << 26)) {
      return elapsed * 1e9 / static_cast<double>(iterations);
    }
    const double target = min_seconds * 1.2;
    const double guess = elapsed > 0.0
                             ? static_cast<double>(iterations) * target / elapsed
                             : static_cast<double>(iterations) * 16.0;
    iterations = std::max(iterations * 2, static_cast<std::uint64_t>(guess));
  }
}

struct QueryRow {
  std::string query;
  int depth = 0;
  double scan_ns = 0.0;
  double indexed_ns = 0.0;
  [[nodiscard]] double Speedup() const {
    return indexed_ns > 0.0 ? scan_ns / indexed_ns : 0.0;
  }
};

/// One end-to-end comparison point: saturated regimes where queues stay
/// deep for most of the run and the per-completion drain dominates.
struct Scenario {
  std::string name;
  sched::ReconfigMode mode;
  int nodes;
  std::vector<int> task_counts;
  Tick max_interval;  // 0 = Table II default [1, 50]
};

struct SweepResult {
  Scenario scenario;
  double scan_seconds = 0.0;
  double indexed_seconds = 0.0;
  bool metrics_identical = false;
  [[nodiscard]] double Speedup() const {
    return indexed_seconds > 0.0 ? scan_seconds / indexed_seconds : 0.0;
  }
};

SweepResult RunEndToEnd(const Scenario& scenario, std::uint64_t seed) {
  SweepResult result;
  result.scenario = scenario;

  SweepParams params;
  params.base.nodes.count = scenario.nodes;
  params.base.seed = seed;
  params.base.enable_monitoring = false;
  if (scenario.max_interval > 0) {
    params.base.tasks.max_interval = scenario.max_interval;
  }
  params.task_counts = scenario.task_counts;
  params.modes = {scenario.mode};
  params.threads = 1;  // honest wall-clock
  params.base.scheduler_index = true;  // isolate the drain difference

  params.base.drain_index = false;
  auto start = Clock::now();
  const std::vector<MetricsReport> scan_reports = RunSweep(params);
  result.scan_seconds = SecondsSince(start);

  params.base.drain_index = true;
  start = Clock::now();
  const std::vector<MetricsReport> indexed_reports = RunSweep(params);
  result.indexed_seconds = SecondsSince(start);

  result.metrics_identical = scan_reports.size() == indexed_reports.size();
  for (std::size_t i = 0;
       result.metrics_identical && i < scan_reports.size(); ++i) {
    const MetricsReport& a = scan_reports[i];
    const MetricsReport& b = indexed_reports[i];
    result.metrics_identical =
        a.total_scheduler_workload == b.total_scheduler_workload &&
        a.avg_scheduling_steps_per_task == b.avg_scheduling_steps_per_task &&
        a.scheduling_steps_total == b.scheduling_steps_total &&
        a.housekeeping_steps_total == b.housekeeping_steps_total &&
        a.completed_tasks == b.completed_tasks &&
        a.discarded_tasks == b.discarded_tasks &&
        a.suspended_ever == b.suspended_ever &&
        a.total_reconfigurations == b.total_reconfigurations;
  }
  return result;
}

/// Directory of argv[0] (with trailing separator), so the JSON lands next
/// to the executable — build/bench/ under the standard layout — regardless
/// of the caller's working directory.
std::string ExecutableDir(const char* argv0) {
  const std::string path(argv0 != nullptr ? argv0 : "");
  const std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? std::string{} : path.substr(0, slash + 1);
}

[[nodiscard]] bool WriteJson(const std::string& path, bool quick,
                             const std::vector<QueryRow>& rows,
                             const std::vector<SweepResult>& sweeps) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"sus_drain\",\n";
  out << Format("  \"quick\": {},\n", quick ? "true" : "false");
  out << "  \"queries\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const QueryRow& r = rows[i];
    out << Format(
        "    {{\"query\": \"{}\", \"depth\": {}, \"scan_ns\": {}, "
        "\"indexed_ns\": {}, \"speedup\": {}}}{}\n",
        r.query, r.depth, r.scan_ns, r.indexed_ns, r.Speedup(),
        i + 1 < rows.size() ? "," : "");
  }
  out << "  ],\n";
  out << "  \"sweeps\": [\n";
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const SweepResult& s = sweeps[i];
    std::string tasks;
    for (std::size_t t = 0; t < s.scenario.task_counts.size(); ++t) {
      tasks += Format("{}{}", t > 0 ? ", " : "", s.scenario.task_counts[t]);
    }
    out << Format(
        "    {{\"scenario\": \"{}\", \"mode\": \"{}\", \"nodes\": {}, "
        "\"task_counts\": [{}], \"scan_seconds\": {}, \"indexed_seconds\": "
        "{}, \"speedup\": {}, \"metrics_identical\": {}}}{}\n",
        s.scenario.name,
        s.scenario.mode == sched::ReconfigMode::kFull ? "full" : "partial",
        s.scenario.nodes, tasks, s.scan_seconds, s.indexed_seconds,
        s.Speedup(), s.metrics_identical ? "true" : "false",
        i + 1 < sweeps.size() ? "," : "");
  }
  out << "  ]\n";
  out << "}\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Indexed-vs-scan suspension-drain comparison; writes "
      "BENCH_sus_drain.json");
  cli.AddBool("quick", false, "CI smoke grid (1k/10k depths, short sweep)");
  cli.AddString("out", "", "output JSON path (default: next to the binary)");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }
  const bool quick = cli.GetBool("quick");
  Log::SetLevel(LogLevel::kError);
  std::string out_path = cli.GetString("out");
  if (out_path.empty()) {
    out_path = ExecutableDir(argv[0]) + "BENCH_sus_drain.json";
  }

  const std::vector<int> depths = quick ? std::vector<int>{1000, 10000}
                                        : std::vector<int>{1000, 10000, 100000};
  const double min_seconds = quick ? 0.01 : 0.05;
  // The node-side prefilter bound: 150 admits only the sparse small tasks
  // (first hit ~1k deep), 50 admits nothing (the common saturated case —
  // the freed region fits none of the queue).
  const ConfigId target{63};

  std::vector<QueryRow> rows;
  std::cout << Format("{:>26}{:>9}{:>14}{:>14}{:>10}\n", "query", "depth",
                      "scan ns", "indexed ns", "speedup");
  for (const int depth : depths) {
    WorkloadMeter fill_meter;
    // An index serves one drain order: the *_priority rows query a
    // priority-order twin of the FIFO-order indexed queue.
    SuspensionQueue scan_queue;
    SuspensionQueue indexed_queue(0, resource::SusOrder::kFifo);
    SuspensionQueue priority_queue(0, resource::SusOrder::kPriority);
    indexed_queue.SetDrainIndexed(true);
    priority_queue.SetDrainIndexed(true);
    std::vector<SusEntryAttrs> attrs;
    FillQueue(scan_queue, attrs, depth, fill_meter);
    std::vector<SusEntryAttrs> attrs_again;
    FillQueue(indexed_queue, attrs_again, depth, fill_meter);
    attrs_again.clear();
    FillQueue(priority_queue, attrs_again, depth, fill_meter);
    WorkloadMeter scan_meter;
    WorkloadMeter indexed_meter;
    const auto charge_full = [&] {
      // Indexed full-mode drains charge the whole-queue walk in bulk.
      indexed_meter.Add(StepKind::kSchedulingSearch, indexed_queue.size());
    };

    struct NamedPair {
      std::string name;
      std::function<void()> scan;
      std::function<void()> indexed;
    };
    const std::vector<NamedPair> pairs = {
        {"full_exact_match",
         [&] {
           (void)ScanExactMatch(scan_queue, attrs, target, false,
                                scan_meter);
         },
         [&] {
           charge_full();
           (void)indexed_queue.OldestExactMatch(target);
         }},
        {"full_exact_match_priority",
         [&] {
           (void)ScanExactMatch(scan_queue, attrs, target, true,
                                scan_meter);
         },
         [&] {
           charge_full();
           (void)priority_queue.BestPriorityExactMatch(target);
         }},
        {"partial_fifo_first_hit",
         [&] {
           (void)ScanOldestEligible(scan_queue, attrs, 150,
                                    ConfigId::invalid(), scan_meter);
         },
         [&] {
           const auto hit = indexed_queue.OldestEligible(
               FamilyId::invalid(), 150, 0, ConfigId::invalid());
           // The reference walk stops at the hit (or walks the tail dry).
           indexed_meter.Add(StepKind::kSchedulingSearch,
                             hit ? *hit + 1 : indexed_queue.size());
         }},
        {"partial_fifo_none",
         [&] {
           (void)ScanOldestEligible(scan_queue, attrs, 50,
                                    ConfigId::invalid(), scan_meter);
         },
         [&] {
           const auto hit = indexed_queue.OldestEligible(
               FamilyId::invalid(), 50, 0, ConfigId::invalid());
           indexed_meter.Add(StepKind::kSchedulingSearch,
                             hit ? *hit + 1 : indexed_queue.size());
         }},
        {"partial_priority_best",
         [&] {
           (void)ScanBestPriorityEligible(scan_queue, attrs, 150,
                                          ConfigId::invalid(), scan_meter);
         },
         [&] {
           charge_full();
           (void)priority_queue.BestPriorityEligible(FamilyId::invalid(), 150,
                                                     ConfigId::invalid());
         }},
        {"contains_miss",
         [&] {
           (void)scan_queue.Contains(TaskId{9999999}, scan_meter);
         },
         [&] {
           (void)indexed_queue.Contains(TaskId{9999999}, indexed_meter);
         }},
    };
    for (const NamedPair& pair : pairs) {
      QueryRow row;
      row.query = pair.name;
      row.depth = depth;
      row.scan_ns = NsPerCall(pair.scan, min_seconds);
      row.indexed_ns = NsPerCall(pair.indexed, min_seconds);
      std::cout << Format("{:>26}{:>9}{:>14}{:>14}{:>10}\n", row.query,
                          row.depth, Fixed(row.scan_ns, 1),
                          Fixed(row.indexed_ns, 1),
                          Fixed(row.Speedup(), 1) + "x");
      rows.push_back(std::move(row));
    }
  }

  // End-to-end: saturated arrivals keep the queue thousands deep for most
  // of the run, which is exactly where the reference per-completion walk
  // went quadratic. PR 1's bench recorded that at these regimes the drain
  // dominated the host work; with the drain indexed the whole sweep
  // accelerates while every modeled metric stays bit-identical.
  std::vector<Scenario> scenarios;
  if (quick) {
    scenarios.push_back(
        {"saturated-partial", sched::ReconfigMode::kPartial, 200, {5000}, 4});
    scenarios.push_back(
        {"saturated-full", sched::ReconfigMode::kFull, 200, {5000}, 4});
  } else {
    scenarios.push_back(
        {"saturated-partial", sched::ReconfigMode::kPartial, 200, {20000}, 4});
    scenarios.push_back(
        {"saturated-full", sched::ReconfigMode::kFull, 200, {20000}, 4});
    scenarios.push_back(
        {"large-scale", sched::ReconfigMode::kPartial, 2000, {20000}, 2});
  }
  std::cout << "\nend-to-end RunSweep\n";
  std::vector<SweepResult> sweeps;
  bool identical = true;
  for (const Scenario& scenario : scenarios) {
    SweepResult sweep = RunEndToEnd(scenario, 42);
    std::cout << Format(
        "  {:<18}{:<8}{:>6} nodes  scan: {}s  indexed: {}s  speedup: {}x  "
        "metrics identical: {}\n",
        scenario.name,
        scenario.mode == sched::ReconfigMode::kFull ? "full" : "partial",
        scenario.nodes, Fixed(sweep.scan_seconds, 3),
        Fixed(sweep.indexed_seconds, 3), Fixed(sweep.Speedup(), 2),
        sweep.metrics_identical ? "yes" : "NO");
    identical = identical && sweep.metrics_identical;
    sweeps.push_back(std::move(sweep));
  }

  if (!WriteJson(out_path, quick, rows, sweeps)) {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";
  return identical ? 0 : 1;
}
