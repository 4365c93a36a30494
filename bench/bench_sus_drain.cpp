// Indexed-vs-scan comparison for the suspension-queue drain queries
// (DESIGN.md "Scheduler index"), emitted as machine-readable JSON so the
// perf trajectory can be tracked across commits.
//
// One row per drain candidate-selection pattern at queue depths
// 1k/10k/100k: ns/query of a literal counted walk of the queue (what the
// reference Simulator::DrainSuspensionQueue does) vs the SusQueueIndex
// answer plus its analytic bulk step charge, on identical populations.
// End-to-end time and metric identity with the index off are
// bench_ladder's.
//
// Output: BENCH_sus_drain.json next to the executable (override with
// --out). --quick shrinks the grid for CI smoke runs. Exit status 1 only
// when the JSON cannot be written.
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_sim.hpp"
#include "resource/suspension_queue.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace dreamsim;
using namespace dreamsim::bench;
using resource::StepKind;
using resource::SusEntryAttrs;
using resource::SuspensionQueue;
using resource::WorkloadMeter;

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

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Indexed-vs-scan suspension-drain comparison; writes "
      "BENCH_sus_drain.json");
  const BenchArgs args =
      ParseBenchArgs(cli, "CI smoke grid (1k/10k depths)", argc,
                     argv, "BENCH_sus_drain.json");

  const std::vector<int> depths = args.quick
                                      ? std::vector<int>{1000, 10000}
                                      : std::vector<int>{1000, 10000, 100000};
  const double min_seconds = args.quick ? 0.01 : 0.05;
  // The node-side prefilter bound: 150 admits only the sparse small tasks
  // (first hit ~1k deep), 50 admits nothing (the common saturated case —
  // the freed region fits none of the queue).
  const ConfigId target{63};

  std::vector<QueryRow> rows;
  PrintQueryHeader("depth");
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
                             hit ? indexed_queue.PositionOf(*hit) + 1
                                 : indexed_queue.size());
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
                             hit ? indexed_queue.PositionOf(*hit) + 1
                                 : indexed_queue.size());
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
      rows.push_back(TimeQuery(pair.name, depth, pair.scan, pair.indexed,
                               min_seconds));
    }
  }

  JsonWriter json;
  json.Field("bench", "sus_drain").Field("quick", args.quick);
  WriteQueries(json, rows, "depth");
  return json.Write(args.out_path) ? 0 : 1;
}
