// Indexed-vs-scan comparison for the suspension-queue completion drains
// (DESIGN.md §9.1), emitted as machine-readable JSON so the perf
// trajectory can be tracked across commits.
//
// One row per drain shape at queue depths 1k/10k/100k: ns per
// SuspensionQueue drain call with the drain index off (the literal walk,
// what a scan-mode Simulator runs) and on (the index answer plus its
// analytic step charge), on identical populations beside one blank node
// whose area sets the drain's bound. Every attempt leaves its entry
// queued, so a call makes at most one attempt and the queue keeps its
// content from call to call. End-to-end time and metric identity with the
// index off are bench_ladder's.
//
// Output: BENCH_sus_drain.json next to the executable (override with
// --out). --quick shrinks the grid for CI smoke runs. Exit status 1 only
// when the JSON cannot be written.
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_sim.hpp"
#include "resource/store.hpp"
#include "resource/suspension_queue.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace dreamsim;
using namespace dreamsim::bench;
using resource::SusEntryAttrs;
using resource::SuspensionQueue;
using resource::WorkloadMeter;

constexpr std::uint32_t kConfigs = 64;

/// A saturated-regime queue population: kConfigs distinct resolved
/// configs, a single device family (the paper's evaluation), areas mostly
/// too large for a freshly freed region with a sparse sprinkle of small
/// tasks. Deterministic, so every queue sees identical state.
void FillQueue(SuspensionQueue& queue, int depth) {
  Rng rng(11);
  WorkloadMeter meter;
  for (int i = 0; i < depth; ++i) {
    SusEntryAttrs a;
    a.resolved_config = ConfigId{
        static_cast<std::uint32_t>(rng.uniform_int(0, kConfigs - 1))};
    a.needed_area = (i % 997 == 996) ? 100 : rng.uniform_int(1000, 2000);
    a.priority = static_cast<double>(rng.uniform_int(0, 9));
    if (!queue.Add(TaskId{static_cast<std::uint32_t>(i)}, a, meter)) {
      throw std::logic_error("bench queue unexpectedly bounded");
    }
  }
}

/// The catalogue the population resolves to (family-less, so the family
/// check passes everywhere) and two blank nodes: `kFits` bounds a drain
/// at 150, which admits only the sparse small tasks (first hit ~1k deep);
/// `kFitsNone` at 50, which admits nothing (the common saturated case —
/// the freed region fits none of the queue).
resource::ResourceStore MakeFleet() {
  resource::ConfigCatalogue configs;
  for (std::uint32_t c = 0; c < kConfigs; ++c) {
    resource::Configuration cfg;
    cfg.required_area = 100;
    configs.Add(cfg);
  }
  resource::ResourceStore store(std::move(configs));
  (void)store.AddNode(150);
  (void)store.AddNode(50);
  return store;
}
constexpr NodeId kFits{0};
constexpr NodeId kFitsNone{1};

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
  const ConfigId target{kConfigs - 1};
  const resource::ResourceStore store = MakeFleet();
  WorkloadMeter meter;
  const auto keep = [](SuspensionQueue::Seq) {};

  std::vector<QueryRow> rows;
  PrintQueryHeader("depth");
  for (const int depth : depths) {
    // One queue per (order, index mode); an index serves one drain order.
    SuspensionQueue fifo[2] = {SuspensionQueue(0, resource::SusOrder::kFifo),
                               SuspensionQueue(0, resource::SusOrder::kFifo)};
    SuspensionQueue prio[2] = {
        SuspensionQueue(0, resource::SusOrder::kPriority),
        SuspensionQueue(0, resource::SusOrder::kPriority)};
    for (const int indexed : {0, 1}) {
      for (SuspensionQueue* q : {&fifo[indexed], &prio[indexed]}) {
        q->SetDrainIndexed(indexed == 1);
        FillQueue(*q, depth);
      }
    }
    /// Times `drain(queue)` on the scan and the indexed twin of `queues`.
    const auto time_drain =
        [&](const std::string& name, SuspensionQueue (&queues)[2],
            const std::function<void(SuspensionQueue&)>& drain) {
          rows.push_back(TimeQuery(
              name, depth, [&] { drain(queues[0]); },
              [&] { drain(queues[1]); }, min_seconds));
        };
    const auto full = [&](SuspensionQueue& q) {
      q.DrainFull(store, kFits, target, meter, keep);
    };
    const auto partial = [&](NodeId node) {
      return [&, node](SuspensionQueue& q) {
        q.DrainPartial(store, node, ConfigId::invalid(), 8, meter, keep);
      };
    };
    time_drain("full_exact_match", fifo, full);
    time_drain("full_exact_match_priority", prio, full);
    time_drain("partial_fifo_first_hit", fifo, partial(kFits));
    time_drain("partial_fifo_none", fifo, partial(kFitsNone));
    time_drain("partial_priority_best", prio, partial(kFits));
  }

  JsonWriter json;
  json.Field("bench", "sus_drain").Field("quick", args.quick);
  WriteQueries(json, rows, "depth");
  return json.Write(args.out_path) ? 0 : 1;
}
