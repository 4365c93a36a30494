// Query table: ns per call of the counted searches the paper's Fig. 3
// lists and suspension queue exist to save (DESIGN.md §9, §9.1), and of
// the event queue under them, emitted as machine-readable JSON so the perf
// trajectory can be tracked across commits.
//
//   store        one row per counted scheduler query at 1k/10k/100k nodes:
//                scan (SetIndexed(false)) vs indexed, on identical
//                populations. FindBestIdleEntry reads the idle list in both
//                modes (it has no index half), so its two columns time the
//                same code.
//   drain        one row per FIFO drain shape at queue depths
//                1k/10k/100k: ns per SuspensionQueue drain call with the
//                drain index off (the literal walk, what a scan-mode
//                Simulator runs; it reads each entry's area from the
//                task's spec) and on (the index answer plus its analytic
//                step charge), on identical populations beside one blank node
//                whose area sets the drain's bound. Every attempt leaves
//                its entry queued, so a call makes at most one attempt and
//                the queue keeps its content from call to call.
//                task_bytes_per_task beside it is what a run holds per
//                task from setup to its end: the growth of the process's
//                peak RSS (VmHWM) over 2^20 tasks submitted to a TaskStore
//                without side columns, as in every Table II run (the spec
//                array the store borrows plus its run-time record).
//                drain_bytes_per_seq is the queue's memory per
//                entry: the growth of the process's peak RSS (VmHWM) over
//                2^20 FIFO-order enqueues with the drain index on, into a
//                queue reserved for them as the Simulator reserves it.
//   event_queue  ns per event of the kernel queue at heap depths
//                1k/10k/100k: a push and a pop on a full heap, and the
//                simulator's arrival-cursor merge. One implementation, so
//                one column.
//
// End-to-end time and metric identity with the indexes off are
// bench_ladder's.
//
// Output: BENCH_queries.json next to the executable (override with
// --out). --quick shrinks the grid for CI smoke runs. Exit status 1 only
// when the JSON cannot be written.
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_sim.hpp"
#include "resource/store.hpp"
#include "resource/suspension_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace dreamsim;
using namespace dreamsim::bench;
using resource::ConfigCatalogue;
using resource::Configuration;
using resource::EntryRef;
using resource::HostRank;
using resource::ResourceStore;
using resource::SuspensionQueue;
using resource::TaskSpec;
using resource::TaskStore;
using resource::WorkloadMeter;

// --- store -------------------------------------------------------------------

ConfigCatalogue MakeCatalogue(int count, Rng& rng) {
  ConfigCatalogue c;
  for (int i = 0; i < count; ++i) {
    Configuration cfg;
    cfg.required_area = rng.uniform_int(200, 2000);
    cfg.config_time = rng.uniform_int(10, 20);
    c.Add(cfg);
  }
  return c;
}

/// A mixed population: ~20% blank nodes, the rest with 1-3 entries, about
/// half of them busy.
/// Deterministic, so the scan and indexed stores see identical state.
ResourceStore MakeQueryStore(int nodes, bool indexed) {
  Rng rng(8);
  ResourceStore store(MakeCatalogue(50, rng));
  store.SetIndexed(indexed);
  for (int i = 0; i < nodes; ++i) {
    (void)store.AddNode(rng.uniform_int(1000, 4000));
  }
  std::uint32_t next_task = 0;
  for (int i = 0; i < nodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    if (rng.uniform_int(0, 9) < 2) continue;  // stays blank
    const std::int64_t entries = rng.uniform_int(1, 3);
    for (std::int64_t k = 0; k < entries; ++k) {
      const auto cfg =
          ConfigId{static_cast<std::uint32_t>(rng.uniform_int(0, 49))};
      if (store.configs().Get(cfg).required_area >
          store.node(id).available_area()) {
        continue;
      }
      const EntryRef entry = store.Configure(id, cfg);
      if (rng.uniform_int(0, 1) == 0) {
        store.AssignTask(entry, TaskId{next_task++});
      }
    }
  }
  return store;
}

struct NamedQuery {
  std::string name;
  std::function<void(ResourceStore&)> run;
};

std::vector<NamedQuery> StoreQueries() {
  // Areas > 4000 (the max TotalArea) force the scans' worst case: every
  // node visited, no early exit.
  return {
      {"FindBestBlankNode",
       [](ResourceStore& s) { (void)s.FindBestBlankNode(2500); }},
      {"FindBestPartiallyBlankNode",
       [](ResourceStore& s) { (void)s.FindBestPartiallyBlankNode(1200); }},
      {"FindAnyIdleNode",
       [](ResourceStore& s) { (void)s.FindAnyIdleNode(4100); }},
      {"AnyBusyNodeCouldFit",
       [](ResourceStore& s) { (void)s.AnyBusyNodeCouldFit(4100); }},
      {"FindBestIdleConfiguredNode",
       [](ResourceStore& s) { (void)s.FindBestIdleConfiguredNode(2000); }},
      {"FindRankedHostNode",
       [](ResourceStore& s) {
         (void)s.FindRankedHostNode(1500, HostRank::kBestFit);
       }},
      {"FindBestIdleEntry",
       [](ResourceStore& s) { (void)s.FindBestIdleEntry(ConfigId{0}); }},
  };
}

// --- drain -------------------------------------------------------------------

constexpr std::uint32_t kConfigs = 64;

/// A saturated-regime queue population of `depth` task specs: areas
/// mostly too large for a freshly freed region with a sparse sprinkle of
/// small tasks. Deterministic, so every queue sees identical state. A
/// TaskStore borrows the array, which must outlive it.
std::vector<TaskSpec> MakePopulation(int depth) {
  Rng rng(11);
  std::vector<TaskSpec> specs(static_cast<std::size_t>(depth));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].required_time = 10;
    specs[i].needed_area =
        (i % 997 == 996) ? 100 : rng.uniform_int(1000, 2000);
  }
  return specs;
}

/// Queues task i of the population, resolved to one of kConfigs distinct
/// configs, for every i below `depth`.
void FillQueue(SuspensionQueue& queue, int depth) {
  Rng rng(13);
  WorkloadMeter meter;
  for (int i = 0; i < depth; ++i) {
    const ConfigId config{
        static_cast<std::uint32_t>(rng.uniform_int(0, kConfigs - 1))};
    if (!queue.Add(TaskId{static_cast<std::uint32_t>(i)}, config, meter)) {
      throw std::logic_error("bench queue unexpectedly bounded");
    }
  }
}

/// The catalogue the population resolves to (family-less, so the family
/// check passes everywhere) and two blank nodes: `kFits` bounds a drain
/// at 150, which admits only the sparse small tasks (first hit ~1k deep);
/// `kFitsNone` at 50, which admits nothing (the common saturated case —
/// the freed region fits none of the queue).
ResourceStore MakeDrainFleet() {
  ConfigCatalogue configs;
  for (std::uint32_t c = 0; c < kConfigs; ++c) {
    Configuration cfg;
    cfg.required_area = 100;
    configs.Add(cfg);
  }
  ResourceStore store(std::move(configs));
  (void)store.AddNode(150);
  (void)store.AddNode(50);
  return store;
}
constexpr NodeId kFits{0};
constexpr NodeId kFitsNone{1};

void TimeDrains(int depth, double min_seconds, std::vector<QueryRow>& rows) {
  const ConfigId target{kConfigs - 1};
  const ResourceStore store = MakeDrainFleet();
  const std::vector<TaskSpec> specs = MakePopulation(depth);
  TaskStore tasks;
  tasks.Submit(specs);
  WorkloadMeter meter;
  const auto keep = [](SuspensionQueue::Seq) {};
  // One FIFO-order queue per index mode (a priority-order queue has no
  // index, so it has no row).
  SuspensionQueue fifo[2] = {SuspensionQueue(tasks, store.configs()),
                             SuspensionQueue(tasks, store.configs())};
  for (const int indexed : {0, 1}) {
    fifo[indexed].SetDrainIndexed(indexed == 1);
    FillQueue(fifo[indexed], depth);
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
  time_drain("partial_fifo_first_hit", fifo, partial(kFits));
  time_drain("partial_fifo_none", fifo, partial(kFitsNone));
}

/// The process's peak resident set (VmHWM in /proc/self/status), in
/// bytes; 0 when it cannot be read.
std::size_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::size_t kib = 0;
      status >> kib;
      return kib * 1024;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

/// A run's bytes per task: the VmHWM growth over 2^20 tasks submitted to
/// a TaskStore reserved for them, as the Simulator reserves it, with no
/// side columns: the spec array the store borrows in place plus its
/// run-time record per task. Run it before anything else raises the peak
/// above the current RSS.
double TaskBytesPerTask() {
  constexpr std::size_t kTasks = std::size_t{1} << 20;
  const std::size_t before = PeakRssBytes();
  std::vector<TaskSpec> specs(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    specs[i].create_time = static_cast<Tick>(i);
    specs[i].required_time = 10;
    specs[i].needed_area = 1000;
  }
  TaskStore tasks;
  tasks.Reserve(kTasks);
  tasks.Submit(specs);
  const std::size_t after = PeakRssBytes();
  return static_cast<double>(after - before) / kTasks;
}

/// The suspension queue's bytes per seq: the VmHWM growth over 2^20
/// FIFO-order enqueues with the drain index on. The specs are built
/// first, so only the queue's own arrays grow the peak; run it before
/// anything else raises the peak above the current RSS, except
/// TaskBytesPerTask(), whose peak the specs built here pass.
double QueueBytesPerSeq() {
  constexpr int kSeqs = 1 << 20;
  const ResourceStore store = MakeDrainFleet();
  const std::vector<TaskSpec> specs = MakePopulation(kSeqs);
  TaskStore tasks;
  tasks.Submit(specs);
  const std::size_t before = PeakRssBytes();
  SuspensionQueue queue(tasks, store.configs());
  queue.SetDrainIndexed(true);
  queue.Reserve(kSeqs);
  FillQueue(queue, kSeqs);
  const std::size_t after = PeakRssBytes();
  return static_cast<double>(after - before) / kSeqs;
}

// --- event queue -------------------------------------------------------------

struct EventQueueRow {
  std::string op;
  int depth = 0;  // completions on the heap
  double ns = 0.0;
};

EventQueueRow TimeEventOp(std::string op, int depth,
                          const std::function<void()>& fn,
                          double min_seconds) {
  EventQueueRow row{std::move(op), depth, NsPerCall(fn, min_seconds)};
  std::cout << std::setw(28) << row.op << std::setw(9) << row.depth
            << std::setw(14) << Fixed(row.ns, 1) << "\n";
  return row;
}

sim::Event Completion(std::uint32_t task) {
  return sim::Event{sim::EventKind::kCompletion, task, 0};
}

/// One push and one pop on a heap of `depth` random-tick completions.
EventQueueRow TimePushPop(int depth, double min_seconds) {
  sim::EventQueue queue;
  Rng rng(3);
  const auto push = [&] {
    (void)queue.Push(rng.uniform_int(0, 1 << 20),
                     sim::EventPriority::kCompletion,
                     Completion(static_cast<std::uint32_t>(
                         rng.uniform_int(0, 1 << 20))));
  };
  for (int i = 0; i < depth; ++i) push();
  return TimeEventOp(
      "push_pop", depth,
      [&] {
        push();
        (void)queue.Pop();
      },
      min_seconds);
}

/// The simulator's shape: a long time-ordered arrival stream on the cursor
/// merged with a heap of about `depth` completions, each popped arrival
/// scheduling one completion a random span later. One call pops one event;
/// the refill when the stream runs out (once per ~2M pops) stays inside
/// the timer.
EventQueueRow TimeCursorMerge(int depth, double min_seconds) {
  struct Arrival {
    Tick at = 0;
  };
  constexpr std::size_t kArrivals = 1 << 20;
  std::vector<Arrival> arrivals(kArrivals);
  Rng rng(5);
  Tick at = 0;
  for (Arrival& a : arrivals) {
    at += rng.uniform_int(0, 4);
    a.at = at;
  }
  sim::EventQueue queue;
  const auto push_completion = [&](Tick now) {
    (void)queue.Push(now + rng.uniform_int(1, 4 * depth),
                     sim::EventPriority::kCompletion, Completion(0));
  };
  const auto refill = [&] {
    queue.Clear();
    (void)queue.PushArrivals(
        sim::TickView::Of(arrivals.data(), arrivals.size(), &Arrival::at), 0);
    for (int i = 0; i < depth; ++i) push_completion(0);
  };
  refill();
  return TimeEventOp(
      "cursor_merge", depth,
      [&] {
        if (queue.cursor_free()) refill();
        const sim::FiredEvent fired = queue.Pop();
        if (fired.event.kind == sim::EventKind::kArrival) {
          push_completion(fired.tick);
        }
      },
      min_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Scan-vs-indexed store and drain queries and event-queue ops; writes "
      "BENCH_queries.json");
  const BenchArgs args = ParseBenchArgs(
      cli, "CI smoke grid (1k/10k nodes and depths)", argc, argv,
      "BENCH_queries.json");

  const std::vector<int> sizes = args.quick
                                     ? std::vector<int>{1000, 10000}
                                     : std::vector<int>{1000, 10000, 100000};
  const double min_seconds = args.quick ? 0.01 : 0.05;
  // First, while the peak RSS is still the current one.
  const double bytes_per_task = TaskBytesPerTask();
  const double bytes_per_seq = QueueBytesPerSeq();

  std::vector<QueryRow> store_rows;
  PrintQueryHeader("nodes");
  for (const int nodes : sizes) {
    ResourceStore scan_store = MakeQueryStore(nodes, false);
    ResourceStore indexed_store = MakeQueryStore(nodes, true);
    for (const NamedQuery& q : StoreQueries()) {
      store_rows.push_back(TimeQuery(
          q.name, nodes, [&] { q.run(scan_store); },
          [&] { q.run(indexed_store); }, min_seconds));
    }
  }

  std::vector<QueryRow> drain_rows;
  std::cout << "\n";
  PrintQueryHeader("depth");
  for (const int depth : sizes) TimeDrains(depth, min_seconds, drain_rows);
  std::cout << "task store: " << Fixed(bytes_per_task, 2)
            << " bytes per task (spec and run-time record)\n";
  std::cout << "suspension queue: " << Fixed(bytes_per_seq, 2)
            << " bytes per FIFO-order seq (drain index on)\n";

  std::vector<EventQueueRow> event_rows;
  std::cout << "\n"
            << std::setw(28) << "event queue op" << std::setw(9) << "depth"
            << std::setw(14) << "ns" << "\n";
  for (const int depth : sizes) {
    event_rows.push_back(TimePushPop(depth, min_seconds));
    event_rows.push_back(TimeCursorMerge(depth, min_seconds));
  }

  JsonWriter json;
  json.Field("bench", "queries")
      .Field("quick", args.quick)
      .Field("hardware_threads", std::thread::hardware_concurrency());
  WriteQueries(json, "store", store_rows, "nodes");
  json.Field("task_bytes_per_task", bytes_per_task);
  json.Field("drain_bytes_per_seq", bytes_per_seq);
  WriteQueries(json, "drain", drain_rows, "depth");
  json.BeginArray("event_queue");
  for (const EventQueueRow& r : event_rows) {
    json.Element(
        JsonRow().Add("op", r.op).Add("depth", r.depth).Add("ns", r.ns));
  }
  json.End();
  return json.Write(args.out_path) ? 0 : 1;
}
