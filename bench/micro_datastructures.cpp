// Micro-benchmarks (google-benchmark) for the dynamic data structures the
// paper motivates in Sec. IV-B: per-configuration idle/busy lists, the
// suspension queue, the resource-store scheduler queries, and the event
// queue. These quantify the constant factors behind the counted "search
// steps" of Table I. The indexed-vs-scan scheduler queries are timed by
// bench_store_index, at 1k/10k/100k nodes.
#include <benchmark/benchmark.h>

#include "resource/store.hpp"
#include "resource/suspension_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace dreamsim;
using resource::ConfigCatalogue;
using resource::Configuration;
using resource::EntryList;
using resource::EntryRef;
using resource::ResourceStore;
using resource::SuspensionQueue;
using resource::WorkloadMeter;

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

void BM_EntryListAddRemove(benchmark::State& state) {
  const auto size = static_cast<std::uint32_t>(state.range(0));
  EntryList list;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < size; ++i) {
    list.Add(EntryRef{NodeId{i}, 0}, meter);
  }
  for (auto _ : state) {
    list.Add(EntryRef{NodeId{size}, 0}, meter);
    benchmark::DoNotOptimize(list.Remove(EntryRef{NodeId{size}, 0}, meter));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntryListAddRemove)->Range(8, 4096);

void BM_EntryListFindMin(benchmark::State& state) {
  const auto size = static_cast<std::uint32_t>(state.range(0));
  EntryList list;
  WorkloadMeter meter;
  for (std::uint32_t i = 0; i < size; ++i) {
    list.Add(EntryRef{NodeId{(i * 31) % size}, 0}, meter);
  }
  for (auto _ : state) {
    auto best = list.FindMin(
        [](EntryRef e) { return static_cast<long long>(e.node.value()); },
        [](EntryRef) { return true; }, meter,
        resource::StepKind::kSchedulingSearch);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EntryListFindMin)->Range(8, 4096);

void BM_SuspensionQueueScan(benchmark::State& state) {
  // A literal-walk partial drain that finds no candidate: it visits every
  // queued entry.
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Rng rng(3);
  ResourceStore store(MakeCatalogue(1, rng));
  const NodeId node = store.AddNode(50);
  SuspensionQueue queue;
  WorkloadMeter meter;
  resource::SusEntryAttrs attrs;
  attrs.needed_area = 1000;
  for (std::uint32_t i = 0; i < size; ++i) {
    (void)queue.Add(TaskId{i}, attrs, meter);
  }
  for (auto _ : state) {
    queue.DrainPartial(store, node, ConfigId::invalid(), 0, meter,
                       [](SuspensionQueue::Seq) {});
    benchmark::DoNotOptimize(meter.scheduling_steps_total());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SuspensionQueueScan)->Range(64, 65536);

void BM_StoreFindBestIdleEntry(benchmark::State& state) {
  const auto nodes = static_cast<int>(state.range(0));
  Rng rng(1);
  ResourceStore store(MakeCatalogue(50, rng));
  for (int i = 0; i < nodes; ++i) {
    (void)store.AddNode(rng.uniform_int(1000, 4000));
  }
  // Configure config 0 onto every node that fits it.
  const Area needed = store.configs().Get(ConfigId{0}).required_area;
  for (const resource::Node& n : store.nodes()) {
    if (n.available_area() >= needed) {
      (void)store.Configure(n.id(), ConfigId{0});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.FindBestIdleEntry(ConfigId{0}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StoreFindBestIdleEntry)->Range(16, 1024);

void BM_StoreFindAnyIdleNode(benchmark::State& state) {
  const auto nodes = static_cast<int>(state.range(0));
  Rng rng(2);
  ResourceStore store(MakeCatalogue(50, rng));
  for (int i = 0; i < nodes; ++i) {
    const NodeId id = store.AddNode(rng.uniform_int(1000, 4000));
    // Pack nodes with small configurations, leave entries idle.
    while (store.node(id).available_area() >= 500) {
      const auto cfg = ConfigId{static_cast<std::uint32_t>(
          rng.uniform_int(0, 49))};
      if (store.configs().Get(cfg).required_area <=
          store.node(id).available_area()) {
        (void)store.Configure(id, cfg);
      } else {
        break;
      }
    }
  }
  for (auto _ : state) {
    // Ask for more area than any single node's spare: forces the scan.
    benchmark::DoNotOptimize(store.FindAnyIdleNode(3900));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StoreFindAnyIdleNode)->Range(16, 1024);

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  sim::EventQueue queue;
  Rng rng(3);
  const auto random_event = [&rng] {
    return sim::Event{sim::EventKind::kCompletion,
                      static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20)),
                      0};
  };
  for (int i = 0; i < depth; ++i) {
    (void)queue.Push(rng.uniform_int(0, 1 << 20),
                     sim::EventPriority::kCompletion, random_event());
  }
  for (auto _ : state) {
    (void)queue.Push(rng.uniform_int(0, 1 << 20),
                     sim::EventPriority::kCompletion, random_event());
    auto popped = queue.Pop();
    benchmark::DoNotOptimize(popped.tick);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Range(64, 65536);

// The simulator's shape: a long time-ordered arrival stream on the cursor
// merged with a shallow heap of completions, each popped arrival scheduling
// one completion a random span later. range(0) is the heap depth.
void BM_EventQueueCursorMerge(benchmark::State& state) {
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
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  const auto push_completion = [&](Tick now) {
    (void)queue.Push(now + rng.uniform_int(1, 4 * static_cast<int>(depth)),
                     sim::EventPriority::kCompletion,
                     sim::Event{sim::EventKind::kCompletion, 0, 0});
  };
  const auto refill = [&] {
    queue.Clear();
    (void)queue.PushArrivals(
        sim::TickView::Of(arrivals.data(), arrivals.size(), &Arrival::at), 0);
    for (std::size_t i = 0; i < depth; ++i) push_completion(0);
  };
  refill();
  for (auto _ : state) {
    if (queue.cursor_free()) {
      state.PauseTiming();
      refill();
      state.ResumeTiming();
    }
    const sim::FiredEvent fired = queue.Pop();
    if (fired.event.kind == sim::EventKind::kArrival) {
      push_completion(fired.tick);
    }
    benchmark::DoNotOptimize(fired.tick);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCursorMerge)->Range(64, 16384);

void BM_RngCore(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.rand_int32());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngCore);

void BM_RngNormalZiggurat(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNormalZiggurat);

void BM_RngGamma(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.gamma(2.5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngGamma);

void BM_RngPoisson(benchmark::State& state) {
  Rng rng(7);
  const double lambda = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.poisson(lambda));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngPoisson)->Arg(4)->Arg(40)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
