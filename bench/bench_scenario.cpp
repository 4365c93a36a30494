// Scenario-pipeline throughput smoke, emitted as machine-readable JSON so
// the perf trajectory can be tracked across commits.
//
// The scenario path runs before every simulation the daemon or sweep
// launches, so its three stages are gated on throughput floors: parsing a
// multi-class scenario text, the canonical re-serialization + FNV hash
// (the sweep/daemon cache key), and merged multi-class workload generation.
// The floors are deliberately loose — they catch an accidental
// quadratic-blowup or per-line allocation storm, not machine variance —
// and, like bench_overhead's hook gates, absolute throughput is only gated
// in optimized builds.
//
// Output: BENCH_scenario.json next to the executable (override with
// --out). --quick shrinks the iteration counts for CI smoke runs.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_sim.hpp"
#include "resource/config.hpp"
#include "scenario/scenario.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"
#include "workload/task_classes.hpp"

namespace {

using namespace dreamsim;
using namespace dreamsim::bench;

/// A representative multi-class scenario: three device families, three
/// arrival shapes, chains, and per-class seeds — every grammar feature the
/// parser pays for.
constexpr std::string_view kScenarioText = R"(# bench_scenario input
simulation: {
  name: bench-scenario
  seed: 42
  mode: partial
}
configurations: {
  count: 50
  area: [200, 2000]
  config time: [10, 20]
}
device class: {
  name: big
  count: 120
  area: [2000, 4000]
}
device class: {
  name: little
  count: 80
  area: [1000, 2000]
}
task class: {
  name: steady
  count: 400
  interval: [1, 50]
  required time: [100, 20000]
}
task class: {
  name: bursty-web
  count: 300
  arrivals: bursty
  burst size: [4, 12]
  burst gap: [200, 800]
  interval: [1, 5]
  graph fraction: 0.3
  chain length: [2, 4]
  seed: 7
}
task class: {
  name: maintenance
  arrivals: windowed
  start time: 5000
  end time: 50000
  interval: [10, 40]
  priority: [1, 9]
}
)";

/// Best (highest) ops/sec across rounds: noise only ever slows a round
/// down, so the fastest round is the closest estimate of the true rate.
double BestRate(const std::vector<double>& rates) {
  return *std::max_element(rates.begin(), rates.end());
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Scenario-pipeline throughput smoke; writes "
                "BENCH_scenario.json");
  const BenchArgs args = ParseBenchArgs(
      cli, "CI smoke workload (fewer iterations)", argc, argv,
      "BENCH_scenario.json");
  const bool quick = args.quick;

  const int parse_iters = quick ? 200 : 2000;
  const int canon_iters = quick ? 500 : 5000;
  const int gen_iters = quick ? 20 : 100;
  const int rounds = quick ? 3 : 5;
  // Floors (ops/sec, gated in optimized builds only): a healthy build
  // clears them by well over an order of magnitude.
  constexpr double kParseFloor = 500.0;
  constexpr double kCanonFloor = 1000.0;
  constexpr double kGenTaskFloor = 50'000.0;  // generated tasks per second
#ifdef NDEBUG
  constexpr bool kGateRates = true;
#else
  constexpr bool kGateRates = false;
#endif

  const scenario::ParseResult parsed = scenario::ParseScenario(kScenarioText);
  if (!parsed.has_value()) {
    std::cerr << "bench scenario does not parse:\n"
              << scenario::Render(parsed.error()) << "\n";
    return 1;
  }
  const scenario::ScenarioSpec& spec = parsed.value();
  const std::size_t classes = spec.config.task_classes.size();
  if (classes != 3) {
    std::cerr << "expected 3 task classes, got " << classes << "\n";
    return 1;
  }

  // The generation stage needs the configuration catalogue the classes
  // draw preferred configs from (the same one a run would synthesize).
  Rng catalogue_rng(spec.config.seed);
  const resource::ConfigCatalogue catalogue = resource::ConfigCatalogue::
      Generate(spec.config.configs, ptype::Catalogue::Default(),
               catalogue_rng);

  std::vector<double> parse_rates;
  std::vector<double> canon_rates;
  std::vector<double> gen_rates;
  std::size_t tasks_per_gen = 0;
  for (int round = 0; round < rounds; ++round) {
    double start = CpuSeconds();
    std::size_t sink = 0;
    for (int i = 0; i < parse_iters; ++i) {
      sink += scenario::ParseScenario(kScenarioText).value().name.size();
    }
    double seconds = CpuSeconds() - start;
    parse_rates.push_back(static_cast<double>(parse_iters) / seconds);

    start = CpuSeconds();
    for (int i = 0; i < canon_iters; ++i) {
      sink += scenario::ScenarioHash(spec).size();
      sink += scenario::CanonicalScenario(spec).size();
    }
    seconds = CpuSeconds() - start;
    canon_rates.push_back(static_cast<double>(canon_iters) / seconds);

    start = CpuSeconds();
    std::size_t generated = 0;
    for (int i = 0; i < gen_iters; ++i) {
      const workload::MultiClassWorkload wl =
          workload::GenerateMultiClassWorkload(
              spec.config.task_classes, catalogue,
              spec.config.seed + static_cast<std::uint64_t>(i));
      generated += wl.TotalTasks();
    }
    seconds = CpuSeconds() - start;
    gen_rates.push_back(static_cast<double>(generated) / seconds);
    tasks_per_gen = generated / static_cast<std::size_t>(gen_iters);
    if (sink == 0) std::cerr << "";  // keep the stages observable
  }

  const double parse_rate = BestRate(parse_rates);
  const double canon_rate = BestRate(canon_rates);
  const double gen_rate = BestRate(gen_rates);
  const bool within_budget =
      !kGateRates || (parse_rate >= kParseFloor && canon_rate >= kCanonFloor &&
                      gen_rate >= kGenTaskFloor);

  std::cout << Format("scenario pipeline throughput ({} classes, {} tasks "
                      "per generation)\n",
                      classes, tasks_per_gen);
  std::cout << Format("  parse: {} /s (floor {}{})\n", Fixed(parse_rate, 0),
                      Fixed(kParseFloor, 0),
                      kGateRates ? "" : "; unoptimized build, ungated");
  std::cout << Format("  canonicalize + hash: {} /s (floor {})\n",
                      Fixed(canon_rate, 0), Fixed(kCanonFloor, 0));
  std::cout << Format("  multi-class generation: {} tasks/s (floor {})\n",
                      Fixed(gen_rate, 0), Fixed(kGenTaskFloor, 0));

  JsonWriter json;
  json.Field("bench", "scenario")
      .Field("quick", quick)
      .Field("task_classes", classes)
      .Field("tasks_per_generation", tasks_per_gen)
      .Field("parse_per_sec", parse_rate)
      .Field("parse_floor_per_sec", kParseFloor)
      .Field("canonicalize_per_sec", canon_rate)
      .Field("canonicalize_floor_per_sec", kCanonFloor)
      .Field("generation_tasks_per_sec", gen_rate)
      .Field("generation_floor_tasks_per_sec", kGenTaskFloor)
      .Field("gated", kGateRates);
  if (!json.Write(args.out_path)) return 1;
  return within_budget ? 0 : 1;
}
