// Indexed-vs-scan comparison for the resource store's scheduler queries
// (DESIGN.md "Scheduler index"), emitted as machine-readable JSON so the
// perf trajectory can be tracked across commits.
//
// One row per counted scheduler query at 1k/10k/100k nodes: ns/query,
// scan (SetIndexed(false)) vs indexed, on identical populations. End-to-end
// time and metric identity with the index off are bench_ladder's.
//
// Output: BENCH_store_index.json next to the executable (override with
// --out). --quick shrinks the grid for CI smoke runs. Exit status 1 only
// when the JSON cannot be written.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_sim.hpp"
#include "resource/store.hpp"
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

std::vector<NamedQuery> Queries() {
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
  };
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Indexed-vs-scan scheduler query comparison; writes "
      "BENCH_store_index.json");
  const BenchArgs args =
      ParseBenchArgs(cli, "CI smoke grid (1k/10k nodes)", argc,
                     argv, "BENCH_store_index.json");

  const std::vector<int> node_counts =
      args.quick ? std::vector<int>{1000, 10000}
                 : std::vector<int>{1000, 10000, 100000};
  const double min_seconds = args.quick ? 0.01 : 0.05;

  std::vector<QueryRow> rows;
  PrintQueryHeader("nodes");
  for (const int nodes : node_counts) {
    ResourceStore scan_store = MakeQueryStore(nodes, false);
    ResourceStore indexed_store = MakeQueryStore(nodes, true);
    for (const NamedQuery& q : Queries()) {
      rows.push_back(TimeQuery(
          q.name, nodes, [&] { q.run(scan_store); },
          [&] { q.run(indexed_store); }, min_seconds));
    }
  }

  JsonWriter json;
  json.Field("bench", "store_index").Field("quick", args.quick);
  WriteQueries(json, rows, "nodes");
  return json.Write(args.out_path) ? 0 : 1;
}
