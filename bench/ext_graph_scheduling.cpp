// Extension bench: task-graph scheduling ("we will implement scheduling
// policies to schedule task graphs"). Sweeps system size for a fixed
// layered pipeline and reports makespan under four regimes: full/partial
// reconfiguration x FIFO/critical-path-first release.
#include <exception>
#include <iostream>
#include <limits>

#include "core/graph_session.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "workload/task_graph.hpp"

int main(int argc, char** argv) try {
  using namespace dreamsim;

  CliParser cli(
      "Task-graph scheduling bench: makespan vs node count, full/partial "
      "reconfiguration x fifo/critical-path-first.");
  cli.AddInt("layers", 10, "pipeline depth");
  cli.AddInt("width", 12, "tasks per layer");
  cli.AddDouble("density", 0.3, "edge probability between adjacent layers");
  cli.AddInt("seed", 42, "random seed");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }

  core::SimulationConfig base;
  base.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
  base.enable_monitoring = false;

  Rng catalogue_rng(DeriveSeed(base.seed, 2));
  const auto catalogue = resource::ConfigCatalogue::Generate(
      base.configs, ptype::Catalogue::Default(), catalogue_rng);
  workload::GraphGenParams params;
  params.layers = static_cast<int>(IntInRange(
      cli, "layers", 0, std::numeric_limits<int>::max()));
  params.width = static_cast<int>(IntInRange(
      cli, "width", 0, std::numeric_limits<int>::max()));
  params.edge_density = cli.GetDouble("density");
  params.task_params.min_required_time = 500;
  params.task_params.max_required_time = 5000;
  Rng graph_rng(DeriveSeed(base.seed, 17));
  const workload::TaskGraph graph =
      workload::GenerateLayeredGraph(params, catalogue, graph_rng);

  std::cout << Format(
      "=== Task-graph scheduling ({} vertices, critical path {}) ===\n",
      graph.size(), graph.CriticalPathLength());
  std::cout << Format("{:>8}{:>16}{:>16}{:>16}{:>16}\n", "nodes", "full/fifo",
                      "full/cp", "partial/fifo", "partial/cp");

  for (const int nodes : {4, 8, 16, 32, 64}) {
    std::string line = Format("{:>8}", nodes);
    for (const auto mode :
         {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial}) {
      for (const auto order :
           {core::GraphOrder::kFifo, core::GraphOrder::kCriticalPathFirst}) {
        core::SimulationConfig config = base;
        config.nodes.count = nodes;
        config.mode = mode;
        const core::GraphRunResult result =
            core::RunGraph(config, graph, order);
        line += Format("{:>16}", result.makespan);
      }
    }
    std::cout << line << "\n";
  }
  std::cout << "\n(makespan in ticks; cp = critical-path-first list "
               "scheduling)\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
