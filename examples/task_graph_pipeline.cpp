// Task-graph scheduling example (the paper's future work, implemented): a
// synthetic radar-processing pipeline — layered DAG of DSP/VLIW stages —
// scheduled onto partially reconfigurable nodes. Reports makespan, the
// critical-path lower bound, and the speedup over one-task-per-node mode.
//
//   ./examples/task_graph_pipeline [--layers N] [--width N] [--nodes N]
#include <exception>
#include <iostream>
#include <limits>

#include "core/graph_session.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

int main(int argc, char** argv) try {
  using namespace dreamsim;

  CliParser cli(
      "Schedule a layered task graph (synthetic radar pipeline) on "
      "reconfigurable nodes; compare full vs partial reconfiguration.");
  cli.AddInt("layers", 8, "pipeline depth (graph layers)");
  cli.AddInt("width", 12, "tasks per layer");
  cli.AddDouble("density", 0.35, "edge probability between adjacent layers");
  cli.AddInt("nodes", 6, "number of reconfigurable nodes");
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
  base.nodes.count = static_cast<int>(IntInRange(
      cli, "nodes", 0, std::numeric_limits<int>::max()));
  base.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));

  // Build the graph against the same catalogue the simulator will generate
  // (same derived sub-seed), so vertex C_prefs resolve identically.
  Rng catalogue_rng(DeriveSeed(base.seed, 2));
  const auto catalogue = resource::ConfigCatalogue::Generate(
      base.configs, ptype::Catalogue::Default(), catalogue_rng);

  workload::GraphGenParams graph_params;
  graph_params.layers = static_cast<int>(IntInRange(
      cli, "layers", 0, std::numeric_limits<int>::max()));
  graph_params.width = static_cast<int>(IntInRange(
      cli, "width", 0, std::numeric_limits<int>::max()));
  graph_params.edge_density = cli.GetDouble("density");
  graph_params.task_params.min_required_time = 500;
  graph_params.task_params.max_required_time = 5000;
  Rng graph_rng(DeriveSeed(base.seed, 17));
  const workload::TaskGraph graph =
      workload::GenerateLayeredGraph(graph_params, catalogue, graph_rng);

  std::cout << Format(
      "pipeline: {} vertices in {} layers, critical path {} stages\n",
      graph.size(), graph_params.layers, graph.CriticalPathLength());

  Tick makespans[2] = {0, 0};
  int i = 0;
  for (const auto mode :
       {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial}) {
    core::SimulationConfig config = base;
    config.mode = mode;
    config.label = std::string(sched::ToString(mode)) + "@graph";
    const core::GraphRunResult result = core::RunGraph(config, graph);
    makespans[i++] = result.makespan;
    std::cout << Format(
        "[{}] makespan {:>8} ticks, {} completed, {} discarded, "
        "avg wait {}\n",
        sched::ToString(mode), result.makespan, result.completed_vertices,
        result.discarded_vertices,
        Format("{}", result.metrics.avg_waiting_time_per_task));
  }

  if (makespans[1] > 0) {
    std::cout << Format(
        "\npartial reconfiguration finishes the pipeline {}x faster\n",
        Format("{}", static_cast<double>(makespans[0]) /
                         static_cast<double>(makespans[1])));
  }

  // Scheduling-discipline comparison (partial mode): FIFO readiness vs
  // HEFT-style critical-path-first list scheduling.
  {
    core::SimulationConfig config = base;
    config.mode = sched::ReconfigMode::kPartial;
    const core::GraphRunResult fifo =
        core::RunGraph(config, graph, core::GraphOrder::kFifo);
    const core::GraphRunResult cp =
        core::RunGraph(config, graph, core::GraphOrder::kCriticalPathFirst);
    std::cout << Format(
        "\nlist scheduling (partial mode): fifo makespan {}, "
        "critical-path-first makespan {} ({}x)\n",
        fifo.makespan, cp.makespan,
        Format("{}", static_cast<double>(fifo.makespan) /
                         static_cast<double>(std::max<Tick>(1, cp.makespan))));
  }
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
