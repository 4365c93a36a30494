// Ablation: contiguous-placement fabric model (extension; DESIGN.md §6).
//
// The paper's Eq. 4 treats node area as a scalar. Real partial
// reconfiguration places bitstreams in contiguous regions, so external
// fragmentation can reject a configuration the scalar model would accept.
// This bench quantifies the gap: scalar vs contiguous (under each placement
// heuristic), on the identical workload.
#include <exception>
#include <iostream>
#include <limits>

#include "core/simulator.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

namespace {

void Report(const char* label, const dreamsim::core::MetricsReport& r,
            double mean_frag) {
  std::cout << dreamsim::Format(
      "{:<22}{:>12}{:>12}{:>16}{:>16}{:>12}\n", label, r.completed_tasks,
      r.discarded_tasks, dreamsim::Format("{}", r.avg_waiting_time_per_task),
      dreamsim::Format("{}", r.avg_reconfig_count_per_node),
      dreamsim::Format("{}", mean_frag));
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace dreamsim;

  CliParser cli(
      "Fragmentation ablation: scalar Eq. 4 area model vs contiguous "
      "placement (first/best/worst-fit).");
  cli.AddInt("nodes", 100, "number of reconfigurable nodes");
  cli.AddInt("tasks", 4000, "number of generated tasks");
  cli.AddInt("seed", 42, "random seed");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }

  std::cout << "=== Fragmentation ablation (partial reconfiguration) ===\n";
  std::cout << Format("{:<22}{:>12}{:>12}{:>16}{:>16}{:>12}\n", "fabric model",
                      "completed", "discarded", "avg_wait", "reconf/node",
                      "end_frag");

  const auto run = [&](bool contiguous, resource::Placement placement,
                       const char* label) {
    core::SimulationConfig config;
    config.nodes.count = static_cast<int>(IntInRange(
        cli, "nodes", 0, std::numeric_limits<int>::max()));
    config.nodes.contiguous_placement = contiguous;
    config.nodes.placement = placement;
    config.tasks.total_tasks = static_cast<int>(IntInRange(
        cli, "tasks", 0, std::numeric_limits<int>::max()));
    config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
    config.enable_monitoring = false;
    core::Simulator simulator(std::move(config));
    const core::MetricsReport report = simulator.Run();
    Report(label, report, simulator.store().Fragmentation().mean);
  };

  run(false, resource::Placement::kFirstFit, "scalar (paper)");
  run(true, resource::Placement::kFirstFit, "contiguous/first-fit");
  run(true, resource::Placement::kBestFit, "contiguous/best-fit");
  run(true, resource::Placement::kWorstFit, "contiguous/worst-fit");

  std::cout << "\nend_frag = mean external-fragmentation index over nodes at "
               "end of run.\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
