// Ablation: the paper leaves Eq. 7's sampling instants unstated (DESIGN.md
// §4). This bench runs the identical workload under every WasteAccounting
// policy, in both reconfiguration modes, so the reader can see which
// accountings preserve the Fig. 6 ordering and why the default is the
// literal Eq. 6-at-arrival sampling.
#include <exception>
#include <iostream>
#include <limits>

#include "core/simulator.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

int main(int argc, char** argv) try {
  using namespace dreamsim;

  CliParser cli("Waste-accounting ablation for Eq. 6/7 (see DESIGN.md §4).");
  cli.AddInt("nodes", 200, "number of reconfigurable nodes");
  cli.AddInt("tasks", 5000, "number of generated tasks");
  cli.AddInt("seed", 42, "random seed");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }

  std::cout << "=== Waste-accounting ablation (avg wasted area per task) ===\n";
  std::cout << Format("{:<18}{:>16}{:>16}{:>12}\n", "accounting", "full",
                      "partial", "ordering");
  for (const auto accounting :
       {core::WasteAccounting::kOnSchedule,
        core::WasteAccounting::kTimeWeighted,
        core::WasteAccounting::kIdleConfigured,
        core::WasteAccounting::kOnConfigure}) {
    double waste[2];
    int i = 0;
    for (const auto mode :
         {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial}) {
      core::SimulationConfig config;
      config.nodes.count = static_cast<int>(IntInRange(
          cli, "nodes", 0, std::numeric_limits<int>::max()));
      config.tasks.total_tasks = static_cast<int>(IntInRange(
          cli, "tasks", 0, std::numeric_limits<int>::max()));
      config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
      config.mode = mode;
      config.waste_accounting = accounting;
      config.enable_monitoring = false;
      core::Simulator simulator(std::move(config));
      waste[i++] = simulator.Run().avg_wasted_area_per_task;
    }
    std::cout << Format("{:<18}{:>16}{:>16}{:>12}\n",
                        core::ToString(accounting), Format("{}", waste[0]),
                        Format("{}", waste[1]),
                        waste[1] < waste[0]   ? "partial<full"
                        : waste[1] > waste[0] ? "INVERTED"
                                              : "equal");
  }
  std::cout << "\nThe paper's Fig. 6 ordering (partial < full) holds for the\n"
               "sampling policies; on-configure inverts it because the full\n"
               "scenario configures rarely (Fig. 7) under the queue-reuse "
               "drain.\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
