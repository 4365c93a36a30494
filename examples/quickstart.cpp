// Quickstart: run one DReAMSim simulation with the paper's Table II
// parameters and print the Table I report for both reconfiguration modes.
//
//   ./examples/quickstart [--nodes N] [--tasks N] [--seed S]
#include <exception>
#include <iostream>
#include <limits>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace dreamsim;

  CliParser cli(
      "DReAMSim quickstart: full vs partial reconfiguration on the paper's "
      "Table II parameters.");
  cli.AddInt("nodes", 200, "number of reconfigurable nodes");
  cli.AddInt("configs", 50, "number of processor configurations");
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

  std::vector<core::MetricsReport> reports;
  for (const auto mode :
       {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial}) {
    core::SimulationConfig config;
    config.nodes.count = static_cast<int>(IntInRange(
        cli, "nodes", 0, std::numeric_limits<int>::max()));
    config.configs.count = static_cast<int>(IntInRange(
        cli, "configs", 0, std::numeric_limits<int>::max()));
    config.tasks.total_tasks = static_cast<int>(IntInRange(
        cli, "tasks", 0, std::numeric_limits<int>::max()));
    config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
    config.mode = mode;
    config.label = std::string(sched::ToString(mode));

    core::Simulator simulator(std::move(config));
    reports.push_back(simulator.Run());
    std::cout << core::RenderReportTable(reports.back()) << "\n";
  }

  std::cout << "Side-by-side comparison (Table I metrics):\n"
            << core::RenderComparisonTable(reports);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
