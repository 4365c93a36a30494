// Table I reproduction: one full-vs-partial run at the paper's default
// parameters, printing every Table I metric side by side; --csv PATH also
// writes both reports as CSV (no file by default).
//
//   ./bench/table1_metrics [--nodes N] [--tasks N] [--seed S] [--csv PATH]
#include <fstream>
#include <iostream>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace dreamsim;

  CliParser cli("Table I: all DReAMSim performance metrics, full vs partial.");
  cli.AddInt("nodes", 200, "number of reconfigurable nodes");
  cli.AddInt("tasks", 10000, "number of generated tasks");
  cli.AddInt("seed", 42, "random seed");
  cli.AddString("csv", "", "output CSV path (empty = none)");
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
    config.nodes.count = static_cast<int>(cli.GetInt("nodes"));
    config.tasks.total_tasks = static_cast<int>(cli.GetInt("tasks"));
    config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
    config.mode = mode;
    config.label = std::string(sched::ToString(mode));
    core::Simulator simulator(std::move(config));
    reports.push_back(simulator.Run());
  }

  std::cout << "=== Table I: DReAMSim performance metrics ===\n"
            << core::RenderComparisonTable(reports);

  const std::string csv_path = cli.GetString("csv");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    core::WriteCsvReports(out, reports);
    std::cout << "\nwrote " << csv_path << "\n";
  }
  return 0;
}
