// The paper's headline experiment as a standalone application: one
// simulation per reconfiguration mode on identical parameters (Table II),
// with the full Table I comparison, placement-phase breakdown, utilization
// summary, and an XML report per run — everything Sec. VI discusses, from
// one binary.
//
//   ./examples/partial_vs_full [--nodes N] [--tasks N] [--seed S]
//                              [--xml-prefix PATH]
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

namespace {

void PrintPlacementBreakdown(const dreamsim::core::MetricsReport& r) {
  using dreamsim::Format;
  static constexpr const char* kKinds[] = {
      "allocation", "configuration", "partial-configuration",
      "partial-reconfiguration", "full-reconfiguration"};
  std::cout << Format("  placement phases ({}):\n", r.label);
  for (int i = 0; i < 5; ++i) {
    if (r.placements_by_kind[i] == 0) continue;
    std::cout << Format("    {:<26}{}\n", kKinds[i], r.placements_by_kind[i]);
  }
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace dreamsim;

  CliParser cli(
      "Full vs partial reconfiguration on the paper's Table II parameters, "
      "with placement and utilization breakdowns.");
  cli.AddInt("nodes", 200, "number of reconfigurable nodes");
  cli.AddInt("configs", 50, "number of processor configurations");
  cli.AddInt("tasks", 10000, "number of generated tasks");
  cli.AddInt("seed", 42, "random seed (shared across both modes)");
  cli.AddString("xml-prefix", "",
                "write <prefix>-full.xml / <prefix>-partial.xml reports");
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

    const rms::UtilizationReport& u = simulator.utilization();
    std::cout << Format(
        "[{}] avg running tasks {:<10} avg busy nodes {:<10} peak queue {}\n",
        reports.back().label, Format("{}", u.avg_running_tasks),
        Format("{}", u.avg_busy_nodes), u.peak_suspended_tasks);
    PrintPlacementBreakdown(reports.back());

    const std::string prefix = cli.GetString("xml-prefix");
    if (!prefix.empty()) {
      const std::string path =
          Format("{}-{}.xml", prefix, sched::ToString(mode));
      std::ofstream out(path);
      core::WriteXmlReport(out, reports.back());
      std::cout << "  wrote " << path << "\n";
    }
  }

  std::cout << "\n=== Table I comparison ===\n"
            << core::RenderComparisonTable(reports);

  const auto& full = reports[0];
  const auto& partial = reports[1];
  std::cout << Format(
      "\nPartial reconfiguration wastes {}x less area per task and waits "
      "{}x less,\nat the cost of {}x more reconfigurations per node.\n",
      Format("{}", full.avg_wasted_area_per_task /
                       std::max(1.0, partial.avg_wasted_area_per_task)),
      Format("{}", full.avg_waiting_time_per_task /
                       std::max(1.0, partial.avg_waiting_time_per_task)),
      Format("{}", partial.avg_reconfig_count_per_node /
                       std::max(1e-9, full.avg_reconfig_count_per_node)));
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
