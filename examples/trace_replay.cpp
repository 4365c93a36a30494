// Trace workflow example ("real workloads", Sec. III / future work):
//
//   1. generate a synthetic workload and save it as a trace file,
//   2. reload the trace,
//   3. replay it through the simulator under both reconfiguration modes.
//
// The same trace file can come from any external source that follows the
// documented CSV format (see src/workload/trace.hpp).
//
//   ./examples/trace_replay [--trace PATH] [--tasks N] [--nodes N]
#include <exception>
#include <iostream>
#include <limits>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "util/cli.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) try {
  using namespace dreamsim;

  CliParser cli(
      "Round-trip a workload through the trace format and replay it under "
      "both reconfiguration modes.");
  cli.AddString("trace", "/tmp/dreamsim_example_trace.csv",
                "trace file to write and replay");
  cli.AddString("input", "",
                "replay an existing trace instead of generating one");
  cli.AddInt("tasks", 3000, "tasks to generate when no --input is given");
  cli.AddInt("nodes", 100, "number of reconfigurable nodes");
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
  base.tasks.total_tasks = static_cast<int>(IntInRange(
      cli, "tasks", 0, std::numeric_limits<int>::max()));
  base.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));

  // Obtain the workload: load an external trace, or generate + save one.
  workload::Workload workload;
  const std::string input = cli.GetString("input");
  if (!input.empty()) {
    workload = workload::ReadTraceFile(input);
    std::cout << "loaded " << workload.size() << " tasks from " << input
              << "\n";
  } else {
    // Build the catalogue exactly as the simulator will (same sub-seed),
    // so the trace's configuration ids resolve identically on replay.
    Rng workload_rng(DeriveSeed(base.seed, 1));
    Rng catalogue_rng(DeriveSeed(base.seed, 2));
    const auto catalogue = resource::ConfigCatalogue::Generate(
        base.configs, ptype::Catalogue::Default(), catalogue_rng);
    workload = workload::GenerateWorkload(base.tasks, catalogue, workload_rng);
    const std::string path = cli.GetString("trace");
    workload::WriteTraceFile(path, workload);
    std::cout << "generated " << workload.size() << " tasks -> " << path
              << "\n";
    workload = workload::ReadTraceFile(path);  // prove the round trip
  }

  std::vector<core::MetricsReport> reports;
  for (const auto mode :
       {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial}) {
    core::SimulationConfig config = base;
    config.mode = mode;
    config.label = std::string(sched::ToString(mode)) + "@trace";
    core::Simulator simulator(std::move(config));
    reports.push_back(simulator.RunWithWorkload(workload));
  }

  std::cout << "\n=== Trace replay, Table I comparison ===\n"
            << core::RenderComparisonTable(reports);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
