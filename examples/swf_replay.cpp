// Real-workload replay via the Standard Workload Format (SWF), the format
// of the Parallel Workloads Archive. With --input pointing at a real
// archive trace, its jobs replay through the reconfigurable system; without
// one, a demo SWF file is fabricated first so the example is runnable
// offline.
//
//   ./examples/swf_replay [--input trace.swf] [--nodes N]
//                         [--ticks-per-second R] [--area-per-proc A]
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "workload/swf.hpp"

namespace {

/// Fabricates a bursty SWF trace reminiscent of cluster logs: waves of
/// small interactive jobs plus occasional wide long-running ones.
std::vector<dreamsim::workload::SwfJob> FabricateDemoTrace(int count,
                                                           std::uint64_t seed) {
  dreamsim::Rng rng(seed);
  std::vector<dreamsim::workload::SwfJob> jobs;
  std::int64_t clock = 0;
  for (int i = 0; i < count; ++i) {
    clock += rng.uniform_int(1, 40);
    dreamsim::workload::SwfJob job;
    job.job_id = i + 1;
    job.submit_time = clock;
    if (rng.uniform() < 0.85) {
      job.run_time = rng.uniform_int(60, 1200);        // interactive-ish
      job.requested_procs = rng.uniform_int(1, 4);
    } else {
      job.run_time = rng.uniform_int(3600, 14400);     // wide batch job
      job.requested_procs = rng.uniform_int(8, 16);
    }
    job.allocated_procs = job.requested_procs;
    job.used_memory_kb = 512 * job.requested_procs;
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace dreamsim;

  CliParser cli(
      "Replay a Standard Workload Format trace (Parallel Workloads Archive "
      "format) on the reconfigurable system, full vs partial.");
  cli.AddString("input", "", "SWF file to replay (empty = fabricate a demo)");
  cli.AddString("demo-out", "/tmp/dreamsim_demo.swf",
                "where the fabricated demo trace is written");
  cli.AddInt("jobs", 2000, "demo trace size when fabricating");
  cli.AddInt("nodes", 100, "number of reconfigurable nodes");
  cli.AddDouble("ticks-per-second", 0.2, "simulated ticks per SWF second");
  cli.AddInt("area-per-proc", 120, "area units per requested processor");
  cli.AddInt("seed", 42, "random seed");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }

  std::string path = cli.GetString("input");
  if (path.empty()) {
    path = cli.GetString("demo-out");
    const auto jobs = FabricateDemoTrace(
        static_cast<int>(
            IntInRange(cli, "jobs", 0, std::numeric_limits<int>::max())),
        static_cast<std::uint64_t>(cli.GetInt("seed")));
    std::ofstream out(path);
    workload::WriteSwf(out, jobs, "fabricated demo trace (swf_replay)");
    std::cout << "fabricated " << jobs.size() << " jobs -> " << path << "\n";
  }

  workload::SwfMapping mapping;
  mapping.ticks_per_second = cli.GetDouble("ticks-per-second");
  mapping.area_per_processor = cli.GetInt("area-per-proc");
  const workload::SwfConversion converted =
      workload::ReadSwfFile(path, mapping);
  std::cout << Format("converted {} jobs ({} skipped) from {}\n",
                      converted.workload.size(), converted.jobs_skipped, path);

  std::vector<core::MetricsReport> reports;
  for (const auto mode :
       {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial}) {
    core::SimulationConfig config;
    config.nodes.count = static_cast<int>(IntInRange(
        cli, "nodes", 0, std::numeric_limits<int>::max()));
    config.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
    config.mode = mode;
    config.label = std::string(sched::ToString(mode)) + "@swf";
    core::Simulator simulator(std::move(config));
    reports.push_back(simulator.RunWithWorkload(converted.workload));
  }

  std::cout << "\n=== SWF replay, Table I comparison ===\n"
            << core::RenderComparisonTable(reports);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
