// Diurnal-load scenario: a day/night arrival pattern on a reconfigurable
// datacenter. The workload is built programmatically — a sinusoidal arrival
// rate over several simulated "days" — and replayed through both
// reconfiguration modes, demonstrating how partial reconfiguration absorbs
// the daily peak that saturates the one-task-per-node system.
//
//   ./examples/datacenter_diurnal [--days N] [--nodes N] [--seed S]
#include <cmath>
#include <exception>
#include <iostream>
#include <limits>

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "util/cli.hpp"
#include "util/fmt.hpp"

namespace {

using namespace dreamsim;

/// Builds a workload whose inter-arrival gap oscillates daily: short gaps
/// (heavy load) at the peak, long gaps in the trough.
workload::Workload BuildDiurnalWorkload(
    const resource::ConfigCatalogue& catalogue, int days, Tick day_length,
    Tick peak_gap, Tick trough_gap, Rng& rng) {
  workload::Workload wl;
  const Tick horizon = days * day_length;
  Tick now = 0;
  while (now < horizon) {
    // Phase in [0, 2*pi) across the day; load peaks mid-day.
    const double phase = 2.0 * M_PI *
                         static_cast<double>(now % day_length) /
                         static_cast<double>(day_length);
    const double intensity = 0.5 * (1.0 - std::cos(phase));  // 0 .. 1
    const double mean_gap =
        static_cast<double>(trough_gap) -
        intensity * static_cast<double>(trough_gap - peak_gap);
    now += std::max<Tick>(1, static_cast<Tick>(std::llround(
                                 rng.exponential(1.0 / mean_gap))));

    workload::GeneratedTask t;
    t.create_time = now;
    const auto index = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(catalogue.size()) - 1));
    t.preferred_config = ConfigId{index};
    t.needed_area = catalogue.Get(t.preferred_config).required_area;
    t.required_time = rng.uniform_int(1000, 20000);
    wl.push_back(t);
  }
  return wl;
}

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli(
      "Diurnal datacenter load: sinusoidal arrival rate over several "
      "simulated days, full vs partial reconfiguration.");
  cli.AddInt("days", 3, "number of simulated days");
  cli.AddInt("day-length", 100000, "ticks per day");
  cli.AddInt("peak-gap", 8, "mean inter-arrival gap at the daily peak");
  cli.AddInt("trough-gap", 200, "mean inter-arrival gap at the trough");
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
  base.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));

  // Same catalogue the simulator will build (same derived sub-seed).
  Rng catalogue_rng(DeriveSeed(base.seed, 2));
  const auto catalogue = resource::ConfigCatalogue::Generate(
      base.configs, ptype::Catalogue::Default(), catalogue_rng);

  const auto days = static_cast<int>(
      IntInRange(cli, "days", 0, std::numeric_limits<int>::max()));
  Rng workload_rng(DeriveSeed(base.seed, 101));
  const workload::Workload wl = BuildDiurnalWorkload(
      catalogue, days, cli.GetInt("day-length"), cli.GetInt("peak-gap"),
      cli.GetInt("trough-gap"), workload_rng);
  std::cout << Format("diurnal workload: {} tasks over {} days\n", wl.size(),
                      days);

  std::vector<core::MetricsReport> reports;
  for (const auto mode :
       {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial}) {
    core::SimulationConfig config = base;
    config.mode = mode;
    config.label = std::string(sched::ToString(mode)) + "@diurnal";
    core::Simulator simulator(std::move(config));
    reports.push_back(simulator.RunWithWorkload(wl));
    const rms::UtilizationReport& u = simulator.utilization();
    std::cout << Format(
        "[{}] peak concurrent tasks {}, peak queue depth {}\n",
        sched::ToString(mode), u.peak_running_tasks, u.peak_suspended_tasks);
  }

  std::cout << "\n=== Diurnal load, Table I comparison ===\n"
            << core::RenderComparisonTable(reports);
  return 0;
} catch (const std::exception& error) {
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
