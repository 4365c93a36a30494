// Shared harness for the figure-reproduction benches (Figs. 6-10).
//
// Every figure in the paper's evaluation is a task-count sweep comparing
// "without partial configuration" against "with partial configuration".
// Each bench binary names the metric(s) it extracts; this header supplies
// the CLI surface, the sweep, and the series printer.
//
// Defaults run a scaled-down sweep (fast enough for `for b in bench/*; do
// $b; done`); pass --full for the paper's exact 1000..100000 x axis.
#pragma once

#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/sweep.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/fmt.hpp"

namespace dreamsim::bench {

struct FigureSeries {
  std::string name;  // e.g. "avg_wasted_area_per_task"
  double (*extract)(const core::MetricsReport&);
};

struct FigureSpec {
  std::string figure;       // e.g. "Fig. 6"
  std::string description;  // printed above the table
  std::vector<int> node_counts;
  std::vector<FigureSeries> series;
};

/// Runs the sweep(s) for one figure and prints one table per node count:
/// rows are task counts, columns are <metric>/<mode>. Returns an exit code.
inline int RunFigure(int argc, char** argv, const FigureSpec& spec) {
  using namespace dreamsim::core;

  CliParser cli(Format("{} reproduction: {}", spec.figure, spec.description));
  cli.AddInt("seed", 42, "random seed shared by both modes");
  cli.AddDouble("scale", 0.05,
                "task-axis scale; 1.0 = the paper's 1000..100000 sweep");
  cli.AddBool("full", false, "shorthand for --scale=1.0 (paper scale)");
  cli.AddInt("threads", 0, "worker threads (0 = hardware concurrency)");
  cli.AddString("csv", "", "also write the series to this CSV file");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }
  std::vector<int> task_counts;
  unsigned threads = 0;
  try {
    task_counts =
        PaperTaskCounts(cli.GetBool("full") ? 1.0 : cli.GetDouble("scale"));
    threads = static_cast<unsigned>(
        IntInRange(cli, "threads", 0, std::numeric_limits<unsigned>::max()));
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }

  std::vector<std::vector<std::string>> csv_rows;
  for (const int nodes : spec.node_counts) {
    SweepParams params;
    params.base.nodes.count = nodes;
    params.base.seed = static_cast<std::uint64_t>(cli.GetInt("seed"));
    params.base.enable_monitoring = false;  // large sweeps
    params.task_counts = task_counts;
    params.modes = {sched::ReconfigMode::kFull, sched::ReconfigMode::kPartial};
    params.threads = threads;
    const std::vector<MetricsReport> reports = RunSweep(params);
    const std::size_t n = task_counts.size();

    std::cout << Format("\n=== {} — {} ({} nodes) ===\n", spec.figure,
                        spec.description, nodes);
    std::string header = Format("{:>10}", "tasks");
    for (const FigureSeries& s : spec.series) {
      header += Format("{:>24}{:>24}", s.name + "/full", s.name + "/partial");
    }
    std::cout << header << "\n";
    for (std::size_t t = 0; t < n; ++t) {
      std::string line = Format("{:>10}", task_counts[t]);
      std::vector<std::string> row{Format("{}", nodes),
                                   Format("{}", task_counts[t])};
      for (const FigureSeries& s : spec.series) {
        const double full_value = s.extract(reports[t]);
        const double partial_value = s.extract(reports[n + t]);
        line += Format("{:>24}{:>24}", Format("{}", full_value),
                       Format("{}", partial_value));
        row.push_back(Format("{}", full_value));
        row.push_back(Format("{}", partial_value));
      }
      std::cout << line << "\n";
      csv_rows.push_back(std::move(row));
    }
  }

  const std::string csv_path = cli.GetString("csv");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    std::vector<std::string> header{"nodes", "tasks"};
    for (const FigureSeries& s : spec.series) {
      header.push_back(s.name + "_full");
      header.push_back(s.name + "_partial");
    }
    CsvWriter csv(out, header);
    for (const auto& row : csv_rows) csv.WriteRow(row);
    std::cout << "\nwrote " << csv_path << "\n";
  }
  return 0;
}

}  // namespace dreamsim::bench
