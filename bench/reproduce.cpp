// Paper reproduction: every figure (Figs. 6-10) and Table I of the
// evaluation, written into one directory from one task-count sweep per node
// count (seed 42, both reconfiguration modes, monitoring off).
//
//   ./build/bench/reproduce [--scale X] [--threads N] [--out DIR]
//
// The default --scale 1.0 is the paper's 1000..100000 task axis, and the
// committed results/ is exactly that output. Each output writes <name>.csv
// and <name>.txt (the table also printed to stdout). Other seeds and node
// counts: `dreamsim --sweep --seed S --nodes N --scale X --csv FILE`.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/sweep.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/fmt.hpp"

namespace {

using namespace dreamsim;
using core::MetricsReport;

struct Series {
  std::string name;  // CSV column stem, e.g. "wasted_area"
  double (*extract)(const MetricsReport&);
};

/// One results/ output. A figure prints one table per node count: rows are
/// task counts, columns <series>/<mode>. The output with no series is
/// Table I: every metric at (kTableNodes, kTableTasks), both modes.
struct Output {
  std::string name;  // file stem, e.g. "fig06_wasted_area"
  std::string title;
  std::vector<int> node_counts;
  std::vector<Series> series;
};

constexpr int kTableNodes = 200;
constexpr int kTableTasks = 20000;
constexpr sched::ReconfigMode kModes[] = {sched::ReconfigMode::kFull,
                                          sched::ReconfigMode::kPartial};

const std::vector<Output> kOutputs = {
    // Paper shape: partial lies below full at both node counts, and the
    // 200-node magnitudes exceed the 100-node ones.
    {"fig06_wasted_area",
     "Fig. 6 — average wasted area per task (full vs partial "
     "reconfiguration)",
     {100, 200},
     {{"wasted_area",
       [](const MetricsReport& r) { return r.avg_wasted_area_per_task; }}}},
    // Paper shape: partial reconfigures more per node ("more options for
    // the scheduler"), and 100-node runs more than 200-node runs.
    {"fig07_reconfig_count",
     "Fig. 7 — average reconfiguration count per node (full vs partial)",
     {100, 200},
     {{"reconfig_count",
       [](const MetricsReport& r) { return r.avg_reconfig_count_per_node; }}}},
    // Paper shape: full waits far longer (no way to co-locate tasks), and
    // 100 nodes wait longer than 200.
    {"fig08_waiting_time",
     "Fig. 8 — average waiting time per task (full vs partial)",
     {100, 200},
     {{"waiting_time",
       [](const MetricsReport& r) { return r.avg_waiting_time_per_task; }}}},
    // Paper shape: full needs more steps per task and more total workload,
    // since its long suspension queue is re-walked on every completion.
    {"fig09_scheduler_effort",
     "Fig. 9 — scheduling steps per task (9a) and total scheduler workload "
     "(9b)",
     {200},
     {{"sched_steps",
       [](const MetricsReport& r) { return r.avg_scheduling_steps_per_task; }},
      {"total_workload",
       [](const MetricsReport& r) {
         return static_cast<double>(r.total_scheduler_workload);
       }}}},
    // Paper shape: partial pays more configuration time per task, since it
    // reconfigures regions far more often (Fig. 7).
    {"fig10_config_time",
     "Fig. 10 — average configuration time per task (full vs partial)",
     {200},
     {{"config_time",
       [](const MetricsReport& r) { return r.avg_config_time_per_task; }}}},
    {"table1", "Table I: DReAMSim performance metrics", {kTableNodes}, {}},
};

/// One RunSweep at a node count, both modes (kModes order).
struct Sweep {
  std::vector<int> task_counts;
  std::vector<MetricsReport> reports;

  [[nodiscard]] const MetricsReport& At(std::size_t mode, int tasks) const {
    const auto t = static_cast<std::size_t>(
        std::find(task_counts.begin(), task_counts.end(), tasks) -
        task_counts.begin());
    return reports.at(mode * task_counts.size() + t);
  }
};

std::ofstream OpenOut(const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(Format("cannot write {}", path.string()));
  return out;
}

/// Writes the figure's CSV and returns its printed table.
std::string WriteFigure(const Output& output, const std::vector<int>& axis,
                        const std::map<int, Sweep>& sweeps,
                        std::ostream& csv_out) {
  std::vector<std::string> csv_header{"nodes", "tasks"};
  for (const Series& s : output.series) {
    csv_header.push_back(s.name + "_full");
    csv_header.push_back(s.name + "_partial");
  }
  CsvWriter csv(csv_out, csv_header);
  std::string text;
  for (const int nodes : output.node_counts) {
    const Sweep& sweep = sweeps.at(nodes);
    text += Format("\n=== {} ({} nodes) ===\n", output.title, nodes);
    text += Format("{:>10}", "tasks");
    for (const Series& s : output.series) {
      text += Format("{:>24}{:>24}", s.name + "/full", s.name + "/partial");
    }
    text += "\n";
    for (const int tasks : axis) {
      text += Format("{:>10}", tasks);
      std::vector<std::string> row{Format("{}", nodes), Format("{}", tasks)};
      for (const Series& s : output.series) {
        const std::string full = Format("{}", s.extract(sweep.At(0, tasks)));
        const std::string partial =
            Format("{}", s.extract(sweep.At(1, tasks)));
        text += Format("{:>24}{:>24}", full, partial);
        row.push_back(full);
        row.push_back(partial);
      }
      text += "\n";
      csv.WriteRow(row);
    }
  }
  return text;
}

/// Writes Table I's CSV and returns its printed table.
std::string WriteTable(const Output& output, const Sweep& sweep,
                       std::ostream& csv_out) {
  std::vector<MetricsReport> reports;
  for (std::size_t m = 0; m < std::size(kModes); ++m) {
    reports.push_back(sweep.At(m, kTableTasks));
    reports.back().label = std::string(sched::ToString(kModes[m]));
  }
  core::WriteCsvReports(csv_out, reports);
  return Format("=== {} ===\n", output.title) +
         core::RenderComparisonTable(reports);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Reproduces the paper's Figs. 6-10 and Table I (seed 42, full vs "
      "partial reconfiguration) into --out.");
  cli.AddDouble("scale", 1.0,
                "task-axis scale; 1.0 = the paper's 1000..100000 sweep");
  cli.AddInt("threads", 0, "worker threads (0 = hardware concurrency)");
  cli.AddString("out", "results", "output directory");
  if (!cli.Parse(argc, argv)) {
    std::cerr << cli.error() << "\n";
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.HelpText();
    return 0;
  }

  try {
    const std::vector<int> axis = core::PaperTaskCounts(cli.GetDouble("scale"));
    const auto threads = static_cast<unsigned>(
        IntInRange(cli, "threads", 0, std::numeric_limits<unsigned>::max()));
    const std::filesystem::path out_dir = cli.GetString("out");
    std::filesystem::create_directories(out_dir);

    // One sweep per node count over the figure axis; the Table I point
    // rides along in its node count's sweep when the axis lacks it.
    std::map<int, Sweep> sweeps;
    for (const Output& output : kOutputs) {
      for (const int nodes : output.node_counts) sweeps[nodes].task_counts = axis;
    }
    std::vector<int>& table_axis = sweeps.at(kTableNodes).task_counts;
    if (std::find(axis.begin(), axis.end(), kTableTasks) == axis.end()) {
      table_axis.push_back(kTableTasks);
    }
    for (auto& [nodes, sweep] : sweeps) {
      core::SweepParams params;
      params.base.nodes.count = nodes;
      params.base.seed = 42;
      params.base.enable_monitoring = false;  // large sweeps
      params.task_counts = sweep.task_counts;
      params.modes.assign(std::begin(kModes), std::end(kModes));
      params.threads = threads;
      sweep.reports = core::RunSweep(params);
    }

    for (const Output& output : kOutputs) {
      std::ofstream csv = OpenOut(out_dir / (output.name + ".csv"));
      const std::string text =
          output.series.empty()
              ? WriteTable(output, sweeps.at(kTableNodes), csv)
              : WriteFigure(output, axis, sweeps, csv);
      std::ofstream txt = OpenOut(out_dir / (output.name + ".txt"));
      txt << text;
      csv.close();
      txt.close();
      if (!csv || !txt) {
        throw std::runtime_error(Format("writing {} failed", output.name));
      }
      std::cout << text;
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
