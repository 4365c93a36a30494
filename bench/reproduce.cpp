// Paper reproduction: every figure (Figs. 6-10) of the evaluation from one
// task-count sweep per node count (seed 42, both reconfiguration modes,
// monitoring off), then Table I, the five ablations of DESIGN.md §4 and §6
// and the task-graph makespans, each at a fixed size whatever --scale.
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
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_session.hpp"
#include "core/parallel_for.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/fmt.hpp"

namespace {

using namespace dreamsim;
using core::MetricsReport;
using core::SimulationConfig;

struct Series {
  std::string name;  // CSV column stem, e.g. "wasted_area"
  double (*extract)(const MetricsReport&);
};

/// One figure: a table per node count, rows are task counts, columns
/// <series>/<mode>.
struct Output {
  std::string name;  // file stem, e.g. "fig06_wasted_area"
  std::string title;
  std::vector<int> node_counts;
  std::vector<Series> series;
};

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
};

/// Per node count, the RunSweep over the axis in both modes (kModes order).
using Sweeps = std::map<int, std::vector<MetricsReport>>;

/// Writes <name>.csv and <name>.txt into `dir` and echoes the table.
void Save(const std::filesystem::path& dir, const std::string& name,
          const std::string& csv, const std::string& text) {
  for (const auto& [ext, body] : {std::pair{".csv", &csv}, {".txt", &text}}) {
    std::ofstream out(dir / (name + ext));
    if (!(out << *body).flush()) {
      throw std::runtime_error(Format("cannot write {}{}", name, ext));
    }
  }
  std::cout << text;
}

/// Writes the figure's CSV and returns its printed table.
std::string WriteFigure(const Output& output, const std::vector<int>& axis,
                        const Sweeps& sweeps, std::ostream& csv_out) {
  std::vector<std::string> header{"nodes", "tasks"};
  for (const Series& s : output.series) {
    header.insert(header.end(), {s.name + "_full", s.name + "_partial"});
  }
  CsvWriter csv(csv_out, header);
  std::string text;
  for (const int nodes : output.node_counts) {
    const std::vector<MetricsReport>& sweep = sweeps.at(nodes);
    text += Format("\n=== {} ({} nodes) ===\n", output.title, nodes);
    text += Format("{:>10}", "tasks");
    for (const Series& s : output.series) {
      text += Format("{:>24}{:>24}", s.name + "/full", s.name + "/partial");
    }
    text += "\n";
    for (std::size_t t = 0; t < axis.size(); ++t) {
      text += Format("{:>10}", axis[t]);
      std::vector<std::string> row{Format("{}", nodes), Format("{}", axis[t])};
      for (const Series& s : output.series) {
        const std::string full = Format("{}", s.extract(sweep[t]));
        const std::string partial =
            Format("{}", s.extract(sweep[axis.size() + t]));
        text += Format("{:>24}{:>24}", full, partial);
        row.insert(row.end(), {full, partial});
      }
      text += "\n";
      csv.WriteRow(row);
    }
  }
  return text;
}

/// One extension-table run: its report, plus what lives outside the report
/// (the fabric's end-of-run fragmentation, a task graph's makespan).
struct Run : MetricsReport {
  double end_fragmentation = 0.0;
  Tick makespan = 0;
};
using Change = std::function<void(SimulationConfig&)>;
/// Runs a row's config one way (a mode, a graph release order).
using Runner = std::function<Run(SimulationConfig)>;
/// Reads one cell off a row's runs, one run per runner.
using Cell = std::function<std::string(std::span<const Run>)>;

Run Simulate(SimulationConfig config) {
  core::Simulator simulator(std::move(config));
  return Run{simulator.Run(), simulator.store().Fragmentation().mean};
}

/// Runs the config through `run` in `mode`.
Runner InMode(sched::ReconfigMode mode, Runner run = Simulate) {
  return [=](SimulationConfig c) { c.mode = mode; return run(std::move(c)); };
}

/// `field` of the row's run `k`.
template <typename T, typename Of>
Cell Get(T Of::*field, std::size_t k = 0) {
  return [=](std::span<const Run> r) { return Format("{}", r[k].*field); };
}

/// An extension table at a fixed size and seed 42, whatever --scale: each
/// row applies its change to the default config at `nodes` and `tasks` and
/// runs once per runner; each column is a named cell. A table without
/// columns has Table I's form.
struct Table {
  std::string name;
  std::string title;
  std::string label;  // header of the row-label column
  int nodes;
  int tasks;
  std::vector<std::pair<std::string, Change>> rows{};
  std::vector<std::pair<std::string, Cell>> columns{};
  std::vector<Runner> runners{Simulate};
};

std::vector<Table> ExtensionTables() {
  using enum core::PolicyChoice;
  using enum core::WasteAccounting;
  using resource::Placement;
  using sched::ReconfigMode;
  using R = MetricsReport;
  std::vector<Table> tables;

  // Table I: every metric at 200 nodes and 20000 tasks, both modes.
  Table& table1 = tables.emplace_back(Table{
      "table1", "Table I: DReAMSim performance metrics", "mode", 200, 20000});
  for (const ReconfigMode mode : kModes) {
    table1.rows.emplace_back(sched::ToString(mode),
                             [=](SimulationConfig& c) { c.mode = mode; });
  }

  // Sec. III: "different scheduling policies for a given set of parameters".
  Table& policies = tables.emplace_back(Table{
      "ablation_policies", "Policy ablation (partial, 200 nodes, 5000 tasks)",
      "policy", 200, 5000});
  for (const auto policy : {kDreamSim, kFirstFit, kBestFit, kWorstFit,
                            kRandomFit, kRoundRobin, kLeastLoaded}) {
    policies.rows.emplace_back(core::ToString(policy),
                               [=](SimulationConfig& c) { c.policy = policy; });
  }

  // Eq. 7's unstated sampling instants (DESIGN.md §4), in both modes.
  Table& waste = tables.emplace_back(Table{
      "ablation_waste_accounting",
      "Waste-accounting ablation (200 nodes, 5000 tasks)", "accounting",
      200, 5000});
  for (const auto accounting :
       {kOnSchedule, kTimeWeighted, kIdleConfigured, kOnConfigure}) {
    waste.rows.emplace_back(
        core::ToString(accounting),
        [=](SimulationConfig& c) { c.waste_accounting = accounting; });
  }
  waste.runners = {InMode(ReconfigMode::kFull), InMode(ReconfigMode::kPartial)};
  const auto wasted = &R::avg_wasted_area_per_task;
  waste.columns = {
      {"avg_wasted_area_per_task_full", Get(wasted, 0)},
      {"avg_wasted_area_per_task_partial", Get(wasted, 1)},
      {"ordering", [=](std::span<const Run> runs) {
         const double full = runs[0].*wasted;
         const double partial = runs[1].*wasted;
         if (partial == full) return std::string("equal");
         return std::string(partial < full ? "partial<full" : "INVERTED");
       }}};

  // The suspension drain's knobs (DESIGN.md §4).
  Table& suspension = tables.emplace_back(Table{
      "ablation_suspension",
      "Suspension-queue ablation (partial, 100 nodes, 4000 tasks; batch and "
      "capacity 0 = unbounded, retries 0 = never give up)",
      "setting", 100, 4000});
  for (const std::size_t v : {1U, 4U, 8U, 32U, 0U}) {
    suspension.rows.emplace_back(
        Format("suspension_batch={}", v),
        [=](SimulationConfig& c) { c.suspension_batch = v; });
  }
  for (const std::uint32_t v : {0U, 1U, 4U, 64U}) {
    suspension.rows.emplace_back(
        Format("max_retries={}", v),
        [=](SimulationConfig& c) { c.max_suspension_retries = v; });
  }
  for (const std::size_t v : {0U, 16U, 256U, 4096U}) {
    suspension.rows.emplace_back(
        Format("queue_capacity={}", v),
        [=](SimulationConfig& c) { c.suspension_capacity = v; });
  }
  suspension.columns = {
      {"completed_tasks", Get(&R::completed_tasks)},
      {"discarded_tasks", Get(&R::discarded_tasks)},
      {"avg_waiting_time_per_task", Get(&R::avg_waiting_time_per_task)},
      {"total_scheduler_workload", Get(&R::total_scheduler_workload)}};

  // Eq. 4's scalar area against contiguous placement (DESIGN.md §6);
  // end_fragmentation is the nodes' mean external-fragmentation index.
  Table& fragmentation = tables.emplace_back(Table{
      "ablation_fragmentation",
      "Fragmentation ablation (partial, 100 nodes, 4000 tasks)",
      "fabric_model", 100, 4000});
  for (const auto& [label, contiguous, placement] :
       {std::tuple{"scalar (paper)", false, Placement::kFirstFit},
        std::tuple{"contiguous/first-fit", true, Placement::kFirstFit},
        std::tuple{"contiguous/best-fit", true, Placement::kBestFit},
        std::tuple{"contiguous/worst-fit", true, Placement::kWorstFit}}) {
    fragmentation.rows.emplace_back(label, [=](SimulationConfig& c) {
      c.nodes.contiguous_placement = contiguous;
      c.nodes.placement = placement;
    });
  }
  fragmentation.columns = {
      {"completed_tasks", Get(&R::completed_tasks)},
      {"discarded_tasks", Get(&R::discarded_tasks)},
      {"avg_waiting_time_per_task", Get(&R::avg_waiting_time_per_task)},
      {"avg_reconfig_count_per_node", Get(&R::avg_reconfig_count_per_node)},
      {"end_fragmentation", Get(&Run::end_fragmentation)}};

  // Bitstream shipping and the per-node LRU cache (DESIGN.md §6).
  Table& cache = tables.emplace_back(Table{
      "ablation_bitstream_cache",
      "Bitstream-cache ablation (partial, 100 nodes, 4000 tasks, 2000 bytes "
      "per tick)",
      "cache_bytes", 100, 4000});
  for (const auto& [label, ship, capacity] :
       {std::tuple{"no shipping", false, Bytes{0}},
        std::tuple{"0 (no cache)", true, Bytes{0}},
        std::tuple{"200k", true, Bytes{200'000}},
        std::tuple{"400k", true, Bytes{400'000}},
        std::tuple{"800k", true, Bytes{800'000}},
        std::tuple{"unbounded", true, Bytes{100'000'000}}}) {
    cache.rows.emplace_back(label, [=](SimulationConfig& c) {
      c.network.bytes_per_tick = 2000;
      c.ship_bitstreams = ship;
      c.bitstream_cache_capacity = capacity;
    });
  }
  cache.columns = {
      {"bitstream_hits", Get(&R::bitstream_hits)},
      {"bitstream_misses", Get(&R::bitstream_misses)},
      {"hit_rate", [](std::span<const Run> runs) {
         const std::uint64_t hits = runs[0].bitstream_hits;
         const std::uint64_t lookups = hits + runs[0].bitstream_misses;
         return lookups ? Format("{}", static_cast<double>(hits) /
                                           static_cast<double>(lookups))
                        : std::string("-");
       }},
      {"bitstream_transfer_time", Get(&R::bitstream_transfer_time)},
      {"avg_waiting_time_per_task", Get(&R::avg_waiting_time_per_task)}};

  // Task graphs (the paper's future work): a layered pipeline's makespan
  // against node count, per mode and release order.
  const SimulationConfig defaults;
  Rng catalogue_rng(DeriveSeed(defaults.seed, 2));
  Rng graph_rng(DeriveSeed(defaults.seed, 17));
  const workload::GraphGenParams params{
      .layers = 10, .width = 12, .edge_density = 0.3,
      .task_params = {.min_required_time = 500, .max_required_time = 5000}};
  const auto graph = std::make_shared<const workload::TaskGraph>(
      workload::GenerateLayeredGraph(
          params,
          resource::ConfigCatalogue::Generate(
              defaults.configs, ptype::Catalogue::Default(), catalogue_rng),
          graph_rng));
  Table& graphs = tables.emplace_back(Table{
      "ext_graph_scheduling",
      Format("Task-graph makespan in ticks ({} vertices, critical path {}; "
             "cp = critical-path-first list scheduling)",
             graph->size(), graph->CriticalPathLength()),
      "nodes", 0, defaults.tasks.total_tasks});  // rows set the node count
  for (const int nodes : {4, 8, 16, 32, 64}) {
    graphs.rows.emplace_back(Format("{}", nodes), [=](SimulationConfig& c) {
      c.nodes.count = nodes;
    });
  }
  graphs.runners.clear();
  for (const ReconfigMode mode : kModes) {
    for (const auto& [order, order_name] :
         {std::pair{core::GraphOrder::kFifo, "fifo"},
          std::pair{core::GraphOrder::kCriticalPathFirst, "cp"}}) {
      graphs.columns.emplace_back(
          Format("makespan_{}_{}", sched::ToString(mode), order_name),
          Get(&Run::makespan, graphs.runners.size()));
      graphs.runners.push_back(InMode(mode, [=](SimulationConfig config) {
        return Run{{}, 0.0, core::RunGraph(config, *graph, order).makespan};
      }));
    }
  }
  return tables;
}

/// Runs every row of `table` once per runner on up to `threads` workers;
/// returns the runs row-major.
std::vector<Run> RunTable(const Table& table, unsigned threads) {
  const std::size_t width = table.runners.size();
  std::vector<Run> runs(table.rows.size() * width);
  core::ParallelFor(runs.size(), threads, [&](std::size_t i) {
    const auto& [label, change] = table.rows[i / width];
    SimulationConfig config;  // seed 42, partial reconfiguration
    config.nodes.count = table.nodes;
    config.tasks.total_tasks = table.tasks;
    config.enable_monitoring = false;
    config.label = label;
    change(config);
    runs[i] = table.runners[i % width](std::move(config));
  });
  return runs;
}

/// Writes an extension table's CSV and returns its printed table: the
/// label column left-aligned, the others right-aligned two spaces apart.
std::string WriteExtension(const Table& table, std::span<const Run> runs,
                           std::ostream& csv_out) {
  std::string text = Format("=== {} ===\n", table.title);
  if (table.columns.empty()) {
    const std::vector<MetricsReport> reports(runs.begin(), runs.end());
    core::WriteCsvReports(csv_out, reports);
    return text + core::RenderComparisonTable(reports);
  }
  std::vector<std::vector<std::string>> cells{{table.label}};
  for (const auto& [name, cell] : table.columns) cells[0].push_back(name);
  CsvWriter csv(csv_out, cells[0]);
  const std::size_t width = table.runners.size();
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    std::vector<std::string>& row = cells.emplace_back(1, table.rows[r].first);
    for (const auto& [name, cell] : table.columns) {
      row.push_back(cell(runs.subspan(r * width, width)));
    }
    csv.WriteRow(row);
  }
  for (std::size_t c = 0; c < cells[0].size(); ++c) {
    std::size_t w = 0;
    for (const auto& row : cells) w = std::max(w, row[c].size());
    for (std::vector<std::string>& row : cells) {
      const std::string pad(w + (c > 0 ? 2 : 0) - row[c].size(), ' ');
      row[c] = c > 0 ? pad + row[c] : row[c] + pad;
    }
  }
  for (const std::vector<std::string>& row : cells) {
    text += std::accumulate(row.begin(), row.end(), std::string()) + "\n";
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Reproduces the paper's Figs. 6-10 and Table I (seed 42, full vs "
      "partial reconfiguration) and the extension tables into --out.");
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

    // One sweep per node count over the figure axis.
    Sweeps sweeps;
    for (const Output& output : kOutputs) {
      for (const int nodes : output.node_counts) sweeps[nodes];
    }
    for (auto& [nodes, reports] : sweeps) {
      core::SweepParams params;
      params.base.nodes.count = nodes;
      params.base.seed = 42;
      params.base.enable_monitoring = false;  // large sweeps
      params.task_counts = axis;
      params.modes.assign(std::begin(kModes), std::end(kModes));
      params.threads = threads;
      reports = core::RunSweep(params);
    }

    for (const Output& output : kOutputs) {
      std::ostringstream csv;
      const std::string text = WriteFigure(output, axis, sweeps, csv);
      Save(out_dir, output.name, csv.str(), text);
    }
    for (const Table& table : ExtensionTables()) {
      std::ostringstream csv;
      const std::string text =
          WriteExtension(table, RunTable(table, threads), csv);
      Save(out_dir, table.name, csv.str(), text);
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
