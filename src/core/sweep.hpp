// Experiment sweep driver: runs a grid of (mode × task-count) simulations —
// the structure of every figure in Sec. VI — optionally in parallel, one
// thread per simulation (simulations share nothing; each owns its RNG,
// store, and kernel).
#pragma once

#include <vector>

#include "core/metrics.hpp"
#include "core/replication.hpp"
#include "core/sim_config.hpp"
#include "core/simulator.hpp"

namespace dreamsim::core {

struct SweepParams {
  /// Template configuration; total task count and mode are overridden per
  /// point, everything else (including the seed) is shared, matching the
  /// paper's "for the same set of parameters in each simulation run".
  SimulationConfig base;
  /// X axis of the figures ("total tasks generated").
  std::vector<int> task_counts;
  /// Series (the paper compares kFull vs kPartial).
  std::vector<sched::ReconfigMode> modes;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Independent seeded runs per grid point (RunReplicatedSweep); each
  /// replication r uses DeriveSeed(base.seed, r), matching RunReplications.
  std::size_t replications = 1;
};

/// Runs every (mode, task_count) point. Result order: modes outer,
/// task_counts inner — reports[m * task_counts.size() + t].
/// (`params.replications` is ignored; this is the single-seed grid.)
[[nodiscard]] std::vector<MetricsReport> RunSweep(const SweepParams& params);

/// Runs every (mode, task_count) point `params.replications` times under
/// independent seeds and reduces each point to its Table I metric summary
/// (mean / ci95 / stddev / min / max). Point order matches RunSweep();
/// replication r of every point simulates seed DeriveSeed(base.seed, r), so
/// column 0 of the replicated grid is bit-identical to RunSweep() run at
/// seed DeriveSeed(base.seed, 0). Jobs fan out over points × replications.
[[nodiscard]] std::vector<ReplicationReport> RunReplicatedSweep(
    const SweepParams& params);

/// The paper's x axis: 1000 then 10000..100000 step 10000. `scale` in
/// (0, 1] shrinks every point proportionally (for fast default bench runs);
/// points collapse to at least 1000 tasks and duplicates are removed. Any
/// other scale throws std::invalid_argument naming `--scale` and the value.
[[nodiscard]] std::vector<int> PaperTaskCounts(double scale = 1.0);

}  // namespace dreamsim::core
