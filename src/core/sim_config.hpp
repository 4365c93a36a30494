// SimulationConfig: the full parameter surface of one DReAMSim run.
//
// Defaults reproduce Table II: 200 nodes (TotalArea in [1000, 4000]), 50
// configurations (ReqArea in [200, 2000], t_config in [10, 20]), arrivals
// every [1, 50] ticks, t_required in [100, 100000], 15% closest-match tasks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/audit_mode.hpp"
#include "core/fault_model.hpp"
#include "net/network.hpp"
#include "resource/config.hpp"
#include "resource/node.hpp"
#include "resource/store.hpp"
#include "sched/policy.hpp"
#include "workload/generator.hpp"
#include "workload/task_classes.hpp"

namespace dreamsim::core {

/// How Eq. 7's accumulated wasted area samples Eq. 6 (the paper leaves the
/// sampling instants unstated; see DESIGN.md §4).
enum class WasteAccounting : std::uint8_t {
  /// Accumulate the configured node's post-configuration AvailableArea at
  /// every (re)configuration event.
  kOnConfigure,
  /// Sample Eq. 6 (system-wide wasted area over configured nodes) at every
  /// task arrival — the literal reading of Eq. 7 (default).
  kOnSchedule,
  /// Integrate Eq. 6 over time; report the time-weighted average.
  kTimeWeighted,
  /// Sample, at every task arrival, the available area of configured nodes
  /// that are currently idle (area provably wasted at that instant).
  kIdleConfigured,
};

[[nodiscard]] std::string_view ToString(WasteAccounting accounting);

/// Which built-in policy drives the run.
enum class PolicyChoice : std::uint8_t {
  kDreamSim,  // the paper's Fig. 5 algorithm (mode picks full/partial)
  kFirstFit,
  kBestFit,
  kWorstFit,
  kRandomFit,
  kRoundRobin,
  kLeastLoaded,
};

[[nodiscard]] std::string_view ToString(PolicyChoice choice);

/// Largest accepted SimulationConfig::closest_match_slowdown: a closest
/// match at most a thousand times slower than C_pref.
inline constexpr double kMaxClosestMatchSlowdown = 1000.0;

struct SimulationConfig {
  // --- Resources (Table II) ---
  resource::NodeGenParams nodes{};          // 200 nodes, [1000, 4000]
  resource::ConfigGenParams configs{};      // 50 configs, [200, 2000], [10, 20]

  // --- Workload (Table II) ---
  workload::TaskGenParams tasks{};          // [1, 50] gaps, [100, 1e5] times

  // --- Scenario (src/scenario; both empty = the flag-driven path above) ---
  /// Heterogeneous device families (`device class:` blocks). Non-empty
  /// replaces `nodes`: the store generates each class in order with class
  /// index == FamilyId, and ship_bitstreams gives each family its own
  /// bitstream-store capacity (DeviceClassParams::bitstream_store).
  std::vector<resource::DeviceClassParams> device_classes;
  /// Concurrent task classes (`task class:` blocks). Non-empty replaces
  /// `tasks`: Run() multiplexes the per-class arrival streams into one
  /// timeline and releases chain successors on predecessor completion. A
  /// single plain steady class is bit-identical to the `tasks` path.
  std::vector<workload::TaskClassParams> task_classes;

  // --- Scheduling ---
  sched::ReconfigMode mode = sched::ReconfigMode::kPartial;
  PolicyChoice policy = PolicyChoice::kDreamSim;
  /// Max re-scheduling attempts per suspended task; 0 = unbounded.
  std::uint32_t max_suspension_retries = 0;
  /// Suspension-queue capacity; 0 = unbounded. Overflow discards the task.
  std::size_t suspension_capacity = 0;
  /// Suspended tasks re-attempted per completion event (bounds the cost of
  /// queue drains; the FIFO order of the paper is preserved).
  std::size_t suspension_batch = 8;
  /// Select suspended tasks by priority (Task::priority, higher first;
  /// FIFO ties) instead of pure FIFO when draining the queue. Used by the
  /// critical-path-first task-graph scheduler; the paper's scheduler is
  /// FIFO (default).
  bool priority_scheduling = false;
  /// Execution-time multiplier for tasks that run on a closest-match
  /// configuration instead of their C_pref (Eq. 3 defines t_required "if
  /// it is processed on its preferred processor configuration"; a
  /// non-preferred processor may be slower). 1.0 reproduces the paper.
  /// Must be finite and in [1, kMaxClosestMatchSlowdown]; the Simulator
  /// constructor throws std::invalid_argument otherwise.
  double closest_match_slowdown = 1.0;

  // --- Network (t_comm of Eq. 8; disabled by default like the paper) ---
  /// Every field must be non-negative; the Simulator constructor throws
  /// std::invalid_argument otherwise.
  net::NetworkParams network{};
  /// Ship configuration bitstreams over the network before configuring
  /// (adds BitstreamTime to the configuration delay). The paper folds
  /// shipping into t_config; enable this to model it explicitly.
  bool ship_bitstreams = false;
  /// Per-node LRU bitstream cache capacity in bytes (0 = no cache): cache
  /// hits skip the bitstream transfer when ship_bitstreams is on.
  Bytes bitstream_cache_capacity = 0;

  // --- Performance ---
  /// Answer scheduler queries from the resource store's O(log N) index
  /// instead of the literal counted scans. Decisions and every Table I
  /// metric (step counts included) are bit-identical either way — the index
  /// charges the analytic step counts the scans would have (DESIGN.md
  /// "Scheduler index"). Off = reference scans, for debugging and
  /// differential validation.
  bool scheduler_index = true;
  /// Answer suspension-queue drain queries (candidate selection on task
  /// completion) from the queue's O(log Q) index instead of the literal
  /// FIFO scans, under the same bit-identical contract as
  /// `scheduler_index`. The index keeps only the structures of the drain
  /// order `priority_scheduling` selects. Off = reference scans.
  bool drain_index = true;
  /// Vestigial: the in-run sharded kernel was removed (DESIGN.md §13), and
  /// 1 is the only legal value — the Simulator constructor throws
  /// std::invalid_argument for any other. The field survives only because
  /// the committed benchmark harness still assigns it; the next change to
  /// that harness deletes it.
  std::size_t shards = 1;

  // --- Fault injection (DESIGN.md §10; disabled by default) ---
  /// Node failure/repair model: a seeded MTBF/MTTR process plus scripted
  /// events. Disabled by default — every paper figure is fault-free.
  FaultParams faults{};

  // --- Correctness tooling (DESIGN.md §12) ---
  /// Runs the StructureAuditor over every scheduler structure: never
  /// (off, the default — a true no-op), once at end of run, or after
  /// every scheduler decision (step; Debug-scale cost). A violation
  /// aborts the run with the rendered report (std::logic_error).
  analysis::AuditMode audit = analysis::AuditMode::kOff;

  // --- Metrics ---
  WasteAccounting waste_accounting = WasteAccounting::kOnSchedule;
  /// Event-driven utilization monitoring (one O(1) snapshot of the store's
  /// fleet-wide aggregates per event).
  bool enable_monitoring = true;

  // --- Reproducibility ---
  std::uint64_t seed = 42;

  /// Free-form label carried into reports.
  std::string label;

  /// Scenario identity when this config was compiled from a scenario file:
  /// the `name:` of the `simulation:` block and the canonical FNV-1a 64
  /// hash (scenario::ScenarioHash). Empty for flag-driven runs. Neither
  /// affects simulation behaviour.
  std::string scenario_name;
  std::string scenario_hash;
};

}  // namespace dreamsim::core
