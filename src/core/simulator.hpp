// The Simulator facade (the paper's DreamSim class): wires the kernel, the
// resource store, the policy, the suspension queue, the network model, the
// monitoring module, and the metrics collector into one runnable system.
//
// Event flow per task (RunScheduler of Sec. IV-C):
//   arrival --> scheduling attempt --> placed    --> completion event
//                                  \-> suspended --> retried on completions
//                                  \-> discarded
//
// Each completion drains the suspension queue FIFO-first (bounded batch per
// event, preserving the paper's "check the suspension queue on every task
// completion" semantics at bounded cost).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "analysis/structure_auditor.hpp"
#include "core/fault_model.hpp"
#include "core/metrics.hpp"
#include "core/sim_config.hpp"
#include "net/bitstream_cache.hpp"
#include "net/network.hpp"
#include "resource/store.hpp"
#include "resource/suspension_queue.hpp"
#include "resource/task.hpp"
#include "rms/job_manager.hpp"
#include "rms/monitor.hpp"
#include "rms/resource_info.hpp"
#include "sched/policy.hpp"
#include "sim/kernel.hpp"
#include "workload/generator.hpp"
#include "workload/task_classes.hpp"

namespace dreamsim::core {

/// One task-lifecycle or fault event, as observed by the optional event
/// logger.
struct SimEvent {
  enum class Kind : std::uint8_t {
    kArrival,
    kPlaced,
    /// Voluntary suspension: the scheduler parked the task because a busy
    /// candidate exists (first attempt or after a queue re-attempt).
    kSuspended,
    /// Involuntary re-queue: a fault kill put the task back in the
    /// suspension queue (always preceded by kKilled for the same task).
    kRequeued,
    kDiscarded,
    kCompleted,
    /// Fault injection (DESIGN.md §10): a running task was killed by its
    /// node failing (task, node, and the killed placement's config are set).
    kKilled,
    /// Node fault events; `task` is invalid, `node` is set.
    kNodeFailed,
    kNodeRepaired,
  };
  Kind kind;
  Tick tick = 0;
  TaskId task;
  /// Node/config are set for kPlaced, kCompleted, kKilled, and the node
  /// fault kinds (node only).
  NodeId node;
  ConfigId config;
  /// kPlaced only: which Fig. 5 phase placed the task, and the setup delays
  /// (comm + configuration/bitstream wait) preceding execution.
  sched::PlacementKind placement{};
  Tick comm_time = 0;
  Tick config_wait = 0;
};

[[nodiscard]] std::string_view ToString(SimEvent::Kind kind);

/// One scheduling decision, as observed by the optional explain observer
/// (--explain). Captures what the policy saw and why the task ended up
/// where it did; `attempt_steps` is the number of scheduler search steps
/// the attempt charged — the size of the candidate set the policy explored.
struct ExplainRecord {
  TaskId task;
  Tick tick = 0;
  /// First attempt at arrival vs. a suspension-queue retry.
  bool is_arrival = true;
  sched::Outcome outcome = sched::Outcome::kDiscard;
  /// Set on kPlaced: where and how the task landed.
  NodeId node;
  ConfigId config;
  sched::PlacementKind kind{};
  bool used_closest_match = false;
  Tick config_time = 0;
  /// Scheduling-search steps charged during this attempt (candidate
  /// visits); 0 for records not produced by a policy run (overflow, end
  /// sweep).
  Steps attempt_steps = 0;
  /// Suspension-queue depth and failed-node count at decision time.
  std::size_t queue_depth = 0;
  std::size_t failed_nodes = 0;
  /// Short machine-readable cause: "placed", "busy-candidate-exists",
  /// "no-feasible-host", "queue-overflow", "retry-budget-exhausted",
  /// "killed-retry-exhausted", "drained-at-end".
  const char* reason = "";
};

/// System-state observation delivered to the optional state observer at
/// every monitoring point (the same event-driven sites the MonitoringModule
/// samples: arrivals, completions, node failures and repairs).
struct StateSample {
  Tick tick = 0;
  std::size_t busy_nodes = 0;
  std::size_t running_tasks = 0;
  std::size_t suspended_tasks = 0;  // suspension-queue depth
  Area wasted_area = 0;             // Eq. 6 signal
  Steps scheduler_steps = 0;        // cumulative total scheduler workload
  std::size_t failed_nodes = 0;
};

/// One self-contained simulation run. Construct, then call Run() (or
/// RunWithWorkload() to replay a trace). Not reusable: build a fresh
/// Simulator per run.
class Simulator {
 public:
  explicit Simulator(SimulationConfig config);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Generates the synthetic workload from the config and runs to
  /// completion. Returns the Table I metrics. The Simulator keeps the
  /// generated workload, which holds the tasks' specs.
  [[nodiscard]] MetricsReport Run();

  /// Runs a pre-materialized workload (trace replay / tests). The task
  /// store borrows the specs and side columns of `wl`, so `wl` must
  /// outlive the Simulator, or at least every read of tasks().Spec(),
  /// DataSize() or Priority().
  [[nodiscard]] MetricsReport RunWithWorkload(const workload::Workload& wl);

  /// Optional hook invoked after every task completion (used by the
  /// task-graph session to release successors). Set before Run*().
  void SetCompletionHook(std::function<void(TaskId, Tick)> hook) {
    completion_hook_ = std::move(hook);
  }

  /// Submits one extra task to arrive at tick `at` (>= now). Usable from a
  /// completion hook while the run is in flight.
  TaskId SubmitTaskAt(const workload::GeneratedTask& task, Tick at);

  /// Optional observer of every task-lifecycle event (arrival, placement,
  /// suspension, discard, completion) in execution order. Set before
  /// Run*(); pass nullptr to disable. Used for event traces and debugging.
  void SetEventLogger(std::function<void(const SimEvent&)> logger) {
    event_logger_ = std::move(logger);
  }

  /// Optional observer of system-state samples (obs::TimeSeriesSampler).
  /// Like the event logger it is a pure observer: snapshots are read-only
  /// and never charge the WorkloadMeter. Set before Run*(); pass nullptr
  /// to disable.
  void SetStateObserver(std::function<void(const StateSample&)> observer) {
    state_observer_ = std::move(observer);
  }

  /// Optional observer of per-decision explain records (--explain). Pure
  /// observer like the event logger. `tasks` filters emission to those
  /// TaskIds; an empty filter explains every task. Set before Run*().
  void SetExplainObserver(std::function<void(const ExplainRecord&)> observer,
                          std::vector<TaskId> tasks = {}) {
    explain_observer_ = std::move(observer);
    explain_tasks_.clear();
    for (const TaskId id : tasks) explain_tasks_.insert(id.value());
  }

  // --- Post-run inspection ---
  [[nodiscard]] const resource::ResourceStore& store() const { return store_; }
  [[nodiscard]] const resource::SuspensionQueue& suspension() const {
    return suspension_;
  }
  [[nodiscard]] const resource::TaskStore& tasks() const { return tasks_; }
  [[nodiscard]] const SimulationConfig& config() const { return config_; }
  [[nodiscard]] const sim::Kernel& kernel() const { return kernel_; }
  [[nodiscard]] const rms::UtilizationReport& utilization() const {
    return utilization_;
  }
  [[nodiscard]] const sched::Policy& policy() const { return *policy_; }

  /// Aggregate bitstream-cache statistics across nodes (ship_bitstreams
  /// extension; zeros otherwise).
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] CacheStats bitstream_cache_stats() const;

  /// Runs the StructureAuditor over every live structure (resource store,
  /// suspension queue, pending-event set). Pure read-only — it never
  /// charges the WorkloadMeter or perturbs the run — so tests can call it
  /// at any point regardless of the configured AuditMode.
  [[nodiscard]] analysis::AuditReport AuditStructures() const;

 private:
  /// Run() with task classes (scenario path): submits the merged timeline
  /// and releases each chain successor when its predecessor completes
  /// (composing with any user-installed completion hook). A chain-free
  /// workload delegates to RunWithWorkload(wl.tasks) verbatim. Borrows
  /// `wl.tasks` like RunWithWorkload(); chain links are copied.
  [[nodiscard]] MetricsReport RunMultiClass(
      const workload::MultiClassWorkload& wl);
  /// Ticks spent shipping the bitstream for a fresh configuration on
  /// `node` (0 on cache hit or when shipping is disabled).
  [[nodiscard]] Tick BitstreamDelay(const resource::Node& node,
                                    ConfigId config);
  void Emit(SimEvent::Kind kind, TaskId task,
            NodeId node = NodeId::invalid(),
            ConfigId config = ConfigId::invalid()) {
    if (event_logger_) {
      event_logger_(SimEvent{kind, kernel_.now(), task, node, config});
    }
  }
  /// Feeds the monitoring module and/or the state observer (one shared
  /// snapshot); no-op when both are off.
  void ObserveState();
  /// True when the explain observer wants records for `id`.
  [[nodiscard]] bool ShouldExplain(TaskId id) const {
    return explain_observer_ &&
           (explain_tasks_.empty() || explain_tasks_.count(id.value()) != 0);
  }
  /// Builds and delivers one explain record (call only after ShouldExplain).
  void EmitExplain(TaskId id, bool is_arrival, sched::Outcome outcome,
                   const char* reason, const sched::Decision* decision);
  /// Routes one kernel event to its handler.
  void Dispatch(const sim::Event& event);
  void HandleArrival(TaskId id);
  void HandleCompletion(TaskId id, resource::EntryRef entry);
  /// One policy attempt; performs all placed/discard bookkeeping. Returns
  /// the decision (kSuspend leaves queue management to the caller, which
  /// enqueues the task with the decision's config).
  sched::Decision AttemptSchedule(TaskId id, bool is_arrival);
  /// Queues task `id`, resolved to `config`, or discards it when the queue
  /// is full.
  void EnqueueSuspended(TaskId id, ConfigId config);
  /// Marks task `id` discarded: the metric, an explain record carrying
  /// `reason` (none when `reason` is null, for a caller that explained the
  /// decision already), the kDiscarded event and the terminal count.
  void Discard(TaskId id, const char* reason);
  /// Re-attempts the task queued as `seq`, removing it from the queue on
  /// success or final failure.
  void AttemptQueuedAt(resource::SuspensionQueue::Seq seq);
  /// Node-targeted queue check after a completion on `freed_node` (the
  /// paper's RemoveTaskFromSusQueue: find "a suitable task ... which can
  /// be executed on the node"), one SuspensionQueue drain per call: full
  /// mode prefers a task whose resolved configuration matches the freed
  /// one, partial mode takes the tasks the node can accommodate, up to
  /// suspension_batch policy runs. A node repair also drains, with
  /// `freed_config` invalid: the revived node is blank capacity with
  /// nothing to reuse.
  void DrainSuspensionQueue(NodeId freed_node, ConfigId freed_config);
  [[nodiscard]] std::unique_ptr<sched::Policy> MakePolicy() const;
  [[nodiscard]] MetricsReport FinishReport();
  /// Step-mode audit hook, called after every scheduler decision site.
  /// Off-mode cost is one enum comparison (bench_overhead gates it); a
  /// violation throws std::logic_error with the rendered report.
  void MaybeAudit(const char* where) {
    if (config_.audit == analysis::AuditMode::kStep) AuditAt(where);
  }
  void AuditAt(const char* where);

  // --- Fault injection (DESIGN.md §10) ---
  /// Arms one node's next random failure/repair (kControl priority).
  void ArmFailure(NodeId node);
  void ArmRepair(NodeId node);
  /// Kernel events of the fault process and the fault script: clear the
  /// fired handle, apply the fault, and renew the node's process chain.
  void HandleFailureEvent(NodeId node);
  void HandleRepairEvent(NodeId node);
  void HandleScriptedFault(std::size_t index);
  /// Idempotently arms fault delivery: schedules every pending scripted
  /// event and arms the process chain of every node whose handle is not
  /// already live. Called both at run start and when a mid-run
  /// SubmitTaskAt() revives a drained system, so the two entry points can
  /// never double-arm a node (a graph session submits its roots before
  /// RunWithWorkload()).
  void RearmFaults();
  /// Schedules every scripted event that has not fired, has no pending
  /// kernel event, and lies at or after the current tick (entries whose
  /// tick passed while the system was drained would have been no-ops).
  void ScheduleFaultScript();
  /// Applies a fault event if it changes the node's state (scripted events
  /// may race the random process; the loser is a no-op).
  void ApplyFault(NodeId node, FaultAction action);
  void HandleNodeFailure(NodeId node);
  void HandleNodeRepair(NodeId node);
  /// Bookkeeping after a task reaches a terminal state; once every
  /// submitted task is terminal the pending fault events are cancelled so
  /// an ever-renewing MTBF chain cannot keep the kernel alive (or stretch
  /// Eq. 5's end time) past the workload.
  void NoteTerminal();
  void CancelPendingFaultEvents();

  SimulationConfig config_;
  Rng rng_;
  sim::Kernel kernel_;
  resource::ResourceStore store_;
  resource::TaskStore tasks_;
  /// The workload Run() generated (empty otherwise): tasks_ borrows its
  /// timeline.
  workload::MultiClassWorkload generated_;
  resource::SuspensionQueue suspension_;
  std::unique_ptr<sched::Policy> policy_;
  net::NetworkModel network_;
  std::vector<net::BitstreamCache> bitstream_caches_;  // one per node
  Tick bitstream_transfer_total_ = 0;
  MetricsCollector metrics_;
  rms::ResourceInformationManager info_;
  rms::MonitoringModule monitor_;
  rms::JobSubmissionManager jobs_;
  rms::UtilizationReport utilization_;
  std::function<void(TaskId, Tick)> completion_hook_;
  std::function<void(const SimEvent&)> event_logger_;
  std::function<void(const StateSample&)> state_observer_;
  std::function<void(const ExplainRecord&)> explain_observer_;
  std::unordered_set<std::uint32_t> explain_tasks_;  // empty = all tasks
  bool ran_ = false;

  // --- Fault injection state (all dormant when faults are disabled) ---
  FaultModel faults_;
  /// Per-node pending process event (failure or repair), for cancellation.
  std::vector<sim::EventHandle> fault_process_events_;
  /// Scripted events, validated and copied from FaultParams::script at
  /// construction. The entry outlives its kernel event: a transient
  /// terminal==submitted drain cancels the handles, and the next reviving
  /// submission re-schedules every entry that has not fired yet.
  struct ScriptedFault {
    FaultEvent event;
    sim::EventHandle handle;
    bool fired = false;
  };
  std::vector<ScriptedFault> fault_script_;
  /// Tick each currently failed node went down (kNoTick = healthy).
  std::vector<Tick> failed_since_;
  /// Pending completion events, indexed by the (dense) task id, so a node
  /// failure can cancel them. Tracked only when faults are enabled
  /// (fault-free runs keep the original zero-overhead path).
  std::vector<sim::EventHandle> completion_events_;
  std::uint64_t submitted_tasks_ = 0;
  std::uint64_t terminal_tasks_ = 0;
  std::uint64_t failures_injected_ = 0;
  std::uint64_t repairs_completed_ = 0;
  std::uint64_t tasks_killed_ = 0;
  std::uint64_t lost_work_area_ticks_ = 0;
  Tick downtime_total_ = 0;
};

/// Builds the policy named by `choice` (DreamSim honours `mode`; the
/// heuristic baselines always use partial-reconfiguration semantics).
[[nodiscard]] std::unique_ptr<sched::Policy> MakePolicy(
    PolicyChoice choice, sched::ReconfigMode mode, std::uint64_t seed);

}  // namespace dreamsim::core
