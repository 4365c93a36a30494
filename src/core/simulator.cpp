#include "core/simulator.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "ptype/catalogue.hpp"
#include "sched/dreamsim_policy.hpp"
#include "sched/heuristic_policy.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace dreamsim::core {
namespace {

// Independent deterministic sub-streams derived from the run seed.
constexpr std::uint64_t kStreamWorkload = 1;
constexpr std::uint64_t kStreamResources = 2;
constexpr std::uint64_t kStreamPolicy = 3;
constexpr std::uint64_t kStreamNetwork = 4;
constexpr std::uint64_t kStreamFaults = 5;

resource::ConfigCatalogue BuildConfigs(const SimulationConfig& config,
                                       Rng& rng) {
  const ptype::Catalogue all = ptype::Catalogue::Default();
  if (config.configs.ptypes.empty()) {
    return resource::ConfigCatalogue::Generate(config.configs, all, rng);
  }
  // Scenario-selected subset: re-register the named types in the listed
  // order, so Sample() draws only from them (deterministically).
  ptype::Catalogue selected;
  for (const std::string& name : config.configs.ptypes) {
    const auto id = all.FindByName(name);
    if (!id.has_value()) {
      throw std::invalid_argument(
          Format("unknown processor type '{}' in config.configs.ptypes",
                 name));
    }
    selected.Register(all.Get(*id));
  }
  return resource::ConfigCatalogue::Generate(config.configs, selected, rng);
}

/// Task `id`'s execution time on a closest match: t_required stretched by
/// `slowdown` (at least 1; the constructor checks). Throws
/// std::overflow_error where the stretched time plus `overhead`, the
/// placement's comm and configuration wait, would leave the Tick range,
/// instead of wrapping.
Tick StretchedExecution(TaskId id, const resource::TaskSpec& spec,
                        Tick overhead, double slowdown) {
  const double stretched = static_cast<double>(spec.required_time) * slowdown;
  // 2^63 is the first double past the Tick range, so the cast is defined.
  if (stretched < 0x1p63) {
    const auto execution = static_cast<Tick>(stretched);
    if (execution <= std::numeric_limits<Tick>::max() - overhead) {
      return execution;
    }
  }
  throw std::overflow_error(
      Format("task {}: closest-match execution {} x {} overflows the tick "
             "range",
             id.value(), spec.required_time, slowdown));
}

}  // namespace

std::unique_ptr<sched::Policy> MakePolicy(PolicyChoice choice,
                                          sched::ReconfigMode mode,
                                          std::uint64_t seed) {
  using sched::Heuristic;
  switch (choice) {
    case PolicyChoice::kDreamSim:
      return std::make_unique<sched::DreamSimPolicy>(mode);
    case PolicyChoice::kFirstFit:
      return std::make_unique<sched::HeuristicPolicy>(Heuristic::kFirstFit,
                                                      seed);
    case PolicyChoice::kBestFit:
      return std::make_unique<sched::HeuristicPolicy>(Heuristic::kBestFit,
                                                      seed);
    case PolicyChoice::kWorstFit:
      return std::make_unique<sched::HeuristicPolicy>(Heuristic::kWorstFit,
                                                      seed);
    case PolicyChoice::kRandomFit:
      return std::make_unique<sched::HeuristicPolicy>(Heuristic::kRandomFit,
                                                      seed);
    case PolicyChoice::kRoundRobin:
      return std::make_unique<sched::HeuristicPolicy>(Heuristic::kRoundRobin,
                                                      seed);
    case PolicyChoice::kLeastLoaded:
      return std::make_unique<sched::HeuristicPolicy>(Heuristic::kLeastLoaded,
                                                      seed);
  }
  throw std::invalid_argument("unknown policy choice");
}

std::string_view ToString(SimEvent::Kind kind) {
  switch (kind) {
    case SimEvent::Kind::kArrival: return "arrival";
    case SimEvent::Kind::kPlaced: return "placed";
    case SimEvent::Kind::kSuspended: return "suspended";
    case SimEvent::Kind::kRequeued: return "requeued";
    case SimEvent::Kind::kDiscarded: return "discarded";
    case SimEvent::Kind::kCompleted: return "completed";
    case SimEvent::Kind::kKilled: return "killed";
    case SimEvent::Kind::kNodeFailed: return "node-failed";
    case SimEvent::Kind::kNodeRepaired: return "node-repaired";
  }
  return "?";
}

std::unique_ptr<sched::Policy> Simulator::MakePolicy() const {
  return core::MakePolicy(config_.policy, config_.mode,
                          DeriveSeed(config_.seed, kStreamPolicy));
}

Simulator::Simulator(SimulationConfig config)
    : config_(std::move(config)),
      rng_(DeriveSeed(config_.seed, kStreamWorkload)),
      store_([&] {
        Rng resource_rng(DeriveSeed(config_.seed, kStreamResources));
        return resource::ResourceStore(BuildConfigs(config_, resource_rng));
      }()),
      suspension_(tasks_, store_.configs(), config_.suspension_capacity,
                  config_.priority_scheduling ? resource::SusOrder::kPriority
                                              : resource::SusOrder::kFifo),
      policy_(MakePolicy()),
      network_(config_.network, DeriveSeed(config_.seed, kStreamNetwork)),
      metrics_(config_.waste_accounting),
      info_(store_),
      jobs_(kernel_, tasks_),
      faults_(config_.faults, DeriveSeed(config_.seed, kStreamFaults)) {
  if (config_.shards != 1) {
    throw std::invalid_argument(
        "SimulationConfig::shards must be 1 (the sharded kernel was removed)");
  }
  // The negated test also rejects NaN.
  if (!(config_.closest_match_slowdown >= 1.0 &&
        config_.closest_match_slowdown <= kMaxClosestMatchSlowdown)) {
    throw std::invalid_argument(
        Format("SimulationConfig::closest_match_slowdown must be a finite "
               "number in [1, {}], got {}",
               kMaxClosestMatchSlowdown, config_.closest_match_slowdown));
  }
  // A task's retry count is a 28-bit field: a larger budget could never
  // be reached.
  if (config_.max_suspension_retries > resource::kMaxSusRetry) {
    throw std::invalid_argument(
        Format("SimulationConfig::max_suspension_retries must be at most {} "
               "(0 = unbounded), got {}",
               resource::kMaxSusRetry, config_.max_suspension_retries));
  }
  const net::NetworkParams& net = config_.network;
  if (net.bytes_per_tick < 0 || net.base_latency < 0 || net.max_jitter < 0) {
    throw std::invalid_argument(
        Format("SimulationConfig::network must be non-negative, got "
               "bytes_per_tick {}, base_latency {}, max_jitter {}",
               net.bytes_per_tick, net.base_latency, net.max_jitter));
  }
  store_.SetIndexed(config_.scheduler_index);
  suspension_.SetDrainIndexed(config_.drain_index);
  if (config_.device_classes.empty()) {
    Rng resource_rng(DeriveSeed(config_.seed, kStreamResources) ^ 0x5bd1e995u);
    store_.InitNodes(config_.nodes, resource_rng);
  } else {
    store_.InitDeviceClasses(
        config_.device_classes,
        DeriveSeed(config_.seed, kStreamResources) ^ 0x5bd1e995u);
  }
  // Pre-reserve the hot-path containers from the configured problem size so
  // the steady state never reallocates. Arrivals stay out of the event heap
  // (the kernel reads them from the workload in place), so the heap holds
  // completions, which are bounded by the running tasks, plus a bounded
  // number of control events; every task contributes one arrival and at
  // most one completion to the sequences the done bitset covers. The
  // suspension FIFO never outgrows its capacity or the task population.
  std::size_t expected_tasks = 0;
  if (!config_.task_classes.empty()) {
    for (const workload::TaskClassParams& c : config_.task_classes) {
      if (c.base.total_tasks > 0) {
        expected_tasks += static_cast<std::size_t>(c.base.total_tasks);
      }
    }
  } else if (config_.tasks.total_tasks > 0) {
    expected_tasks = static_cast<std::size_t>(config_.tasks.total_tasks);
  }
  const std::size_t tasks = std::min<std::size_t>(expected_tasks, 1u << 22);
  kernel_.ReserveEvents(
      std::min<std::size_t>(4 * store_.node_count() + 64, 1u << 22),
      2 * tasks + 64);
  tasks_.Reserve(tasks);
  const std::size_t fifo_bound =
      config_.suspension_capacity > 0
          ? std::min(config_.suspension_capacity, tasks)
          : tasks;
  suspension_.Reserve(std::min<std::size_t>(fifo_bound, 1u << 20));
  if (faults_.enabled()) {
    fault_process_events_.resize(store_.node_count());
    failed_since_.assign(store_.node_count(), kNoTick);
    fault_script_.reserve(faults_.params().script.size());
    for (const FaultEvent& e : faults_.params().script) {
      if (!e.node.valid() || e.node.value() >= store_.node_count()) {
        throw std::invalid_argument(
            Format("fault script names unknown node {}", e.node.value()));
      }
      fault_script_.push_back({e, {}, false});
    }
  }
  if (config_.ship_bitstreams) {
    bitstream_caches_.reserve(store_.node_count());
    for (std::size_t n = 0; n < store_.node_count(); ++n) {
      Bytes capacity = config_.bitstream_cache_capacity;
      if (!config_.device_classes.empty()) {
        // FamilyId == device-class index; a class's bitstream_store
        // overrides the run-wide capacity unless it inherits (< 0).
        const FamilyId family =
            store_.node(NodeId{static_cast<std::uint32_t>(n)}).family();
        const resource::DeviceClassParams& dc =
            config_.device_classes[family.value()];
        if (dc.bitstream_store >= 0) capacity = dc.bitstream_store;
      }
      bitstream_caches_.emplace_back(capacity);
    }
  }
}

Tick Simulator::BitstreamDelay(const resource::Node& node, ConfigId config) {
  if (!config_.ship_bitstreams) return 0;
  net::BitstreamCache& cache = bitstream_caches_[node.id().value()];
  const resource::Configuration& cfg = store_.configs().Get(config);
  if (cache.Lookup(config)) return 0;
  cache.Insert(config, cfg.bitstream_size);
  const Tick delay = network_.BitstreamTime(node, cfg.bitstream_size);
  bitstream_transfer_total_ += delay;
  return delay;
}

Simulator::CacheStats Simulator::bitstream_cache_stats() const {
  CacheStats stats;
  for (const net::BitstreamCache& cache : bitstream_caches_) {
    stats.hits += cache.hits();
    stats.misses += cache.misses();
  }
  return stats;
}

TaskId Simulator::SubmitTaskAt(const workload::GeneratedTask& task, Tick at) {
  // A submission into a fully drained system revives the fault processes
  // that NoteTerminal() shut down (graph sessions submit from hooks).
  const bool was_drained =
      faults_.enabled() && terminal_tasks_ >= submitted_tasks_;
  ++submitted_tasks_;
  const TaskId id = jobs_.SubmitOne(task, at);
  if (was_drained) RearmFaults();
  return id;
}

MetricsReport Simulator::Run() {
  // Checked before generated_ is replaced: tasks_ may borrow it.
  if (ran_) throw std::logic_error("Simulator instances are single-use");
  if (!config_.task_classes.empty()) {
    generated_ = workload::GenerateMultiClassWorkload(
        config_.task_classes, store_.configs(),
        DeriveSeed(config_.seed, kStreamWorkload));
    return RunMultiClass(generated_);
  }
  generated_.tasks =
      workload::GenerateWorkload(config_.tasks, store_.configs(), rng_);
  return RunWithWorkload(generated_.tasks);
}

MetricsReport Simulator::RunMultiClass(const workload::MultiClassWorkload& wl) {
  // Without chains the timeline is an ordinary workload; taking the exact
  // same submission path keeps the scenario-vs-flags differential trivial.
  if (wl.chains.empty()) return RunWithWorkload(wl.tasks);
  if (ran_) throw std::logic_error("Simulator instances are single-use");

  // Chain bookkeeping: map each in-flight chain task to its next link, and
  // release that link at the predecessor's completion tick (the same hook
  // discipline as the task-graph session).
  struct ChainCursor {
    std::size_t chain = 0;
    std::size_t next_link = 0;
  };
  std::unordered_map<TaskId, ChainCursor> cursors;
  cursors.reserve(wl.chains.size());
  std::function<void(TaskId, Tick)> inner = std::move(completion_hook_);
  SetCompletionHook([this, &wl, &cursors, inner](TaskId id, Tick now) {
    if (inner) inner(id, now);
    const auto it = cursors.find(id);
    if (it == cursors.end()) return;
    const ChainCursor cursor = it->second;
    cursors.erase(it);
    const workload::TaskChain& chain = wl.chains[cursor.chain];
    if (cursor.next_link >= chain.links.size()) return;
    const TaskId next = SubmitTaskAt(chain.links[cursor.next_link], now);
    cursors.emplace(next, ChainCursor{cursor.chain, cursor.next_link + 1});
  });

  // The timeline is submitted in one piece with consecutive task ids, so
  // chain head i is the task first + head_index.
  const auto first = static_cast<std::uint32_t>(tasks_.size());
  for (std::size_t c = 0; c < wl.chains.size(); ++c) {
    const auto head = static_cast<std::uint32_t>(wl.chains[c].head_index);
    cursors.emplace(TaskId{first + head}, ChainCursor{c, 0});
  }
  return RunWithWorkload(wl.tasks);
}

analysis::AuditReport Simulator::AuditStructures() const {
  analysis::AuditReport report = analysis::StructureAuditor::AuditAll(
      store_, suspension_, tasks_, kernel_.queue(), kernel_.now());
  // With the live registry on, also cross-check its counters against the
  // structures they observe (valid because the CLI/tests reset the registry
  // at run start, so it covers exactly this run).
  analysis::AuditReport metrics = analysis::StructureAuditor::AuditMetrics(
      store_, suspension_, kernel_.queue(), tasks_);
  report.violations.insert(
      report.violations.end(),
      std::make_move_iterator(metrics.violations.begin()),
      std::make_move_iterator(metrics.violations.end()));
  return report;
}

void Simulator::AuditAt(const char* where) {
  const analysis::AuditReport report = AuditStructures();
  if (report.ok()) return;
  throw std::logic_error(
      Format("structure audit failed after {}: {}", where, report.Render()));
}

MetricsReport Simulator::RunWithWorkload(const workload::Workload& wl) {
  if (ran_) throw std::logic_error("Simulator instances are single-use");
  ran_ = true;
  submitted_tasks_ += jobs_.Submit(wl);
  if (faults_.enabled() && submitted_tasks_ > terminal_tasks_) RearmFaults();
  kernel_.Run([this](const sim::FiredEvent& fired) { Dispatch(fired.event); });
  return FinishReport();
}

void Simulator::Dispatch(const sim::Event& event) {
  switch (event.kind) {
    case sim::EventKind::kArrival:
      HandleArrival(TaskId{event.a});
      return;
    case sim::EventKind::kCompletion:
      HandleCompletion(TaskId{event.a}, resource::UnpackEntryRef(event.b));
      return;
    case sim::EventKind::kNodeFailure:
      HandleFailureEvent(NodeId{event.a});
      return;
    case sim::EventKind::kNodeRepair:
      HandleRepairEvent(NodeId{event.a});
      return;
    case sim::EventKind::kScriptedFault:
      HandleScriptedFault(event.a);
      return;
  }
  throw std::logic_error("unknown event kind");
}

void Simulator::HandleArrival(TaskId id) {
  metrics_.OnTaskGenerated();
  Emit(SimEvent::Kind::kArrival, id);
  store_.meter().BeginTask();
  const sched::Decision decision = AttemptSchedule(id, /*is_arrival=*/true);
  if (decision.outcome == sched::Outcome::kSuspend) {
    resource::Task& task = tasks_.Get(id);
    task.state = resource::TaskState::kSuspended;
    metrics_.OnSuspendedFirstTime();
    Emit(SimEvent::Kind::kSuspended, id);
    EnqueueSuspended(id, decision.config);
  }
  ObserveState();
  MaybeAudit("arrival");
}

void Simulator::ObserveState() {
  const bool monitoring = config_.enable_monitoring;
  if (!monitoring && !state_observer_) return;
  const rms::SystemSnapshot snapshot = info_.Snapshot(kernel_.now());
  if (monitoring) monitor_.ObserveSnapshot(snapshot, suspension_.size());
  if (state_observer_) {
    StateSample sample;
    sample.tick = snapshot.at;
    sample.busy_nodes = snapshot.busy_nodes;
    sample.running_tasks = snapshot.running_tasks;
    sample.suspended_tasks = suspension_.size();
    sample.wasted_area = snapshot.wasted_area;
    sample.scheduler_steps = store_.meter().total_workload();
    sample.failed_nodes = store_.failed_node_count();
    state_observer_(sample);
  }
}

void Simulator::EmitExplain(TaskId id, bool is_arrival, sched::Outcome outcome,
                            const char* reason,
                            const sched::Decision* decision) {
  ExplainRecord record;
  record.task = id;
  record.tick = kernel_.now();
  record.is_arrival = is_arrival;
  record.outcome = outcome;
  record.reason = reason;
  if (decision != nullptr) {
    record.node = decision->entry.node;
    record.config = decision->config;
    record.kind = decision->kind;
    record.used_closest_match = decision->used_closest_match;
    record.config_time = decision->config_time;
    record.attempt_steps = store_.meter().current_task_steps();
  }
  record.queue_depth = suspension_.size();
  record.failed_nodes = store_.failed_node_count();
  obs::MetricInc(obs::MetricId::kExplainRecords);
  explain_observer_(record);
}

sched::Decision Simulator::AttemptSchedule(TaskId id, bool is_arrival) {
  resource::Task& task = tasks_.Get(id);
  const resource::TaskSpec& spec = tasks_.Spec(id);
  const sched::Decision decision = policy_->Schedule(id, spec, store_);
  metrics_.OnScheduleAttempt(kernel_.now(), is_arrival, store_);
  if (ShouldExplain(id)) {
    const char* reason = "placed";
    if (decision.outcome == sched::Outcome::kSuspend) {
      reason = "busy-candidate-exists";
    } else if (decision.outcome == sched::Outcome::kDiscard) {
      reason = "no-feasible-host";
    }
    EmitExplain(id, is_arrival, decision.outcome, reason, &decision);
  }

  switch (decision.outcome) {
    case sched::Outcome::kPlaced: {
      const Tick now = kernel_.now();
      const Tick comm_time = network_.TransferTime(
          store_.node(decision.entry.node), tasks_.DataSize(id));
      Tick config_wait = decision.config_time;
      if (decision.config_time > 0) {
        // A fresh configuration was loaded: ship its bitstream unless the
        // node still has it cached.
        config_wait +=
            BitstreamDelay(store_.node(decision.entry.node), decision.config);
      }
      const Tick overhead = comm_time + config_wait;
      task.state = resource::TaskState::kRunning;
      store_.SetReadyTime(decision.entry, now + overhead);
      if (decision.used_closest_match) metrics_.OnClosestMatchUsed();
      if (decision.config_time > 0) {
        metrics_.OnConfigured(
            now, decision.config_time,
            store_.node(decision.entry.node).available_area(), store_);
        metrics_.OnWasteSignal(now, store_.TotalWastedArea());
      }
      metrics_.OnPlaced(decision);
      if (event_logger_) {
        SimEvent placed{SimEvent::Kind::kPlaced, now, id, decision.entry.node,
                        decision.config};
        placed.placement = decision.kind;
        placed.comm_time = comm_time;
        placed.config_wait = config_wait;
        event_logger_(placed);
      }
      // Running on the closest match instead of C_pref may be slower
      // (Eq. 3 defines t_required on the *preferred* configuration).
      Tick execution = spec.required_time;
      if (decision.used_closest_match &&
          config_.closest_match_slowdown != 1.0) {
        execution = StretchedExecution(id, spec, overhead,
                                       config_.closest_match_slowdown);
      }
      const Tick span = overhead + execution;
      const resource::EntryRef entry = decision.entry;
      const sim::EventHandle completion = kernel_.ScheduleAfter(
          span, sim::EventPriority::kCompletion,
          sim::Event{sim::EventKind::kCompletion, id.value(),
                     resource::PackEntryRef(entry)});
      // Only a node failure ever needs to revoke a completion; fault-free
      // runs skip the handle bookkeeping entirely.
      if (faults_.enabled()) {
        if (completion_events_.size() <= id.value()) {
          completion_events_.resize(id.value() + 1);
        }
        completion_events_[id.value()] = completion;
      }
      DREAMSIM_LOG(LogLevel::kDebug,
                   "t={} task {} placed on node {} slot {} via {}", now,
                   id.value(), entry.node.value(), entry.slot,
                   sched::ToString(decision.kind));
      return decision;
    }
    case sched::Outcome::kSuspend:
      return decision;
    case sched::Outcome::kDiscard: {
      Discard(id, nullptr);
      DREAMSIM_LOG(LogLevel::kDebug, "t={} task {} discarded", kernel_.now(),
                   id.value());
      return decision;
    }
  }
  throw std::logic_error("unreachable scheduling outcome");
}

void Simulator::EnqueueSuspended(TaskId id, ConfigId config) {
  if (!suspension_.Add(id, config, store_.meter())) {
    // Queue overflow: the system sheds load by discarding the task.
    Discard(id, "queue-overflow");
    DREAMSIM_LOG(LogLevel::kDebug,
                 "t={} suspension queue full; task {} discarded",
                 kernel_.now(), id.value());
  }
}

void Simulator::Discard(TaskId id, const char* reason) {
  tasks_.Get(id).state = resource::TaskState::kDiscarded;
  metrics_.OnDiscarded();
  if (reason != nullptr && ShouldExplain(id)) {
    EmitExplain(id, /*is_arrival=*/false, sched::Outcome::kDiscard, reason,
                nullptr);
  }
  Emit(SimEvent::Kind::kDiscarded, id);
  NoteTerminal();
}

void Simulator::HandleCompletion(TaskId id, resource::EntryRef entry) {
  resource::Task& task = tasks_.Get(id);
  task.state = resource::TaskState::kCompleted;
  if (id.value() < completion_events_.size()) {
    completion_events_[id.value()] = {};
  }
  // The slot forgets its ready tick on release: read it first.
  const resource::ConfigTaskPair& slot =
      store_.node(entry.node).Slot(entry.slot);
  const ConfigId freed_config = slot.config;
  const Tick ready_time = slot.ready_time;
  const TaskId released = store_.ReleaseTask(entry);
  if (released != id) {
    throw std::logic_error("completion released a different task");
  }
  metrics_.OnCompleted(tasks_.Spec(id), ready_time, task.sus_retry,
                       kernel_.now());
  Emit(SimEvent::Kind::kCompleted, id, entry.node, freed_config);
  NoteTerminal();
  DrainSuspensionQueue(entry.node, freed_config);
  ObserveState();
  MaybeAudit("completion");
  if (completion_hook_) completion_hook_(id, kernel_.now());
}

void Simulator::DrainSuspensionQueue(NodeId freed_node,
                                     ConfigId freed_config) {
  // Each visited queue entry costs one scheduler search step (part of the
  // effort to assign tasks to nodes, and what makes the full-mode Fig. 9
  // curves grow with the queue); the queue charges it, with the drain
  // index on or off.
  const obs::ScopedPhaseTimer timer(obs::ProfPhase::kSuspensionDrain);
  const auto attempt = [this](resource::SuspensionQueue::Seq seq) {
    AttemptQueuedAt(seq);
  };
  if (config_.mode == sched::ReconfigMode::kFull) {
    suspension_.DrainFull(store_, freed_node, freed_config, store_.meter(),
                          attempt);
  } else {
    suspension_.DrainPartial(store_, freed_node, freed_config,
                             config_.suspension_batch, store_.meter(),
                             attempt);
  }
}

void Simulator::AttemptQueuedAt(resource::SuspensionQueue::Seq seq) {
  const TaskId id = suspension_.TaskAt(seq);
  obs::MetricInc(obs::MetricId::kDrainAttempts);
  store_.meter().BeginTask();
  const sched::Outcome outcome =
      AttemptSchedule(id, /*is_arrival=*/false).outcome;
  if (outcome == sched::Outcome::kPlaced ||
      outcome == sched::Outcome::kDiscard) {
    if (outcome == sched::Outcome::kPlaced) {
      obs::MetricInc(obs::MetricId::kDrainPlacements);
    }
    suspension_.RemoveSeq(seq, store_.meter());
    MaybeAudit("queued-attempt");
    return;
  }
  // The prefilter was optimistic but the policy could not place the task
  // anywhere: count the retry and optionally give up on it.
  const std::uint32_t retries = tasks_.AddRetry(id);
  if (config_.max_suspension_retries != 0 &&
      retries >= config_.max_suspension_retries) {
    suspension_.RemoveSeq(seq, store_.meter());
    Discard(id, "retry-budget-exhausted");
    MaybeAudit("queued-attempt");
    return;
  }
  // The task stays queued with the config it was enqueued with: the
  // attempt re-resolved the same one (ResolveConfig depends only on the
  // task and the fixed catalogue), and its spec never changes.
  MaybeAudit("queued-attempt");
}

MetricsReport Simulator::FinishReport() {
  const Tick end = kernel_.now();
  // End-of-run audit runs before the final queue sweep so it sees the
  // structures exactly as the event loop left them (step mode audited
  // every decision already; auditing once more here is cheap).
  if (config_.audit != analysis::AuditMode::kOff) AuditAt("run");
  // Any task still suspended when the event queue drained can never run.
  while (const std::optional<TaskId> id =
             suspension_.PopFront(store_.meter())) {
    Discard(*id, "drained-at-end");
  }
  utilization_ = monitor_.Finish(end);
  MetricsReport report = metrics_.Finish(config_, policy_->name(), store_, end);
  const CacheStats cache = bitstream_cache_stats();
  report.bitstream_hits = cache.hits;
  report.bitstream_misses = cache.misses;
  report.bitstream_transfer_time = bitstream_transfer_total_;
  report.failures_injected = failures_injected_;
  report.repairs_completed = repairs_completed_;
  report.tasks_killed = tasks_killed_;
  report.lost_work_area_ticks = lost_work_area_ticks_;
  Tick downtime = downtime_total_;
  for (const Tick since : failed_since_) {
    if (since != kNoTick) downtime += end - since;  // down through run end
  }
  report.total_downtime = downtime;
  if (faults_.enabled()) {
    for (const resource::Task& task : tasks_.all()) {
      if (!task.killed) continue;
      if (task.state == resource::TaskState::kCompleted) {
        ++report.tasks_recovered;
      } else if (task.state == resource::TaskState::kDiscarded) {
        ++report.tasks_lost_to_failure;
      }
    }
  }
  return report;
}

// --- Fault injection (DESIGN.md §10) ---

void Simulator::ArmFailure(NodeId node) {
  if (terminal_tasks_ >= submitted_tasks_) return;
  fault_process_events_[node.value()] = kernel_.ScheduleAfter(
      faults_.NextFailureDelay(), sim::EventPriority::kControl,
      sim::Event{sim::EventKind::kNodeFailure, node.value(), 0});
}

void Simulator::ArmRepair(NodeId node) {
  if (terminal_tasks_ >= submitted_tasks_) return;
  fault_process_events_[node.value()] = kernel_.ScheduleAfter(
      faults_.NextRepairDelay(), sim::EventPriority::kControl,
      sim::Event{sim::EventKind::kNodeRepair, node.value(), 0});
}

void Simulator::HandleFailureEvent(NodeId node) {
  fault_process_events_[node.value()] = {};
  ApplyFault(node, FaultAction::kFail);
  if (faults_.params().repairs_enabled()) ArmRepair(node);
}

void Simulator::HandleRepairEvent(NodeId node) {
  fault_process_events_[node.value()] = {};
  ApplyFault(node, FaultAction::kRepair);
  ArmFailure(node);
}

void Simulator::RearmFaults() {
  ScheduleFaultScript();
  if (!faults_.params().process_enabled()) return;
  for (std::size_t i = 0; i < store_.node_count(); ++i) {
    if (fault_process_events_[i].valid()) continue;
    const NodeId id{static_cast<std::uint32_t>(i)};
    if (store_.node(id).failed()) {
      if (faults_.params().repairs_enabled()) ArmRepair(id);
    } else {
      ArmFailure(id);
    }
  }
}

void Simulator::ScheduleFaultScript() {
  const Tick now = kernel_.now();
  for (std::size_t i = 0; i < fault_script_.size(); ++i) {
    ScriptedFault& pending = fault_script_[i];
    if (pending.fired || pending.handle.valid() || pending.event.at < now) {
      continue;
    }
    // The index is stable: fault_script_ is never resized after
    // construction.
    pending.handle = kernel_.ScheduleAt(
        pending.event.at, sim::EventPriority::kControl,
        sim::Event{sim::EventKind::kScriptedFault,
                   static_cast<std::uint32_t>(i), 0});
  }
}

void Simulator::HandleScriptedFault(std::size_t index) {
  ScriptedFault& entry = fault_script_[index];
  entry.handle = {};
  entry.fired = true;
  ApplyFault(entry.event.node, entry.event.action);
}

void Simulator::ApplyFault(NodeId node, FaultAction action) {
  // Once the workload drained, late-cancelled stragglers are no-ops; so are
  // scripted events that lost the race against the random process.
  if (terminal_tasks_ >= submitted_tasks_) return;
  if (action == FaultAction::kFail) {
    if (!store_.node(node).failed()) HandleNodeFailure(node);
  } else if (store_.node(node).failed()) {
    HandleNodeRepair(node);
  }
}

void Simulator::HandleNodeFailure(NodeId node_id) {
  const Tick now = kernel_.now();
  ++failures_injected_;
  failed_since_[node_id.value()] = now;
  Emit(SimEvent::Kind::kNodeFailed, TaskId::invalid(), node_id);
  DREAMSIM_LOG(LogLevel::kDebug, "t={} node {} failed", now, node_id.value());
  const std::vector<resource::KilledTask> killed = store_.FailNode(node_id);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kFaultFailures);
    reg.Add(obs::MetricId::kFaultKills, killed.size());
    reg.GaugeSet(obs::MetricId::kFaultFailedNodes, store_.failed_node_count());
  }
  for (const auto [id, config, ready_time] : killed) {
    resource::Task& task = tasks_.Get(id);
    if (id.value() < completion_events_.size() &&
        completion_events_[id.value()].valid()) {
      (void)kernel_.Cancel(completion_events_[id.value()]);
      completion_events_[id.value()] = {};
    }
    ++tasks_killed_;
    task.killed = true;
    // The victim is requeued resolved to the config it ran on, which the
    // failed slot held: the config its arrival resolved (resolution
    // depends only on the task and the fixed catalogue).
    const Area area = store_.configs().Get(config).required_area;
    // Only destroyed execution counts as lost work, from the ready tick
    // the failed slot held: a task killed inside its comm/config window
    // has not run yet, and the setup cost is paid again in full on the
    // next placement regardless.
    if (now > ready_time) {
      const std::uint64_t lost = static_cast<std::uint64_t>(area) *
                                 static_cast<std::uint64_t>(now - ready_time);
      lost_work_area_ticks_ += lost;
      obs::MetricInc(obs::MetricId::kFaultLostWorkTicks, lost);
    }
    Emit(SimEvent::Kind::kKilled, id, node_id, config);
    // A kill is not a scheduling attempt: no BeginTask, no search charge,
    // and no sus_retry increment — the retry budget meters re-scheduling
    // attempts, and re-queuing a victim is not one.
    if (config_.max_suspension_retries != 0 &&
        task.sus_retry >= config_.max_suspension_retries) {
      Discard(id, "killed-retry-exhausted");
      continue;
    }
    task.state = resource::TaskState::kSuspended;
    Emit(SimEvent::Kind::kRequeued, id);
    EnqueueSuspended(id, config);
  }
  ObserveState();
  MaybeAudit("node-failure");
}

void Simulator::HandleNodeRepair(NodeId node_id) {
  const Tick now = kernel_.now();
  ++repairs_completed_;
  downtime_total_ += now - failed_since_[node_id.value()];
  failed_since_[node_id.value()] = kNoTick;
  store_.RepairNode(node_id);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kFaultRepairs);
    reg.GaugeSet(obs::MetricId::kFaultFailedNodes, store_.failed_node_count());
  }
  Emit(SimEvent::Kind::kNodeRepaired, TaskId::invalid(), node_id);
  DREAMSIM_LOG(LogLevel::kDebug, "t={} node {} repaired", now,
               node_id.value());
  // The revived node is blank capacity: drain with no reusable config.
  DrainSuspensionQueue(node_id, ConfigId::invalid());
  ObserveState();
  MaybeAudit("node-repair");
}

void Simulator::NoteTerminal() {
  ++terminal_tasks_;
  if (faults_.enabled() && terminal_tasks_ >= submitted_tasks_) {
    CancelPendingFaultEvents();
  }
}

void Simulator::CancelPendingFaultEvents() {
  for (sim::EventHandle& h : fault_process_events_) {
    if (h.valid()) {
      (void)kernel_.Cancel(h);
      h = {};
    }
  }
  // Unfired script entries keep their `event` (FaultParams::script stays
  // the source of truth): a reviving submission re-schedules them.
  for (ScriptedFault& s : fault_script_) {
    if (s.handle.valid()) {
      (void)kernel_.Cancel(s.handle);
      s.handle = {};
    }
  }
}

}  // namespace dreamsim::core
