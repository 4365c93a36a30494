#include "resource/suspension_queue.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "resource/store.hpp"
#include "util/fmt.hpp"

namespace dreamsim::resource {

bool SuspensionQueue::Add(TaskId task, const SusEntryAttrs& attrs,
                          WorkloadMeter& meter) {
  meter.Add(StepKind::kHousekeeping);
  if (capacity_ != 0 && size() >= capacity_) {
    obs::MetricInc(obs::MetricId::kSusOverflow);
    return false;
  }
  if (!task.valid()) {
    throw std::invalid_argument("SuspensionQueue::Add: invalid task id");
  }
  if (slots_.size() >= kNoSlot) {
    throw std::length_error("SuspensionQueue: insertion seqs exhausted");
  }
  if (Queued(task)) {
    throw std::logic_error("SuspensionQueue::Add: task already queued");
  }
  const std::size_t word = task.value() / kWordBits;
  if (queued_.size() <= word) queued_.resize(word + 1, 0);
  queued_[word] |= BitOf(task);
  // An empty queue's head is slots_.size(), which is the new seq.
  const auto seq = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(task);
  attrs_.push_back({attrs.resolved_config, attrs.config_family,
                    attrs.needed_area});
  if (order_ == SusOrder::kPriority) priorities_.push_back(attrs.priority);
  live_.Append(true);
  if (index_) index_->Add(seq, attrs);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kSusEnqueued);
    reg.GaugeSet(obs::MetricId::kSusDepth, size());
    reg.GaugeMax(obs::MetricId::kSusDepthPeak, size());
  }
  return true;
}

std::optional<TaskId> SuspensionQueue::PopFront(WorkloadMeter& meter) {
  if (empty()) return std::nullopt;
  meter.Add(StepKind::kHousekeeping);
  const TaskId task = slots_[head_];
  Unlink(head_);
  return task;
}

void SuspensionQueue::RemoveSeq(Seq seq, WorkloadMeter& meter) {
  if (!TaskAt(seq).valid()) {
    throw std::out_of_range(
        Format("SuspensionQueue: seq {} is not queued", seq));
  }
  meter.Add(StepKind::kHousekeeping);
  Unlink(seq);
}

void SuspensionQueue::SetDrainIndexed(bool enabled) {
  if (!enabled) {
    index_.reset();
    return;
  }
  index_ = std::make_unique<SusQueueIndex>(order_);
  for (std::uint32_t seq = NextLive(slots_, head_); seq != kNoSlot;
       seq = NextLive(slots_, seq + 1)) {
    index_->Add(seq, AttrsAt(seq));
  }
}

namespace {

/// Whether a task resolved to `config` may run on a node of `family`: an
/// unresolved config pins no family (the literal walk's family check,
/// read from the catalogue).
bool FamilyAllows(const ResourceStore& store, ConfigId config,
                  FamilyId family) {
  return !config.valid() || store.configs().Get(config).CompatibleWith(family);
}

/// Runs one index query timed as a sus-queue query.
template <typename Query>
std::optional<SuspensionQueue::Seq> Timed(Query&& query) {
  const obs::ScopedPhaseTimer timer(obs::ProfPhase::kSusQueueQuery);
  const std::optional<std::uint64_t> seq = query();
  if (!seq) return std::nullopt;
  return static_cast<SuspensionQueue::Seq>(*seq);
}

}  // namespace

// --- The literal walks: one scheduling-search step per visited entry ---

std::optional<SuspensionQueue::Seq> SuspensionQueue::ScanFull(
    const ResourceStore& store, NodeId node_id, ConfigId freed_config,
    WorkloadMeter& meter) const {
  obs::MetricInc(obs::MetricId::kSusqScanFallback);
  const Node& node = store.node(node_id);
  const bool by_priority = order_ == SusOrder::kPriority;
  // The oldest (or strictly higher-priority) exact match, else the oldest
  // (or best) entry the node's whole fabric fits.
  std::optional<Seq> match;
  std::optional<Seq> fallback;
  const auto better = [&](const std::optional<Seq>& best, Seq seq) {
    return !best || (by_priority && priorities_[seq] > priorities_[*best]);
  };
  for (std::uint32_t seq = NextLive(slots_, head_); seq != kNoSlot;
       seq = NextLive(slots_, seq + 1)) {
    meter.Add(StepKind::kSchedulingSearch);
    const StoredAttrs& a = attrs_[seq];
    if (freed_config.valid() && a.resolved_config == freed_config) {
      if (better(match, seq)) match = seq;
    } else if (a.needed_area <= node.total_area() &&
               FamilyAllows(store, a.resolved_config, node.family())) {
      if (better(fallback, seq)) fallback = seq;
    }
  }
  return match ? match : fallback;
}

std::optional<SuspensionQueue::Seq> SuspensionQueue::ScanBest(
    const ResourceStore& store, NodeId node_id, ConfigId freed_config,
    WorkloadMeter& meter) const {
  obs::MetricInc(obs::MetricId::kSusqScanFallback);
  const Node& node = store.node(node_id);
  std::optional<Seq> best;
  for (std::uint32_t seq = NextLive(slots_, head_); seq != kNoSlot;
       seq = NextLive(slots_, seq + 1)) {
    meter.Add(StepKind::kSchedulingSearch);
    if (!CouldUse(store, node, freed_config, attrs_[seq])) continue;
    if (!best || priorities_[seq] > priorities_[*best]) best = seq;
  }
  return best;
}

std::optional<SuspensionQueue::Seq> SuspensionQueue::ScanNext(
    const ResourceStore& store, NodeId node_id, ConfigId freed_config,
    FifoCursor& cursor, WorkloadMeter& meter) const {
  obs::MetricInc(obs::MetricId::kSusqScanFallback);
  const Node& node = store.node(node_id);
  for (std::uint32_t seq = NextLive(slots_, cursor.from); seq != kNoSlot;
       seq = NextLive(slots_, seq + 1)) {
    meter.Add(StepKind::kSchedulingSearch);
    if (CouldUse(store, node, freed_config, attrs_[seq])) {
      cursor.from = seq + 1;
      return seq;
    }
  }
  cursor.from = static_cast<Seq>(slots_.size());
  return std::nullopt;
}

// --- The index: O(log Q) answers, charged what the walk visits ---

std::optional<SuspensionQueue::Seq> SuspensionQueue::IndexedFull(
    const ResourceStore& store, NodeId node_id, ConfigId freed_config,
    WorkloadMeter& meter) const {
  const Node& node = store.node(node_id);
  const bool by_priority = order_ == SusOrder::kPriority;
  // The walk visits every entry.
  meter.Add(StepKind::kSchedulingSearch, size());
  if (freed_config.valid()) {
    const std::optional<Seq> match = Timed([&] {
      if (by_priority) {
        obs::MetricInc(obs::MetricId::kSusqQueryBestPrioExact);
        return index_->BestPriorityExactMatch(freed_config);
      }
      obs::MetricInc(obs::MetricId::kSusqQueryOldestExact);
      return index_->OldestExactMatch(freed_config);
    });
    if (match) return match;
  }
  // The fallback is consulted only when no entry matches, so querying
  // the family groups without the exact-match rule is exact.
  return Timed([&] {
    if (by_priority) {
      obs::MetricInc(obs::MetricId::kSusqQueryBestPrioEligible);
      return index_->BestPriorityEligible(node.family(), node.total_area(),
                                          ConfigId::invalid());
    }
    obs::MetricInc(obs::MetricId::kSusqQueryOldestEligible);
    return index_->OldestEligible(node.family(), node.total_area(), 0,
                                  ConfigId::invalid());
  });
}

std::optional<SuspensionQueue::Seq> SuspensionQueue::IndexedBest(
    const ResourceStore& store, NodeId node_id, ConfigId freed_config,
    WorkloadMeter& meter) const {
  // The walk visits the whole (shrinking) queue for every pick. The store
  // does not change during one pick, so one bound covers the
  // could-eventually-host test of every entry.
  meter.Add(StepKind::kSchedulingSearch, size());
  return Timed([&] {
    obs::MetricInc(obs::MetricId::kSusqQueryBestPrioEligible);
    return index_->BestPriorityEligible(store.node(node_id).family(),
                                        store.CouldEventuallyHostBound(node_id),
                                        freed_config);
  });
}

std::optional<SuspensionQueue::Seq> SuspensionQueue::IndexedNext(
    const ResourceStore& store, NodeId node_id, ConfigId freed_config,
    FifoCursor& cursor, WorkloadMeter& meter) const {
  if (cursor.index >= size()) return std::nullopt;
  const std::optional<Seq> next = Timed([&] {
    obs::MetricInc(obs::MetricId::kSusqQueryOldestEligible);
    return index_->OldestEligible(store.node(node_id).family(),
                                  store.CouldEventuallyHostBound(node_id),
                                  cursor.from, freed_config);
  });
  if (!next) {
    // The walk visits the remaining tail without a match.
    meter.Add(StepKind::kSchedulingSearch, size() - cursor.index);
    return std::nullopt;
  }
  // Entries in [index, position) fail the test; the walk charges one step
  // per visit, the candidate's included. Once the attempt removed it, its
  // successor, the first seq after it, sits at `position`.
  const std::size_t position = PositionOf(*next);
  meter.Add(StepKind::kSchedulingSearch, position - cursor.index + 1);
  cursor.from = *next + 1;
  cursor.index = position;
  return next;
}

bool SuspensionQueue::CouldUse(const ResourceStore& store, const Node& node,
                               ConfigId freed_config, const StoredAttrs& a) {
  // Direct reuse: the freed entry already carries the resolved config.
  if (freed_config.valid() && a.resolved_config == freed_config) return true;
  // Family compatibility gates every other route onto this node; then
  // spare fabric, or reclaiming the node's idle entries (Algorithm 1
  // restricted to this node), must make room.
  return FamilyAllows(store, a.resolved_config, node.family()) &&
         store.CouldEventuallyHost(node.id(), a.needed_area);
}

void SuspensionQueue::Unlink(std::uint32_t seq) {
  TaskId& task = slots_[seq];
  if (index_) index_->Remove(seq, AttrsAt(seq));
  queued_[task.value() / kWordBits] &= ~BitOf(task);
  live_.Clear(seq);
  task = TaskId::invalid();
  // No live seq lies below the head, and removals never revive one.
  while (head_ < slots_.size() && !slots_[head_].valid()) ++head_;
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kSusRemoved);
    reg.GaugeSet(obs::MetricId::kSusDepth, size());
  }
}

}  // namespace dreamsim::resource
