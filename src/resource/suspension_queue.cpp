#include "resource/suspension_queue.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "resource/store.hpp"
#include "util/fmt.hpp"

namespace dreamsim::resource {

bool SuspensionQueue::Add(TaskId task, ConfigId config,
                          WorkloadMeter& meter) {
  meter.Add(StepKind::kHousekeeping);
  if (capacity_ != 0 && size() >= capacity_) {
    obs::MetricInc(obs::MetricId::kSusOverflow);
    return false;
  }
  if (!task.valid()) {
    throw std::invalid_argument("SuspensionQueue::Add: invalid task id");
  }
  if (entries_.size() >= kNoSlot) {
    throw std::length_error("SuspensionQueue: insertion seqs exhausted");
  }
  if (Queued(task)) {
    throw std::logic_error("SuspensionQueue::Add: task already queued");
  }
  const std::size_t word = task.value() / kWordBits;
  if (queued_.size() <= word) queued_.resize(word + 1, 0);
  queued_[word] |= BitOf(task);
  // An empty queue's head is entries_.size(), which is the new seq.
  const auto seq = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back({task, config});
  live_.Append(true);
  if (index_) index_->Add(seq, AttrsAt(seq));
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
  const TaskId task = entries_[head_].task;
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
  if (!enabled || order_ != SusOrder::kFifo) {
    index_.reset();
    return;
  }
  index_ = std::make_unique<SusQueueIndex>();
  index_->Reserve(entries_.capacity());
  for (std::uint32_t seq = NextLive(head_); seq != kNoSlot;
       seq = NextLive(seq + 1)) {
    index_->Add(seq, AttrsAt(seq));
  }
}

SusEntryAttrs SuspensionQueue::AttrsAt(Seq seq) const {
  const Cell& cell = entries_[seq];
  return {cell.config,
          cell.config.valid() ? configs_->Get(cell.config).family
                              : FamilyId::invalid(),
          tasks_->Spec(cell.task).needed_area};
}

namespace {

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
    return !best ||
           (by_priority && PriorityAt(seq) > PriorityAt(*best));
  };
  for (std::uint32_t seq = NextLive(head_); seq != kNoSlot;
       seq = NextLive(seq + 1)) {
    meter.Add(StepKind::kSchedulingSearch);
    const ConfigId config = entries_[seq].config;
    if (freed_config.valid() && config == freed_config) {
      if (better(match, seq)) match = seq;
    } else if (SpecAt(seq).needed_area <= node.total_area() &&
               FamilyAllows(config, node.family())) {
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
  for (std::uint32_t seq = NextLive(head_); seq != kNoSlot;
       seq = NextLive(seq + 1)) {
    meter.Add(StepKind::kSchedulingSearch);
    if (!CouldUse(store, node, freed_config, seq)) continue;
    if (!best || PriorityAt(seq) > PriorityAt(*best)) best = seq;
  }
  return best;
}

std::optional<SuspensionQueue::Seq> SuspensionQueue::ScanNext(
    const ResourceStore& store, NodeId node_id, ConfigId freed_config,
    FifoCursor& cursor, WorkloadMeter& meter) const {
  obs::MetricInc(obs::MetricId::kSusqScanFallback);
  const Node& node = store.node(node_id);
  for (std::uint32_t seq = NextLive(cursor.from); seq != kNoSlot;
       seq = NextLive(seq + 1)) {
    meter.Add(StepKind::kSchedulingSearch);
    if (CouldUse(store, node, freed_config, seq)) {
      cursor.from = seq + 1;
      return seq;
    }
  }
  cursor.from = static_cast<Seq>(entries_.size());
  return std::nullopt;
}

// --- The index: O(log Q) answers, charged what the walk visits ---

std::optional<SuspensionQueue::Seq> SuspensionQueue::IndexedFull(
    const ResourceStore& store, NodeId node_id, ConfigId freed_config,
    WorkloadMeter& meter) const {
  const Node& node = store.node(node_id);
  // The walk visits every entry.
  meter.Add(StepKind::kSchedulingSearch, size());
  if (freed_config.valid()) {
    const std::optional<Seq> match = Timed([&] {
      obs::MetricInc(obs::MetricId::kSusqQueryOldestExact);
      return index_->OldestExactMatch(freed_config);
    });
    if (match) return match;
  }
  // The fallback is consulted only when no entry matches, so querying
  // the family groups without the exact-match rule is exact.
  return Timed([&] {
    obs::MetricInc(obs::MetricId::kSusqQueryOldestEligible);
    return index_->OldestEligible(node.family(), node.total_area(), 0,
                                  ConfigId::invalid());
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
                               ConfigId freed_config,
                               std::uint32_t seq) const {
  const ConfigId config = entries_[seq].config;
  // Direct reuse: the freed entry already carries the resolved config.
  if (freed_config.valid() && config == freed_config) return true;
  // Family compatibility gates every other route onto this node; then
  // spare fabric, or reclaiming the node's idle entries (Algorithm 1
  // restricted to this node), must make room.
  return FamilyAllows(config, node.family()) &&
         store.CouldEventuallyHost(node.id(), SpecAt(seq).needed_area);
}

void SuspensionQueue::Unlink(std::uint32_t seq) {
  TaskId& task = entries_[seq].task;
  if (index_) index_->Remove(seq, AttrsAt(seq));
  queued_[task.value() / kWordBits] &= ~BitOf(task);
  live_.Clear(seq);
  task = TaskId::invalid();
  // No live seq lies below the head, and removals never revive one.
  if (seq == head_) head_ = static_cast<std::uint32_t>(live_.NextSet(seq));
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kSusRemoved);
    reg.GaugeSet(obs::MetricId::kSusDepth, size());
  }
}

}  // namespace dreamsim::resource
