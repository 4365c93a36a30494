#include "resource/suspension_queue.hpp"

#include <iterator>
#include <stdexcept>

#include "util/fmt.hpp"

namespace dreamsim::resource {

bool SuspensionQueue::Add(TaskId task, const SusEntryAttrs& attrs,
                          WorkloadMeter& meter) {
  meter.Add(StepKind::kHousekeeping);
  if (capacity_ != 0 && entries_.size() >= capacity_) {
    obs::MetricInc(obs::MetricId::kSusOverflow);
    return false;
  }
  if (slots_.size() >= kNoSlot) {
    throw std::length_error("SuspensionQueue: insertion seqs exhausted");
  }
  const auto seq = static_cast<std::uint32_t>(slots_.size());
  if (!entries_.try_emplace(task.value(), Entry{seq, attrs}).second) {
    throw std::logic_error("SuspensionQueue::Add: task already queued");
  }
  slots_.push_back(Slot{task, tail_, kNoSlot});
  if (tail_ == kNoSlot) {
    head_ = seq;
  } else {
    slots_[tail_].next = seq;
  }
  tail_ = seq;
  live_.Append(true);
  if (index_) index_->Add(seq, attrs);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kSusEnqueued);
    reg.GaugeSet(obs::MetricId::kSusDepth, entries_.size());
    reg.GaugeMax(obs::MetricId::kSusDepthPeak, entries_.size());
  }
  return true;
}

bool SuspensionQueue::Contains(TaskId task, WorkloadMeter& meter) const {
  if (index_) {
    const auto it = entries_.find(task.value());
    if (it != entries_.end()) {
      // The scan stops at the hit: position + 1 visited entries.
      meter.Add(StepKind::kHousekeeping, live_.Prefix(it->second.seq) + 1);
      return true;
    }
    meter.Add(StepKind::kHousekeeping, entries_.size());
    return false;
  }
  obs::MetricInc(obs::MetricId::kSusqScanFallback);
  for (const TaskId t : *this) {
    meter.Add(StepKind::kHousekeeping);
    if (t == task) return true;
  }
  return false;
}

void SuspensionQueue::RemoveAt(std::size_t index, WorkloadMeter& meter) {
  const std::uint32_t seq = SeqAt(index);
  meter.Add(StepKind::kHousekeeping);
  Unlink(seq);
}

std::uint32_t SuspensionQueue::SeqAt(std::size_t index) const {
  if (index >= entries_.size()) {
    throw std::out_of_range(Format("SuspensionQueue: position {} of {}",
                                   index, entries_.size()));
  }
  return static_cast<std::uint32_t>(live_.Select(index));
}

bool SuspensionQueue::Remove(TaskId task, WorkloadMeter& meter) {
  if (index_) {
    const auto it = entries_.find(task.value());
    if (it == entries_.end()) {
      meter.Add(StepKind::kHousekeeping, entries_.size());
      return false;
    }
    const std::uint32_t seq = it->second.seq;
    meter.Add(StepKind::kHousekeeping, live_.Prefix(seq) + 1);
    Unlink(seq);
    return true;
  }
  obs::MetricInc(obs::MetricId::kSusqScanFallback);
  for (std::uint32_t slot = head_; slot != kNoSlot; slot = slots_[slot].next) {
    meter.Add(StepKind::kHousekeeping);
    if (slots_[slot].task == task) {
      Unlink(slot);
      return true;
    }
  }
  return false;
}

void SuspensionQueue::RefreshAttrs(TaskId task, const SusEntryAttrs& attrs) {
  Entry& entry = entries_.at(task.value());
  if (index_) index_->Refresh(entry.seq, entry.attrs, attrs);
  entry.attrs = attrs;
}

void SuspensionQueue::SetDrainIndexed(bool enabled) {
  if (!enabled) {
    index_.reset();
    return;
  }
  index_ = std::make_unique<SusQueueIndex>(order_);
  for (std::uint32_t slot = head_; slot != kNoSlot; slot = slots_[slot].next) {
    index_->Add(slot, entries_.at(slots_[slot].task.value()).attrs);
  }
}

std::vector<std::string> SuspensionQueue::ValidateIndex() const {
  if (!index_) return {};
  std::vector<std::string> violations;
  std::vector<std::pair<std::uint64_t, SusEntryAttrs>> queued;
  queued.reserve(entries_.size());
  std::size_t pos = 0;
  for (std::uint32_t slot = head_; slot != kNoSlot;
       slot = slots_[slot].next, ++pos) {
    const TaskId task = slots_[slot].task;
    const auto it = entries_.find(task.value());
    if (it == entries_.end() || it->second.seq != slot) {
      violations.push_back(
          Format("task {} at seq {} has no table row", task.value(), slot));
      continue;
    }
    if (live_.Prefix(slot) != pos) {
      violations.push_back(Format("task {} position {} != rank {}",
                                  task.value(), pos, live_.Prefix(slot)));
    }
    queued.emplace_back(slot, it->second.attrs);
  }
  if (pos != entries_.size()) {
    violations.push_back(Format("{} linked entries for {} table rows", pos,
                                entries_.size()));
  }
  std::vector<std::string> index_violations = index_->Validate(queued);
  violations.insert(violations.end(),
                    std::make_move_iterator(index_violations.begin()),
                    std::make_move_iterator(index_violations.end()));
  return violations;
}

void SuspensionQueue::Unlink(std::uint32_t seq) {
  Slot& slot = slots_[seq];
  const auto it = entries_.find(slot.task.value());
  if (index_) index_->Remove(seq, it->second.attrs);
  entries_.erase(it);
  live_.Clear(seq);
  if (slot.prev == kNoSlot) {
    head_ = slot.next;
  } else {
    slots_[slot.prev].next = slot.next;
  }
  if (slot.next == kNoSlot) {
    tail_ = slot.prev;
  } else {
    slots_[slot.next].prev = slot.prev;
  }
  slot.task = TaskId::invalid();
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kSusRemoved);
    reg.GaugeSet(obs::MetricId::kSusDepth, entries_.size());
  }
}

}  // namespace dreamsim::resource
