#include "resource/suspension_queue.hpp"

#include <stdexcept>

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
  if (SeqOf(task) != kNoSlot) {
    throw std::logic_error("SuspensionQueue::Add: task already queued");
  }
  const auto seq = static_cast<std::uint32_t>(slots_.size());
  if (seq_of_task_.size() <= task.value()) {
    seq_of_task_.resize(std::size_t{task.value()} + 1, kNoSlot);
  }
  seq_of_task_[task.value()] = seq;
  slots_.push_back(Slot{task, tail_, kNoSlot});
  attrs_.push_back({attrs.resolved_config, attrs.config_family,
                    attrs.needed_area});
  if (order_ == SusOrder::kPriority) priorities_.push_back(attrs.priority);
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
    reg.GaugeSet(obs::MetricId::kSusDepth, size());
    reg.GaugeMax(obs::MetricId::kSusDepthPeak, size());
  }
  return true;
}

bool SuspensionQueue::Contains(TaskId task, WorkloadMeter& meter) const {
  if (index_) {
    const std::uint32_t seq = SeqOf(task);
    if (seq != kNoSlot) {
      // The scan stops at the hit: position + 1 visited entries.
      meter.Add(StepKind::kHousekeeping, live_.Prefix(seq) + 1);
      return true;
    }
    meter.Add(StepKind::kHousekeeping, size());
    return false;
  }
  obs::MetricInc(obs::MetricId::kSusqScanFallback);
  for (const TaskId t : *this) {
    meter.Add(StepKind::kHousekeeping);
    if (t == task) return true;
  }
  return false;
}

void SuspensionQueue::RemoveSeq(Seq seq, WorkloadMeter& meter) {
  if (!TaskAt(seq).valid()) {
    throw std::out_of_range(
        Format("SuspensionQueue: seq {} is not queued", seq));
  }
  meter.Add(StepKind::kHousekeeping);
  Unlink(seq);
}

bool SuspensionQueue::Remove(TaskId task, WorkloadMeter& meter) {
  if (index_) {
    const std::uint32_t seq = SeqOf(task);
    if (seq == kNoSlot) {
      meter.Add(StepKind::kHousekeeping, size());
      return false;
    }
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

void SuspensionQueue::SetDrainIndexed(bool enabled) {
  if (!enabled) {
    index_.reset();
    return;
  }
  index_ = std::make_unique<SusQueueIndex>(order_);
  for (std::uint32_t slot = head_; slot != kNoSlot; slot = slots_[slot].next) {
    index_->Add(slot, AttrsAt(slot));
  }
}

void SuspensionQueue::Unlink(std::uint32_t seq) {
  Slot& slot = slots_[seq];
  if (index_) index_->Remove(seq, AttrsAt(seq));
  seq_of_task_[slot.task.value()] = kNoSlot;
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
    reg.GaugeSet(obs::MetricId::kSusDepth, size());
  }
}

}  // namespace dreamsim::resource
