#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"

namespace dreamsim::sim {

std::uint64_t EventQueue::IssueSequences(std::uint64_t count) {
  const std::uint64_t first = next_sequence_;
  next_sequence_ += count;
  assert(next_sequence_ <= kSeqMask);
  const std::uint64_t words = (next_sequence_ - base_sequence_ + 63) / 64;
  if (done_.size() < words) done_.resize(static_cast<std::size_t>(words), 0);
  return first;
}

EventHandle EventQueue::Push(Tick tick, EventPriority priority, Event event) {
  const std::uint64_t seq = IssueSequences(1);
  heap_.emplace_back();
  SiftUp(heap_.size() - 1,
         Entry{tick, Key(priority, seq), event.b, event.a, event.kind});
  ++live_;
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kEvqPushed);
    reg.Add(obs::MetricId::kEvqHeapSifts);
    reg.GaugeSet(obs::MetricId::kEvqDepth, live_);
    reg.GaugeMax(obs::MetricId::kEvqDepthPeak, live_);
  }
  return EventHandle{seq};
}

EventHandle EventQueue::PushArrivals(TickView ticks,
                                     std::uint32_t first_task) {
  assert(cursor_free());
  if (ticks.empty()) return {};
  const std::uint64_t first = IssueSequences(ticks.size());
  cursor_ = ArrivalCursor{ticks, 0, first, first_task};
  live_ += ticks.size();
  // Counted as ticks.size() pushes: the counters and the depth gauges end
  // where that many Push() calls would have left them.
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kEvqPushed, ticks.size());
    reg.Add(obs::MetricId::kEvqHeapSifts, ticks.size());
    reg.GaugeSet(obs::MetricId::kEvqDepth, live_);
    reg.GaugeMax(obs::MetricId::kEvqDepthPeak, live_);
  }
  return EventHandle{first};
}

bool EventQueue::Cancel(EventHandle handle) {
  const std::uint64_t seq = handle.sequence;
  if (seq < base_sequence_ || seq >= next_sequence_ || done(seq)) return false;
  MarkDone(seq);
  --live_;
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kEvqCancelled);
    reg.GaugeSet(obs::MetricId::kEvqDepth, live_);
  }
  return true;
}

void EventQueue::Reserve(std::size_t heap_events, std::size_t total_events) {
  heap_.reserve(heap_events);
  done_.reserve(total_events / 64 + 1);
}

void EventQueue::Clear() {
  // The dropped events count as cancelled, so the registry's flow
  // conservation (pushed == popped + cancelled + live) still holds.
  if (live_ > 0 && obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kEvqCancelled, live_);
    reg.GaugeSet(obs::MetricId::kEvqDepth, 0);
  }
  heap_.clear();
  cursor_ = ArrivalCursor{};
  done_.clear();
  base_sequence_ = next_sequence_;
  live_ = 0;
}

void EventQueue::SiftUp(std::size_t hole, Entry entry) {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!Later(heap_[parent], entry)) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void EventQueue::PopHeapTop() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first_child = hole * kArity + 1;
    if (first_child >= n) break;
    const std::size_t end = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (Later(heap_[best], heap_[c])) best = c;
    }
    if (!Later(last, heap_[best])) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
}

bool EventQueue::CursorFirst() const {
  if (cursor_free()) return false;
  if (heap_.empty()) return true;
  const std::size_t i = cursor_.next;
  return !Later(cursor_.ticks[i],
                Key(EventPriority::kArrival, cursor_.first_sequence + i),
                heap_.front().tick, heap_.front().key);
}

void EventQueue::DropDead() {
  for (;;) {
    if (CursorFirst()) {
      if (!done(cursor_.first_sequence + cursor_.next)) return;
      ++cursor_.next;
    } else {
      if (heap_.empty() || !done(heap_.front().sequence())) return;
      PopHeapTop();
    }
    if (obs::MetricsRegistry::enabled()) {
      auto& reg = obs::MetricsRegistry::Instance();
      reg.Add(obs::MetricId::kEvqDeadDropped);
      reg.Add(obs::MetricId::kEvqHeapSifts);
    }
  }
}

Tick EventQueue::next_tick() {
  DropDead();
  assert(live_ > 0);
  return CursorFirst() ? cursor_.ticks[cursor_.next] : heap_.front().tick;
}

FiredEvent EventQueue::Pop() {
  DropDead();
  assert(live_ > 0);
  FiredEvent fired;
  if (CursorFirst()) {
    const std::size_t i = cursor_.next++;
    fired.tick = cursor_.ticks[i];
    fired.priority = EventPriority::kArrival;
    fired.sequence = cursor_.first_sequence + i;
    fired.event = Event{EventKind::kArrival,
                        cursor_.first_task + static_cast<std::uint32_t>(i), 0};
  } else {
    const Entry& top = heap_.front();
    fired.tick = top.tick;
    fired.priority = top.priority();
    fired.sequence = top.sequence();
    fired.event = Event{top.kind, top.a, top.b};
    PopHeapTop();
  }
  MarkDone(fired.sequence);
  --live_;
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kEvqPopped);
    reg.Add(obs::MetricId::kEvqHeapSifts);
    reg.GaugeSet(obs::MetricId::kEvqDepth, live_);
  }
  return fired;
}

}  // namespace dreamsim::sim
