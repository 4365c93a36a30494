// Tests for the discrete-event kernel and its event queue.
#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "util/rng.hpp"

namespace dreamsim::sim {
namespace {

/// An event tagged with `tag` in its first operand.
Event Tagged(std::uint32_t tag) { return Event{EventKind::kCompletion, tag, 0}; }

/// Pops every live event and returns the tags in firing order.
std::vector<std::uint32_t> DrainTags(EventQueue& q) {
  std::vector<std::uint32_t> tags;
  while (!q.empty()) tags.push_back(q.Pop().event.a);
  return tags;
}

/// A workload-shaped record: the view must step over the other fields.
struct Arrival {
  std::uint64_t pad = 0;
  Tick at = 0;
  double weight = 0.0;
};

TickView TicksOf(const std::vector<Arrival>& arrivals) {
  return TickView::Of(arrivals.data(), arrivals.size(), &Arrival::at);
}

TEST(EventQueue, OrdersByTick) {
  EventQueue q;
  (void)q.Push(30, EventPriority::kArrival, Tagged(3));
  (void)q.Push(10, EventPriority::kArrival, Tagged(1));
  (void)q.Push(20, EventPriority::kArrival, Tagged(2));
  EXPECT_EQ(DrainTags(q), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueue, PriorityBreaksTickTies) {
  EventQueue q;
  (void)q.Push(5, EventPriority::kArrival, Tagged(3));
  (void)q.Push(5, EventPriority::kCompletion, Tagged(1));
  (void)q.Push(5, EventPriority::kControl, Tagged(2));
  EXPECT_EQ(DrainTags(q), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueue, SequenceBreaksRemainingTies) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 10; ++i) {
    (void)q.Push(1, EventPriority::kArrival, Tagged(i));
  }
  EXPECT_EQ(DrainTags(q),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  const EventHandle h = q.Push(1, EventPriority::kArrival, Tagged(1));
  (void)q.Push(2, EventPriority::kArrival, Tagged(2));
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_FALSE(q.Cancel(h));  // already cancelled
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(DrainTags(q), (std::vector<std::uint32_t>{2}));
}

TEST(EventQueue, NextTickSkipsCancelled) {
  EventQueue q;
  const EventHandle h = q.Push(1, EventPriority::kArrival, Tagged(1));
  (void)q.Push(9, EventPriority::kArrival, Tagged(2));
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_EQ(q.next_tick(), 9);
}

TEST(EventQueue, CancelRejectsExecutedAndUnknownHandles) {
  EventQueue q;
  const EventHandle h = q.Push(1, EventPriority::kControl, Tagged(1));
  EXPECT_FALSE(q.Cancel(EventHandle{}));
  EXPECT_FALSE(q.Cancel(EventHandle{h.sequence + 1}));
  (void)q.Pop();
  EXPECT_FALSE(q.Cancel(h));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CursorArrivalsMergeWithHeapOnTheSameKey) {
  EventQueue q;
  const std::vector<Arrival> arrivals = {{0, 5, 0}, {0, 5, 0}, {0, 8, 0}};
  const EventHandle before = q.Push(5, EventPriority::kArrival, Tagged(90));
  const EventHandle first = q.PushArrivals(TicksOf(arrivals), 100);
  EXPECT_EQ(first.sequence, before.sequence + 1);  // sequences as if pushed
  (void)q.Push(5, EventPriority::kArrival, Tagged(91));
  (void)q.Push(5, EventPriority::kCompletion, Tagged(92));
  (void)q.Push(8, EventPriority::kControl, Tagged(93));
  EXPECT_EQ(q.size(), 7u);
  EXPECT_EQ(q.cursor_pending(), 3u);
  std::vector<std::tuple<Tick, EventKind, std::uint32_t>> fired;
  while (!q.empty()) {
    const FiredEvent e = q.Pop();
    fired.emplace_back(e.tick, e.event.kind, e.event.a);
  }
  using F = std::tuple<Tick, EventKind, std::uint32_t>;
  EXPECT_EQ(fired, (std::vector<F>{{5, EventKind::kCompletion, 92},
                                   {5, EventKind::kCompletion, 90},
                                   {5, EventKind::kArrival, 100},
                                   {5, EventKind::kArrival, 101},
                                   {5, EventKind::kCompletion, 91},
                                   {8, EventKind::kCompletion, 93},
                                   {8, EventKind::kArrival, 102}}));
  EXPECT_TRUE(q.cursor_free());
}

TEST(Kernel, RunsEventsInOrderAndAdvancesClock) {
  Kernel k;
  std::vector<Tick> seen;
  (void)k.ScheduleAt(10, EventPriority::kArrival, Tagged(1));
  (void)k.ScheduleAt(5, EventPriority::kArrival, Tagged(2));
  k.Run([&](const FiredEvent&) { seen.push_back(k.now()); });
  EXPECT_EQ(seen, (std::vector<Tick>{5, 10}));
  EXPECT_EQ(k.now(), 10);
  EXPECT_TRUE(k.queue().empty());
}

TEST(Kernel, ScheduleAfterIsRelative) {
  Kernel k;
  Tick fired_at = -1;
  (void)k.ScheduleAt(7, EventPriority::kArrival, Tagged(1));
  k.Run([&](const FiredEvent& e) {
    if (e.event.a == 1) {
      (void)k.ScheduleAfter(3, EventPriority::kArrival, Tagged(2));
    } else {
      fired_at = k.now();
    }
  });
  EXPECT_EQ(fired_at, 10);
}

TEST(Kernel, RejectsPastAndNegative) {
  Kernel k;
  (void)k.ScheduleAt(5, EventPriority::kArrival, Tagged(1));
  k.Run([](const FiredEvent&) {});
  EXPECT_THROW((void)k.ScheduleAt(4, EventPriority::kArrival, Tagged(2)),
               std::invalid_argument);
  EXPECT_THROW((void)k.ScheduleAfter(-1, EventPriority::kArrival, Tagged(3)),
               std::invalid_argument);
  const std::vector<Arrival> late = {{0, 9, 0}, {0, 4, 0}};
  EXPECT_THROW(k.ScheduleArrivals(TicksOf(late), 0), std::invalid_argument);
  EXPECT_TRUE(k.queue().empty());
}

TEST(Kernel, EventsCanScheduleEvents) {
  Kernel k;
  int chain = 0;
  (void)k.ScheduleAt(0, EventPriority::kArrival, Tagged(0));
  k.Run([&](const FiredEvent&) {
    if (++chain < 5) {
      (void)k.ScheduleAfter(1, EventPriority::kArrival, Tagged(0));
    }
  });
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(k.now(), 4);
}

TEST(Kernel, CancelPreventsExecution) {
  Kernel k;
  int ran = 0;
  const EventHandle h = k.ScheduleAt(5, EventPriority::kArrival, Tagged(1));
  EXPECT_TRUE(k.Cancel(h));
  k.Run([&](const FiredEvent&) { ++ran; });
  EXPECT_EQ(ran, 0);
}

TEST(Kernel, ScheduleArrivalsUsesTheCursorOnlyForOrderedInput) {
  Kernel k;
  const std::vector<Arrival> ordered = {{0, 3, 0}, {0, 3, 0}, {0, 7, 0}};
  k.ScheduleArrivals(TicksOf(ordered), 10);
  EXPECT_EQ(k.queue().cursor_pending(), 3u);
  // The cursor is taken: a second array goes to the heap, as does an
  // unordered one.
  const std::vector<Arrival> more = {{0, 4, 0}};
  k.ScheduleArrivals(TicksOf(more), 13);
  EXPECT_EQ(k.queue().cursor_pending(), 3u);
  EXPECT_EQ(k.queue().size(), 4u);
  std::vector<std::pair<Tick, std::uint32_t>> fired;
  k.Run([&](const FiredEvent& e) {
    EXPECT_EQ(e.event.kind, EventKind::kArrival);
    fired.emplace_back(e.tick, e.event.a);
  });
  EXPECT_EQ(fired, (std::vector<std::pair<Tick, std::uint32_t>>{
                       {3, 10}, {3, 11}, {4, 13}, {7, 12}}));
  const std::vector<Arrival> unordered = {{0, 9, 0}, {0, 8, 0}};
  k.ScheduleArrivals(TicksOf(unordered), 20);
  EXPECT_EQ(k.queue().cursor_pending(), 0u);
  EXPECT_EQ(k.queue().size(), 2u);
}

// --- Differential fuzz against a reference model ----------------------------

using FiredKey = std::tuple<Tick, EventPriority, std::uint64_t, EventKind,
                            std::uint32_t, std::uint64_t>;

FiredKey KeyOf(const FiredEvent& e) {
  return {e.tick, e.priority, e.sequence, e.event.kind, e.event.a, e.event.b};
}

/// Every event in one std::priority_queue, the live sequences in a
/// std::set: the obvious kernel the typed one must be indistinguishable
/// from.
class ReferenceKernel {
 public:
  std::uint64_t Push(Tick tick, EventPriority priority, Event event) {
    const std::uint64_t seq = next_++;
    heap_.push({tick, priority, seq, event.kind, event.a, event.b});
    live_.insert(seq);
    return seq;
  }
  bool Cancel(std::uint64_t seq) { return live_.erase(seq) > 0; }
  [[nodiscard]] std::size_t size() const { return live_.size(); }
  [[nodiscard]] std::uint64_t next_sequence() const { return next_; }
  /// The earliest live event, without removing it. Precondition: size() > 0.
  const FiredKey& Top() {
    while (live_.count(std::get<2>(heap_.top())) == 0) heap_.pop();
    return heap_.top();
  }
  FiredKey Pop() {
    const FiredKey top = Top();
    heap_.pop();
    live_.erase(std::get<2>(top));
    return top;
  }

 private:
  std::priority_queue<FiredKey, std::vector<FiredKey>, std::greater<>> heap_;
  std::set<std::uint64_t> live_;
  std::uint64_t next_ = 1;
};

class KernelFuzz {
 public:
  explicit KernelFuzz(std::uint64_t seed) : rng_(seed) {}

  /// Each round pushes, cancels and submits arrivals on an idle kernel,
  /// then runs it dry while the handlers push, cancel and submit as the
  /// simulator's do, until their budget runs out.
  void Go(int rounds) {
    for (int round = 0; round < rounds && !::testing::Test::HasFailure();
         ++round) {
      SubmitArrivals(/*ordered=*/true, /*max_count=*/40);
      const std::int64_t ops = rng_.uniform_int(0, 12);
      for (std::int64_t op = 0; op < ops; ++op) {
        switch (rng_.uniform_int(0, 2)) {
          case 0: PushRandom(); break;
          case 1: CancelRandom(); break;
          default: SubmitArrivals(rng_.uniform_int(0, 3) != 0, 30); break;
        }
        ASSERT_EQ(kernel_.queue().size(), ref_.size()) << "round " << round;
      }
      handler_ops_ = rng_.uniform_int(0, 300);
      kernel_.Run([this](const FiredEvent& e) { Fire(e); });
      ASSERT_TRUE(kernel_.queue().empty()) << "round " << round;
      ASSERT_EQ(ref_.size(), 0u) << "round " << round;
    }
    EXPECT_GT(fired_, 0u);
  }

 private:
  Tick Delay() {
    return rng_.uniform_int(0, 3) == 0 ? 0 : rng_.uniform_int(0, 40);
  }

  void PushRandom() {
    const auto priority = static_cast<EventPriority>(rng_.uniform_int(0, 2));
    const Event event{static_cast<EventKind>(rng_.uniform_int(1, 4)),
                      static_cast<std::uint32_t>(rng_.uniform_int(0, 1000)),
                      static_cast<std::uint64_t>(rng_.uniform_int(0, 1 << 20))};
    const Tick delay = Delay();
    const EventHandle h = kernel_.ScheduleAfter(delay, priority, event);
    ASSERT_EQ(h.sequence, ref_.Push(kernel_.now() + delay, priority, event));
  }

  /// Live, executed, cancelled and never-issued handles alike.
  void CancelRandom() {
    const auto seq = static_cast<std::uint64_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(ref_.next_sequence()) + 2));
    ASSERT_EQ(kernel_.Cancel(EventHandle{seq}), ref_.Cancel(seq))
        << "seq " << seq;
  }

  /// A batch of arrivals with tick ties, ordered or shuffled; an ordered
  /// one becomes the cursor whenever the cursor is free.
  void SubmitArrivals(bool ordered, std::int64_t max_count) {
    std::vector<Arrival>& batch = batches_.emplace_back();
    const std::int64_t n = rng_.uniform_int(1, max_count);
    Tick at = kernel_.now() + Delay();
    for (std::int64_t i = 0; i < n; ++i) {
      if (rng_.uniform_int(0, 2) == 0) at += rng_.uniform_int(1, 15);
      batch.push_back({0, at, 0.0});
    }
    if (!ordered) {
      for (std::size_t i = batch.size(); i > 1; --i) {
        std::swap(batch[i - 1],
                  batch[static_cast<std::size_t>(rng_.uniform_int(
                      0, static_cast<std::int64_t>(i) - 1))]);
      }
    }
    kernel_.ScheduleArrivals(TicksOf(batch), next_task_);
    for (const Arrival& a : batch) {
      (void)ref_.Push(a.at, EventPriority::kArrival,
                      Event{EventKind::kArrival, next_task_++, 0});
    }
  }

  void Fire(const FiredEvent& e) {
    ++fired_;
    ASSERT_GT(ref_.size(), 0u);
    ASSERT_EQ(KeyOf(e), ref_.Pop());
    ASSERT_EQ(kernel_.now(), e.tick);
    if (handler_ops_ > 0) {
      --handler_ops_;
      switch (rng_.uniform_int(0, 19)) {
        case 0: case 1: case 2: case 3: case 4: case 5: PushRandom(); break;
        case 6: case 7: CancelRandom(); break;
        case 8: SubmitArrivals(true, 4); break;
        default: break;
      }
    }
    ASSERT_EQ(kernel_.queue().size(), ref_.size());
  }

  Rng rng_;
  Kernel kernel_;
  ReferenceKernel ref_;
  std::deque<std::vector<Arrival>> batches_;  // outlive the kernel's reads
  std::uint32_t next_task_ = 0;
  std::uint64_t fired_ = 0;
  std::int64_t handler_ops_ = 0;  // handler pushes/cancels left this round
};

TEST(KernelFuzz, MatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    KernelFuzz(seed).Go(12);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace dreamsim::sim
