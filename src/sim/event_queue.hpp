// Deterministic pending-event set for the simulation kernel.
//
// Ordering is (tick, priority, sequence): sequence is a monotonically
// increasing insertion counter, so ties are broken by scheduling order and a
// (seed, configuration) pair fully determines a run.
//
// Events are plain data: a kind and two integer operands that the owner of
// the kernel interprets (sim/ only ever creates arrivals). Two sources feed
// the queue:
//   - a flat 4-ary heap of 32-byte entries for events created while the
//     run goes (completions, fault control, single submissions), O(log n)
//     push and pop;
//   - one arrival cursor over a caller-owned, already time-ordered array of
//     arrival ticks, registered in one call. Its arrivals never enter the
//     heap: Pop() merges the cursor head with the heap top on the same key.
// Executed and cancelled sequences are marked in a sequence-indexed bitset,
// so cancellation is O(1) and a cancelled heap entry is dropped lazily when
// it reaches the top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/types.hpp"

namespace dreamsim::analysis {
class StructureAuditor;    // correctness tooling (src/analysis); read-only
class StructureCorruptor;  // test-only seeded-corruption injector
}  // namespace dreamsim::analysis

namespace dreamsim::sim {

/// Coarse event classes; lower value runs first within a tick. Completions
/// precede arrivals so a node freed at tick T can serve a task arriving at T.
enum class EventPriority : std::uint8_t {
  kCompletion = 0,
  kControl = 1,
  kArrival = 2,
  kHousekeeping = 3,
};

/// What an event means to the kernel's owner. The queue never interprets
/// the kind; the arrival cursor is the one place sim/ creates an event
/// (kArrival with `a` = task id).
enum class EventKind : std::uint8_t {
  kArrival,        ///< a = task id
  kCompletion,     ///< a = task id, b = packed placement entry
  kNodeFailure,    ///< a = node id (random fault process)
  kNodeRepair,     ///< a = node id (random fault process)
  kScriptedFault,  ///< a = fault-script index
};

/// Event payload: plain data, copied into the heap entry.
struct Event {
  EventKind kind = EventKind::kArrival;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
};

/// Identifies a scheduled event for cancellation.
struct EventHandle {
  std::uint64_t sequence = 0;
  [[nodiscard]] constexpr bool valid() const { return sequence != 0; }
};

/// An event removed from the queue for execution.
struct FiredEvent {
  Tick tick = 0;
  EventPriority priority = EventPriority::kCompletion;
  std::uint64_t sequence = 0;
  Event event;
};

/// Non-owning view of a Tick field in each element of a caller-owned array
/// (for example the create_time of every task of a workload), read without
/// copying. The array must outlive every use of the view.
class TickView {
 public:
  TickView() = default;

  /// Views `items[i].*field` for i in [0, count).
  template <typename T>
  static TickView Of(const T* items, std::size_t count, const Tick T::*field) {
    TickView view;
    if (count == 0) return view;
    view.first_ = reinterpret_cast<const unsigned char*>(&(items->*field));
    view.stride_ = sizeof(T);
    view.size_ = count;
    return view;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] Tick operator[](std::size_t i) const {
    Tick tick = 0;
    std::memcpy(&tick, first_ + i * stride_, sizeof tick);
    return tick;
  }

 private:
  const unsigned char* first_ = nullptr;
  std::size_t stride_ = 0;
  std::size_t size_ = 0;
};

/// Pending-event set: a typed heap plus one arrival cursor, with
/// bitset-backed lazy cancellation.
class EventQueue {
 public:
  /// Enqueues `event` at `tick`; returns a handle usable with Cancel().
  EventHandle Push(Tick tick, EventPriority priority, Event event);

  /// True when the arrival cursor has no arrival left, so PushArrivals()
  /// may register a new array.
  [[nodiscard]] bool cursor_free() const {
    return cursor_.next >= cursor_.ticks.size();
  }

  /// Registers `ticks.size()` arrivals as the cursor: arrival i fires at
  /// ticks[i] with Event{kArrival, first_task + i} and sequence s0 + i,
  /// the sequences that as many Push() calls would have issued. Returns
  /// the handle of arrival 0 (arrival i has sequence handle + i).
  /// Preconditions: cursor_free(), ticks non-decreasing, and the array
  /// behind `ticks` outlives every arrival of the cursor.
  EventHandle PushArrivals(TickView ticks, std::uint32_t first_task);

  /// Marks an event as cancelled; it is skipped when reached.
  /// Returns false if the handle was already executed/cancelled/unknown.
  bool Cancel(EventHandle handle);

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live (not cancelled, not executed) events, pending cursor
  /// arrivals included.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Arrivals left in the cursor (cancelled ones included).
  [[nodiscard]] std::size_t cursor_pending() const {
    return cursor_free() ? 0 : cursor_.ticks.size() - cursor_.next;
  }

  /// Tick of the earliest live event. Precondition: !empty().
  [[nodiscard]] Tick next_tick();

  /// Removes and returns the earliest live event. Precondition: !empty().
  [[nodiscard]] FiredEvent Pop();

  /// Pre-reserves room for `heap_events` simultaneously pending heap
  /// entries and for the done bits of `total_events` sequences.
  void Reserve(std::size_t heap_events, std::size_t total_events);

  /// Drops every pending event without executing it. Handles issued
  /// before the call become unknown (Cancel() returns false).
  void Clear();

 private:
  // Correctness tooling (src/analysis): read-only ground-truth diffing and
  // test-only seeded corruption. See resource/entry_list.hpp.
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  /// Heap entry. `key` packs (priority << kSeqBits) | sequence, so one
  /// integer comparison orders tick ties by priority, then by sequence.
  struct Entry {
    Tick tick = 0;
    std::uint64_t key = 0;
    std::uint64_t b = 0;
    std::uint32_t a = 0;
    EventKind kind = EventKind::kArrival;

    [[nodiscard]] std::uint64_t sequence() const { return key & kSeqMask; }
    [[nodiscard]] EventPriority priority() const {
      return static_cast<EventPriority>(key >> kSeqBits);
    }
  };
  static constexpr unsigned kSeqBits = 56;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;
  static constexpr std::size_t kArity = 4;
  static_assert(sizeof(Entry) <= 32, "a heap entry must fit in 32 bytes");

  static constexpr std::uint64_t Key(EventPriority priority,
                                     std::uint64_t sequence) {
    return (static_cast<std::uint64_t>(priority) << kSeqBits) | sequence;
  }
  /// True when `a` fires after `b`.
  static bool Later(Tick a_tick, std::uint64_t a_key, Tick b_tick,
                    std::uint64_t b_key) {
    return a_tick != b_tick ? a_tick > b_tick : a_key > b_key;
  }
  static bool Later(const Entry& a, const Entry& b) {
    return Later(a.tick, a.key, b.tick, b.key);
  }

  /// The registered arrival array and the position of its next arrival.
  struct ArrivalCursor {
    TickView ticks;
    std::size_t next = 0;
    std::uint64_t first_sequence = 0;
    std::uint32_t first_task = 0;
  };

  [[nodiscard]] bool done(std::uint64_t sequence) const {
    const std::uint64_t bit = sequence - base_sequence_;
    return ((done_[bit / 64] >> (bit % 64)) & 1u) != 0;
  }
  void MarkDone(std::uint64_t sequence) {
    const std::uint64_t bit = sequence - base_sequence_;
    done_[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  /// Issues `count` sequences and grows the done bitset to cover them.
  std::uint64_t IssueSequences(std::uint64_t count);

  /// True when the earliest pending entry is the cursor head.
  [[nodiscard]] bool CursorFirst() const;
  /// Drops cancelled entries off the front of both sources.
  void DropDead();

  void SiftUp(std::size_t hole, Entry entry);
  void PopHeapTop();

  std::vector<Entry> heap_;
  ArrivalCursor cursor_;
  /// Bit (s - base_sequence_) is set once sequence s executed or was
  /// cancelled; sequences below base_sequence_ predate the last Clear().
  std::vector<std::uint64_t> done_;
  std::uint64_t base_sequence_ = 1;
  std::uint64_t next_sequence_ = 1;
  std::size_t live_ = 0;
};

}  // namespace dreamsim::sim
