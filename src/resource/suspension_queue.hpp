// Suspension queue (the SusList of the UML model).
//
// Tasks that cannot be placed now — but for which a currently busy node with
// sufficient TotalArea exists — wait here; "each time a node finishes
// executing a task, the suspension queue is checked ... to determine if a
// suitable task is waiting in the queue which can be executed".
//
// Layout. Every enqueued task gets the next insertion seq, which is its
// slot in an append-only slot array. Removal leaves a tombstone and unlinks
// the slot from a doubly-linked list threaded through the live slots in
// seq (= FIFO) order, so walks and front pops visit live entries only.
// Drains address entries by seq; a Fenwick tree of live seqs converts a
// seq to its FIFO position where a step charge needs one. The drain
// attributes sit in arrays by seq (the priority only in a priority-order
// queue, the one order that reads it), and a dense array by TaskId value
// maps each queued task to its seq. Every per-entry cell is a flat array
// cell: enqueueing allocates nothing beyond amortized array growth.
//
// With the drain index enabled (the default) the queue keeps a
// SusQueueIndex over its seqs in sync, so membership tests and drain
// candidate selection run in O(log Q) host work; every counted operation
// still charges the WorkloadMeter exactly what the literal FIFO scan would
// have charged (DESIGN.md "Scheduler index").
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "resource/index_primitives.hpp"
#include "resource/sus_queue_index.hpp"
#include "resource/workload_meter.hpp"
#include "util/types.hpp"

namespace dreamsim::resource {

/// FIFO of suspended tasks with counted traversals. An optional capacity
/// bound lets failure-injection tests exercise overflow handling.
class SuspensionQueue {
 public:
  /// An entry's insertion seq: its FIFO rank among all entries ever
  /// queued, stable while it stays queued.
  using Seq = std::uint32_t;

 private:
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// One insertion seq. `task` is invalid once the entry left the queue
  /// (a tombstone); live slots are linked in seq order.
  struct Slot {
    TaskId task;
    std::uint32_t prev = kNoSlot;
    std::uint32_t next = kNoSlot;
  };

 public:
  /// Forward iterator over the queued tasks in FIFO order (oldest first).
  /// Appending keeps it valid; removing the entry it points at does not.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TaskId;
    using difference_type = std::ptrdiff_t;
    using pointer = const TaskId*;
    using reference = TaskId;

    const_iterator() = default;
    TaskId operator*() const { return (*slots_)[slot_].task; }
    const_iterator& operator++() {
      slot_ = (*slots_)[slot_].next;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.slot_ == b.slot_;
    }
    /// The seq of the entry pointed at.
    [[nodiscard]] Seq seq() const { return slot_; }

   private:
    friend class SuspensionQueue;
    const_iterator(const std::vector<Slot>* slots, std::uint32_t slot)
        : slots_(slots), slot_(slot) {}

    const std::vector<Slot>* slots_ = nullptr;
    std::uint32_t slot_ = kNoSlot;
  };

  /// `capacity` of 0 means unbounded. `order` is the drain order the index
  /// serves once enabled (SimulationConfig::priority_scheduling).
  explicit SuspensionQueue(std::size_t capacity = 0,
                           SusOrder order = SusOrder::kFifo)
      : capacity_(capacity), order_(order) {}

  /// AddTaskToSusQueue(): appends the task. Returns false when the queue is
  /// at capacity (caller then discards the task). The overload without
  /// attributes indexes the task with default attributes.
  [[nodiscard]] bool Add(TaskId task, WorkloadMeter& meter) {
    return Add(task, SusEntryAttrs{}, meter);
  }
  [[nodiscard]] bool Add(TaskId task, const SusEntryAttrs& attrs,
                         WorkloadMeter& meter);

  /// RemoveTaskFromSusQueue(): removes and returns the first (oldest) task
  /// satisfying `pred`; counted scan in FIFO order. Popping the front is
  /// O(1), so discarding a whole queue this way is linear.
  template <typename Pred>
  [[nodiscard]] std::optional<TaskId> PopFirstMatching(Pred&& pred,
                                                       WorkloadMeter& meter) {
    obs::MetricInc(obs::MetricId::kSusqScanFallback);
    for (std::uint32_t slot = head_; slot != kNoSlot;
         slot = slots_[slot].next) {
      meter.Add(StepKind::kHousekeeping);
      const TaskId task = slots_[slot].task;
      if (pred(task)) {
        Unlink(slot);
        return task;
      }
    }
    return std::nullopt;
  }

  /// SearchSusQueue(): counted membership test. Answered from the seq
  /// table (O(log Q) host work) when the index is enabled, by literal scan
  /// otherwise; the meter charge is the scan's either way (position + 1 on
  /// a hit, queue size on a miss).
  [[nodiscard]] bool Contains(TaskId task, WorkloadMeter& meter) const;

  /// Removes a specific task (e.g. when its retry budget is exhausted).
  /// Same indexed-or-scan split and charge contract as Contains().
  bool Remove(TaskId task, WorkloadMeter& meter);

  /// Removes the queued entry `seq`. Used by callers that already paid
  /// the traversal to it; charges one housekeeping step for the unlink
  /// itself. Throws std::out_of_range when `seq` is not queued.
  void RemoveSeq(Seq seq, WorkloadMeter& meter);

  /// The task queued as `seq` (uncounted, O(1)); invalid once the entry
  /// left the queue.
  [[nodiscard]] TaskId TaskAt(Seq seq) const {
    return seq < slots_.size() ? slots_[seq].task : TaskId::invalid();
  }

  /// The FIFO position (0 = oldest) of the queued entry `seq` (uncounted,
  /// O(log Q)): the entries a FIFO walk visits before reaching it.
  [[nodiscard]] std::size_t PositionOf(Seq seq) const {
    return live_.Prefix(seq);
  }

  /// Enables or disables the drain index, rebuilding it from the current
  /// queue content (attributes are retained across toggles).
  void SetDrainIndexed(bool enabled);
  [[nodiscard]] bool drain_indexed() const { return index_ != nullptr; }

  // --- Indexed drain queries (require drain_indexed()) ---
  // Decision mirrors of the Simulator::DrainSuspensionQueue scans; the
  // caller charges the analytic step counts. See SusQueueIndex. The FIFO
  // queries need a FIFO-order queue, the priority queries a priority-order
  // one (std::logic_error otherwise). That caller-charges contract is why
  // these thin delegates carry `lint: allow(uncharged-index-query)` —
  // dreamsim_lint's R3 otherwise requires a WorkloadMeter charge next to
  // every drain-query call. Answers are seqs; PositionOf turns one into
  // the FIFO position a charge needs.

  [[nodiscard]] std::optional<Seq> OldestExactMatch(ConfigId config) const {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kSusQueueQuery);
    obs::MetricInc(obs::MetricId::kSusqQueryOldestExact);
    // lint: allow(uncharged-index-query)
    return AsSeq(index_->OldestExactMatch(config));
  }
  [[nodiscard]] std::optional<Seq> BestPriorityExactMatch(
      ConfigId config) const {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kSusQueueQuery);
    obs::MetricInc(obs::MetricId::kSusqQueryBestPrioExact);
    // lint: allow(uncharged-index-query)
    return AsSeq(index_->BestPriorityExactMatch(config));
  }
  /// `from` is a seq cursor: entries queued before it are skipped.
  [[nodiscard]] std::optional<Seq> OldestEligible(FamilyId family,
                                                  Area area_bound, Seq from,
                                                  ConfigId match_config) const {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kSusQueueQuery);
    obs::MetricInc(obs::MetricId::kSusqQueryOldestEligible);
    return AsSeq(
        // lint: allow(uncharged-index-query)
        index_->OldestEligible(family, area_bound, from, match_config));
  }
  [[nodiscard]] std::optional<Seq> BestPriorityEligible(
      FamilyId family, Area area_bound, ConfigId match_config) const {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kSusQueueQuery);
    obs::MetricInc(obs::MetricId::kSusqQueryBestPrioEligible);
    // lint: allow(uncharged-index-query)
    return AsSeq(index_->BestPriorityEligible(family, area_bound,
                                              match_config));
  }

  [[nodiscard]] std::size_t size() const { return live_.Total(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] const_iterator begin() const { return {&slots_, head_}; }
  [[nodiscard]] const_iterator end() const { return {&slots_, kNoSlot}; }

  /// Pre-reserves the per-seq arrays for `expected` entries and the seq
  /// table for task ids below `expected`.
  void Reserve(std::size_t expected) {
    slots_.reserve(expected);
    attrs_.reserve(expected);
    if (order_ == SusOrder::kPriority) priorities_.reserve(expected);
    seq_of_task_.reserve(expected);
  }

 private:
  // Correctness tooling (src/analysis): read-only ground-truth diffing and
  // test-only seeded corruption. See entry_list.hpp.
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  [[nodiscard]] static std::optional<Seq> AsSeq(
      std::optional<std::uint64_t> seq) {
    if (!seq) return std::nullopt;
    return static_cast<Seq>(*seq);
  }

  /// The drain attributes of seq `seq` but its priority, which only a
  /// priority-order queue keeps (in priorities_).
  struct StoredAttrs {
    ConfigId resolved_config;
    FamilyId config_family;
    Area needed_area = 0;
  };

  /// The attributes seq `seq` was enqueued with (priority 0 in a
  /// FIFO-order queue).
  [[nodiscard]] SusEntryAttrs AttrsAt(std::uint32_t seq) const {
    const StoredAttrs& a = attrs_[seq];
    return {a.resolved_config, a.config_family, a.needed_area,
            order_ == SusOrder::kPriority ? priorities_[seq] : 0.0};
  }

  /// The seq of a queued `task`, or kNoSlot.
  [[nodiscard]] std::uint32_t SeqOf(TaskId task) const {
    return task.value() < seq_of_task_.size() ? seq_of_task_[task.value()]
                                              : kNoSlot;
  }

  /// Removes the live slot `seq` from the list, the live tree, the seq
  /// table and the index (uncounted; callers charge per their own
  /// contract).
  void Unlink(std::uint32_t seq);

  std::size_t capacity_;
  SusOrder order_;
  std::vector<Slot> slots_;            // by seq; append-only
  std::vector<StoredAttrs> attrs_;     // by seq; append-only
  std::vector<double> priorities_;     // by seq; priority order only
  std::uint32_t head_ = kNoSlot;       // oldest live slot
  std::uint32_t tail_ = kNoSlot;       // newest live slot
  CountTree live_;                     // seq -> 1 while queued
  std::vector<std::uint32_t> seq_of_task_;  // by TaskId value; kNoSlot
  std::unique_ptr<SusQueueIndex> index_;
};

}  // namespace dreamsim::resource
