// Suspension queue (the SusList of the UML model).
//
// Tasks that cannot be placed now — but for which a currently busy node with
// sufficient TotalArea exists — wait here; "each time a node finishes
// executing a task, the suspension queue is checked ... to determine if a
// suitable task is waiting in the queue which can be executed".
//
// Layout. Every enqueued task gets the next insertion seq, which is its
// cell in an append-only cell array, so FIFO order is seq order and no
// link list is needed. A cell holds the task and the configuration it
// resolved to (8 bytes); everything else a drain reads about the task
// stays where it already is: the needed area in the task's spec, the
// priority in the task store's priority column (read only in priority
// order), the family in the catalogue entry of the configuration.
// None of them changes while the task is queued. Removal leaves a
// tombstone (an invalid TaskId) in its cell, and a bitset of live seqs
// with a Fenwick tree over its 64-seq word counts (0.19 bytes per seq)
// converts a seq to its FIFO position where a step charge needs one.
// `head_` is the oldest live seq: when the head leaves it steps forward
// by bit scan and never moves back, so front pops are amortized O(1), and
// every walk steps from it, skipping tombstones (a walk charges its live
// entries only). One bit per TaskId value marks the queued tasks, which
// is all Add's double-enqueue check needs. A queued task costs its cell,
// its live bit and that queued bit: enqueueing allocates nothing beyond
// amortized array growth.
//
// The queue owns the completion drain (DrainFull, DrainPartial): the
// drain order, the choice between the literal walk and the index, the
// resumable FIFO cursor and every step charge. A FIFO-order queue with
// the drain index enabled (the default) keeps a SusQueueIndex over its
// seqs in sync, so drain candidate selection runs in O(log Q) host work;
// every drain still charges the WorkloadMeter exactly what the literal
// walk would have charged (DESIGN.md "Scheduler index"). A priority-order
// queue always drains by its literal walks (DESIGN.md §9.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "resource/config.hpp"
#include "resource/index_primitives.hpp"
#include "resource/sus_queue_index.hpp"
#include "resource/task.hpp"
#include "resource/workload_meter.hpp"
#include "util/run_vector.hpp"
#include "util/types.hpp"

namespace dreamsim::resource {

class Node;
class ResourceStore;

/// The drain order of a SuspensionQueue: FIFO (oldest first) or priority
/// (highest priority first, FIFO tie-break).
enum class SusOrder : std::uint8_t { kFifo, kPriority };

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
    TaskId operator*() const { return queue_->entries_[seq_].task; }
    const_iterator& operator++() {
      seq_ = queue_->NextLive(seq_ + 1);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.seq_ == b.seq_;
    }
    /// The seq of the entry pointed at.
    [[nodiscard]] Seq seq() const { return seq_; }

   private:
    friend class SuspensionQueue;
    const_iterator(const SuspensionQueue* queue, std::uint32_t seq)
        : queue_(queue), seq_(seq) {}

    const SuspensionQueue* queue_ = nullptr;
    std::uint32_t seq_ = kNoSlot;
  };

  /// `tasks` and `configs` are where the queue reads a queued task's area,
  /// priority and family; both must outlive the queue. `capacity` of 0
  /// means unbounded. `order` is the drain order
  /// (SimulationConfig::priority_scheduling).
  SuspensionQueue(const TaskStore& tasks, const ConfigCatalogue& configs,
                  std::size_t capacity = 0, SusOrder order = SusOrder::kFifo)
      : tasks_(&tasks),
        configs_(&configs),
        capacity_(capacity),
        order_(order) {}

  /// AddTaskToSusQueue(): appends the task. Returns false when the queue is
  /// at capacity (caller then discards the task).
  /// `config` is the configuration the task resolved to (invalid: none).
  [[nodiscard]] bool Add(TaskId task, ConfigId config, WorkloadMeter& meter);

  /// Removes and returns the oldest task; charges one housekeeping step
  /// (the literal scan visits the front and stops). An empty queue answers
  /// nullopt and charges nothing.
  std::optional<TaskId> PopFront(WorkloadMeter& meter);

  /// Removes the queued entry `seq`. Used by callers that already paid
  /// the traversal to it; charges one housekeeping step for the unlink
  /// itself. Throws std::out_of_range when `seq` is not queued.
  void RemoveSeq(Seq seq, WorkloadMeter& meter);

  /// The task queued as `seq` (uncounted, O(1)); invalid once the entry
  /// left the queue.
  [[nodiscard]] TaskId TaskAt(Seq seq) const {
    return seq < entries_.size() ? entries_[seq].task : TaskId::invalid();
  }

  /// The drain attributes of the queued entry `seq` (uncounted, O(1)): its
  /// cell's config, that config's family and the task's area.
  [[nodiscard]] SusEntryAttrs AttrsAt(Seq seq) const;

  /// The FIFO position (0 = oldest) of the queued entry `seq` (uncounted,
  /// O(log Q)): the entries a FIFO walk visits before reaching it.
  [[nodiscard]] std::size_t PositionOf(Seq seq) const {
    return live_.Prefix(seq);
  }

  /// Enables or disables the drain index, rebuilding it from the current
  /// queue content. Only a FIFO-order queue builds one: a priority-order
  /// queue ignores `enabled` and keeps draining by its walks.
  void SetDrainIndexed(bool enabled);
  [[nodiscard]] bool drain_indexed() const { return index_ != nullptr; }

  // --- Completion drains: RemoveTaskFromSusQueue() (DESIGN.md §9.1) ---
  //
  // "Each time a node finishes executing a task, the suspension queue is
  // checked ... to determine if a suitable task is waiting in the queue
  // which can be executed on the node." A drain names the node whose entry
  // carrying `freed_config` just freed (invalid after a repair: a revived
  // node carries nothing to reuse) and hands each chosen entry's seq to
  // `attempt`, which runs the scheduling policy on it and removes the
  // entry (RemoveSeq) when it is placed or dropped. The queue's order
  // (FIFO, or highest priority with FIFO tie-break) picks among the
  // candidates. A FIFO drain has two halves with one contract: the literal
  // walk charges one scheduling-search step per visited entry, and the
  // index answers in O(log Q) host work and charges what that walk would
  // have. Decisions and charges are identical either way. A priority drain
  // is the walk alone.

  /// Full reconfiguration: the entry that wants exactly `freed_config`
  /// or, only when no entry does, the entry the node's whole fabric could
  /// be reconfigured to fit; at most one attempt. Charges the whole queue
  /// (the walk checks every entry).
  template <typename Attempt>
  void DrainFull(const ResourceStore& store, NodeId node,
                 ConfigId freed_config, WorkloadMeter& meter,
                 Attempt&& attempt) {
    if (empty()) return;
    const std::optional<Seq> pick =
        index_ ? IndexedFull(store, node, freed_config, meter)
               : ScanFull(store, node, freed_config, meter);
    if (pick) attempt(*pick);
  }

  /// Partial reconfiguration: entries the node could use — an exact
  /// `freed_config` match, or family-compatible with an area the node
  /// could host now or after reclaiming its idle entries — attempted until
  /// `batch` attempts ran (0: as many as entries were queued), an attempt
  /// leaves its entry queued (a repeat would loop), or no candidate is
  /// left. A FIFO queue resumes one walk after each attempt; a priority
  /// queue walks the whole queue for each pick, the last one that finds
  /// nothing too.
  template <typename Attempt>
  void DrainPartial(const ResourceStore& store, NodeId node,
                    ConfigId freed_config, std::size_t batch,
                    WorkloadMeter& meter, Attempt&& attempt) {
    if (empty()) return;
    const std::size_t max_attempts = batch == 0 ? size() : batch;
    // No live seq lies below the head, so the index may start there.
    FifoCursor cursor{head_, 0};
    for (std::size_t attempts = 0; attempts < max_attempts; ++attempts) {
      std::optional<Seq> next;
      if (order_ == SusOrder::kPriority) {
        next = ScanBest(store, node, freed_config, meter);
      } else {
        next = index_ ? IndexedNext(store, node, freed_config, cursor, meter)
                      : ScanNext(store, node, freed_config, cursor, meter);
      }
      if (!next) return;
      attempt(*next);
      if (TaskAt(*next).valid()) return;
    }
  }

  [[nodiscard]] std::size_t size() const { return live_.Total(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] const_iterator begin() const {
    return {this, head_ < entries_.size() ? head_ : kNoSlot};
  }
  [[nodiscard]] const_iterator end() const { return {this, kNoSlot}; }

  /// Pre-reserves the per-seq arrays for `expected` entries, the drain
  /// index's included (an index enabled later reserves as much), and the
  /// queued bits for task ids below `expected`.
  void Reserve(std::size_t expected) {
    entries_.reserve(expected);
    live_.Reserve(expected);
    queued_.reserve((expected + kWordBits - 1) / kWordBits);
    if (index_) index_->Reserve(expected);
  }

 private:
  // Correctness tooling (src/analysis): read-only ground-truth diffing and
  // test-only seeded corruption. See entry_list.hpp.
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  /// One seq's cell: the task (invalid once it left) and the config it
  /// resolved to.
  struct Cell {
    TaskId task;
    ConfigId config;
  };
  static_assert(sizeof(Cell) == 8);

  /// Where a FIFO drain's walk resumes: the first seq it may pick (the
  /// literal walk steps on from it) and that seq's FIFO position (the
  /// index, which needs the position for its charges).
  struct FifoCursor {
    Seq from = 0;
    std::size_t index = 0;
  };

  static constexpr std::size_t kWordBits = 64;

  /// The first live seq at or after `seq`, or kNoSlot.
  [[nodiscard]] std::uint32_t NextLive(std::uint32_t seq) const {
    const std::size_t next = live_.NextSet(seq);
    return next < entries_.size() ? static_cast<std::uint32_t>(next)
                                  : kNoSlot;
  }
  /// The spec of the task queued as `seq`.
  [[nodiscard]] const TaskSpec& SpecAt(std::uint32_t seq) const {
    return tasks_->Spec(entries_[seq].task);
  }
  /// The priority of the task queued as `seq` (priority-order walks only).
  [[nodiscard]] double PriorityAt(std::uint32_t seq) const {
    return tasks_->Priority(entries_[seq].task);
  }

  /// `task`'s bit within its word queued_[task / kWordBits].
  [[nodiscard]] static std::uint64_t BitOf(TaskId task) {
    return std::uint64_t{1} << (task.value() % kWordBits);
  }
  /// Whether `task` is queued (its bit in queued_).
  [[nodiscard]] bool Queued(TaskId task) const {
    const std::size_t word = task.value() / kWordBits;
    return word < queued_.size() && (queued_[word] & BitOf(task)) != 0;
  }

  // The drains' candidate picks (suspension_queue.cpp): per shape, the
  // literal walk (Scan*) and, for the FIFO shapes, the index (Indexed*),
  // which charges `meter` what the walk visits. The *Next picks advance
  // `cursor` past the pick, as if the attempt removes it.
  [[nodiscard]] std::optional<Seq> ScanFull(const ResourceStore& store,
                                            NodeId node, ConfigId freed_config,
                                            WorkloadMeter& meter) const;
  [[nodiscard]] std::optional<Seq> ScanBest(const ResourceStore& store,
                                            NodeId node, ConfigId freed_config,
                                            WorkloadMeter& meter) const;
  [[nodiscard]] std::optional<Seq> ScanNext(const ResourceStore& store,
                                            NodeId node, ConfigId freed_config,
                                            FifoCursor& cursor,
                                            WorkloadMeter& meter) const;
  [[nodiscard]] std::optional<Seq> IndexedFull(const ResourceStore& store,
                                               NodeId node,
                                               ConfigId freed_config,
                                               WorkloadMeter& meter) const;
  [[nodiscard]] std::optional<Seq> IndexedNext(const ResourceStore& store,
                                               NodeId node,
                                               ConfigId freed_config,
                                               FifoCursor& cursor,
                                               WorkloadMeter& meter) const;
  /// The literal walk's per-entry test of the partial drains.
  [[nodiscard]] bool CouldUse(const ResourceStore& store, const Node& node,
                              ConfigId freed_config, std::uint32_t seq) const;
  /// Whether a task resolved to `config` may run on a node of `family`: an
  /// unresolved config pins no family.
  [[nodiscard]] bool FamilyAllows(ConfigId config, FamilyId family) const {
    return !config.valid() || configs_->Get(config).CompatibleWith(family);
  }

  /// The oldest seq holding `task`, or kNoSlot: a linear search for the
  /// correctness tooling, which no run path calls.
  [[nodiscard]] std::uint32_t SeqOf(TaskId task) const {
    for (std::uint32_t seq = head_; seq < entries_.size(); ++seq) {
      if (entries_[seq].task == task) return seq;
    }
    return kNoSlot;
  }

  /// Tombstones the live cell `seq` and drops it from the live bits, the
  /// queued bits and the index; moves the head to the next live seq when
  /// it was the head (uncounted; callers charge per their own contract).
  void Unlink(std::uint32_t seq);

  const TaskStore* tasks_;
  const ConfigCatalogue* configs_;
  std::size_t capacity_;
  SusOrder order_;
  RunVector<Cell> entries_;          // by seq; append-only; an invalid
                                     // task = tombstone
  std::uint32_t head_ = 0;           // oldest live seq; entries_.size()
                                     // when none is live
  CountTree live_;                   // bit per seq: live
  RunVector<std::uint64_t> queued_;  // bit per TaskId value: queued
  std::unique_ptr<SusQueueIndex> index_;
};

}  // namespace dreamsim::resource
