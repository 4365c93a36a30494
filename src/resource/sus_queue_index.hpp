// Indexed fast path for the suspension-queue drain queries.
//
// Every task completion drains the SusList: the reference implementation
// walks the whole queue (all three policy variants — full-mode exact
// match/fallback, partial priority, partial FIFO) and charges one modeled
// step per visited entry, so a saturated run pays O(completions x queue)
// host work. This index answers each candidate-selection query in
// O(log Q) host work from incrementally maintained structures, while the
// caller charges the WorkloadMeter exactly what the literal scan would
// have charged (the modeled-effort contract; DESIGN.md "Scheduler
// index"). Decisions are bit-identical with the scans —
// tests/test_sus_drain_diff.cpp proves it differentially.
//
// Layout. The SuspensionQueue owns the FIFO: every queued task has an
// insertion seq (its slot in the queue's append-only slot array), and
// because the queue is strictly FIFO (a task is enqueued at the back and
// only ever removed, never reordered), queue position order == seq order.
// The queue converts between seqs and positions; this index only ever sees
// seqs and the attributes the queue hands it. It is built for one drain
// order — the one SimulationConfig::priority_scheduling picks — and keeps
// only that order's structures:
//   - FIFO order:
//       - per-resolved_config seq lists: intrusive doubly-linked lists in
//         seq order, threaded through per-seq link arrays, with a head and
//         tail per config. A new seq is the largest ever issued, so Add
//         appends; the head is the oldest exact match, and the exact-match
//         rule of the eligibility query walks from the head past seqs
//         below its cursor (the simulator's drain never leaves one there,
//         so that walk takes no step on its path);
//       - per-family-group MaxSegTrees over seqs storing -needed_area, so
//         "earliest entry at/after a cursor with needed_area <= bound" is
//         one FirstAtLeast(cursor, -bound) descent;
//   - priority order:
//       - per-resolved_config buckets: a (-priority, seq) set (best
//         priority, FIFO tie-break);
//       - per-family-group AreaTreaps ordered by (-priority, seq) with
//         subtree-min needed_area, so "highest-priority entry with
//         needed_area <= bound" is one left-first descent.
// A family group holds the tasks whose resolved config pins them to one
// device family, plus a wildcard group for tasks that are compatible with
// every family (unresolved config or family-less config). A task lives in
// exactly one bucket and one group. A FIFO-order entry costs flat per-seq
// cells only (its list links and its group leaf), no heap node; the
// priority-order structures keep one set node and one treap node per
// entry. The index never touches the WorkloadMeter — the simulator charges
// the analytic step counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "resource/index_primitives.hpp"
#include "util/types.hpp"

namespace dreamsim::analysis {
class StructureAuditor;    // correctness tooling (src/analysis); read-only
class StructureCorruptor;  // test-only seeded-corruption injector
}  // namespace dreamsim::analysis

namespace dreamsim::resource {

/// The drain-relevant attributes of one suspended task, captured at
/// enqueue time. None of them can change while the task is queued:
/// needed_area and priority are fixed at submission, and the resolved
/// config depends only on the task and the run's fixed catalogue.
struct SusEntryAttrs {
  ConfigId resolved_config;  // invalid = not resolved yet
  FamilyId config_family;    // family of resolved config; invalid = any
  Area needed_area = 0;
  double priority = 0.0;
};

/// Treap ordered by (-priority, seq) — i.e. highest priority first, FIFO
/// ties — augmented with the subtree minimum of needed_area, supporting
/// "first element in order with needed_area <= bound" by left-first
/// descent. Heap priorities are a deterministic hash of seq, so structure
/// (and therefore behaviour) is reproducible across runs.
class AreaTreap {
 public:
  void Insert(double neg_priority, std::uint64_t seq, Area area);
  void Erase(double neg_priority, std::uint64_t seq);
  /// (neg_priority, seq) of the first in-order element with area <=
  /// `bound`, or nullopt.
  [[nodiscard]] std::optional<std::pair<double, std::uint64_t>>
  FirstWithAreaAtMost(Area bound) const;
  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  // The auditor walks the treap to re-derive its in-order content and
  // augmentation from first principles; the corruptor breaks the
  // augmentation on purpose in tests. See entry_list.hpp.
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  static constexpr std::int32_t kNull = -1;
  struct Node {
    double neg_priority = 0.0;
    std::uint64_t seq = 0;
    Area area = 0;
    Area min_area = 0;  // min over this subtree
    std::uint64_t heap = 0;
    std::int32_t left = kNull;
    std::int32_t right = kNull;
  };

  [[nodiscard]] Area MinArea(std::int32_t n) const;
  void Pull(std::int32_t n);
  /// Splits `n` into keys < (np, seq) and keys >= (np, seq).
  void Split(std::int32_t n, double np, std::uint64_t seq, std::int32_t& lo,
             std::int32_t& hi);
  [[nodiscard]] std::int32_t Merge(std::int32_t lo, std::int32_t hi);

  std::vector<Node> nodes_;
  std::vector<std::int32_t> free_;
  std::int32_t root_ = kNull;
  std::size_t count_ = 0;
};

/// The drain order an index serves: FIFO (oldest first) or priority
/// (highest priority first, FIFO tie-break).
enum class SusOrder : std::uint8_t { kFifo, kPriority };

/// The candidate index. Owned by SuspensionQueue, which calls Add/Remove
/// on every mutation; every drain query reads pure index state and
/// answers with a seq. Calling a query of the other order throws
/// std::logic_error.
class SusQueueIndex {
 public:
  explicit SusQueueIndex(SusOrder order) : order_(order) {}

  /// Indexes the entry with insertion seq `seq`, which must exceed every
  /// seq indexed so far (the queue issues seqs in increasing order).
  void Add(std::uint64_t seq, const SusEntryAttrs& attrs);

  /// Drops the entry `seq`, indexed under `attrs`.
  void Remove(std::uint64_t seq, const SusEntryAttrs& attrs);

  // --- FIFO-order queries (decision only; the caller charges the steps) ---

  /// Oldest entry whose resolved_config == `config` (full-mode exact
  /// match).
  [[nodiscard]] std::optional<std::uint64_t> OldestExactMatch(
      ConfigId config) const;

  /// Earliest entry with seq >= `from_seq` that either exact-matches
  /// `match_config` (when valid) or is family-compatible with `family` and
  /// has needed_area <= `area_bound` — the CouldUseNode predicate /
  /// full-mode fallback.
  [[nodiscard]] std::optional<std::uint64_t> OldestEligible(
      FamilyId family, Area area_bound, std::uint64_t from_seq,
      ConfigId match_config) const;

  // --- Priority-order queries ---

  /// Highest-priority entry whose resolved_config == `config`, FIFO
  /// tie-break.
  [[nodiscard]] std::optional<std::uint64_t> BestPriorityExactMatch(
      ConfigId config) const;

  /// Highest-priority eligible entry (same predicate as OldestEligible),
  /// FIFO tie-break.
  [[nodiscard]] std::optional<std::uint64_t> BestPriorityEligible(
      FamilyId family, Area area_bound, ConfigId match_config) const;

 private:
  // Correctness tooling (src/analysis): read-only ground-truth diffing and
  // test-only seeded corruption. See entry_list.hpp.
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  using PrioKey = std::pair<double, std::uint64_t>;  // (-priority, seq)

  static constexpr std::uint32_t kWildcardGroup =
      FamilyId().value();  // invalid family value
  static constexpr std::uint32_t kNoSeq = 0xffffffffu;

  /// Links of one seq in its config's FIFO list.
  struct SeqLink {
    std::uint32_t prev = kNoSeq;
    std::uint32_t next = kNoSeq;
  };
  /// One config's FIFO list: its oldest and newest seq.
  struct SeqList {
    std::uint32_t head = kNoSeq;
    std::uint32_t tail = kNoSeq;
  };

  /// Slot of `config` in fifo_lists_: 0 for an unresolved config, value + 1
  /// otherwise (config ids are dense catalogue indices).
  [[nodiscard]] static std::size_t ListSlot(ConfigId config) {
    return config.valid() ? std::size_t{config.value()} + 1 : 0;
  }
  [[nodiscard]] const SeqList* FindList(ConfigId config) const {
    const std::size_t slot = ListSlot(config);
    return slot < fifo_lists_.size() ? &fifo_lists_[slot] : nullptr;
  }

  [[nodiscard]] static std::uint32_t GroupKeyOf(const SusEntryAttrs& attrs) {
    return attrs.config_family.valid() ? attrs.config_family.value()
                                       : kWildcardGroup;
  }
  void Require(SusOrder order, const char* query) const;
  /// Sets the group's seq-tree leaf, appending kNegInf padding so that
  /// leaf positions always equal seqs.
  static void AssignSeqLeaf(MaxSegTree& tree, std::uint64_t seq,
                            std::int64_t value);
  /// Calls `fn` on each group of `groups` a task compatible with `family`
  /// may live in.
  template <typename Group, typename Fn>
  static void ForEachGroupFor(const std::map<std::uint32_t, Group>& groups,
                              FamilyId family, Fn&& fn);

  SusOrder order_;
  // FIFO order (empty in a priority-order index).
  std::vector<SeqList> fifo_lists_;  // by ListSlot(resolved_config)
  std::vector<SeqLink> fifo_links_;  // by seq; reset on removal
  std::map<std::uint32_t, MaxSegTree> fifo_groups_;  // by family (+ wildcard)
  // Priority order (empty in a FIFO-order index).
  std::unordered_map<std::uint32_t, std::set<PrioKey>>
      prio_buckets_;                                  // by ConfigId value
  std::map<std::uint32_t, AreaTreap> prio_groups_;   // by family (+ wildcard)
};

}  // namespace dreamsim::resource
