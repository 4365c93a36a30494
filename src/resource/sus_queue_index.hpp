// Indexed fast path for the FIFO suspension-queue drain queries.
//
// Every task completion drains the SusList: the reference implementation
// walks the whole queue (full-mode exact match/fallback, partial FIFO) and
// charges one modeled step per visited entry, so a saturated run pays
// O(completions x queue) host work. This index answers each
// candidate-selection query in O(log Q) host work from incrementally
// maintained structures, while the caller charges the WorkloadMeter
// exactly what the literal scan would have charged (the modeled-effort
// contract; DESIGN.md "Scheduler index"). Decisions are bit-identical with
// the scans — tests/test_sus_drain_diff.cpp proves it differentially.
//
// Layout. The SuspensionQueue owns the FIFO: every queued task has an
// insertion seq (its slot in the queue's append-only slot array), and
// because the queue is strictly FIFO (a task is enqueued at the back and
// only ever removed, never reordered), queue position order == seq order.
// The queue converts between seqs and positions; this index only ever sees
// seqs and the attributes the queue hands it. It serves FIFO order only (a
// priority-order queue drains by its literal walks, DESIGN.md §9.1):
//   - per-family-group MaxSegTrees over seqs storing -needed_area
//     (kNegInf once removed), so "earliest entry at/after a cursor with
//     needed_area <= bound" is one FirstAtLeast(cursor, -bound) descent; a
//     seq's leaf in its group also says whether it is still indexed;
//   - per-resolved_config forward orders: one 4-byte next-seq cell per seq
//     chains each config's seqs in seq order, with a head and tail per
//     config. A new seq is the largest ever issued, so Add appends.
//     Removal is lazy: a removed seq stays in its order and is skipped
//     once, when its config's head passes it, so the head is always the
//     oldest live exact match. The exact-match rule of the eligibility
//     query walks from the head past seqs below its cursor and removed ones
//     (the simulator's drain never leaves a live match below the cursor, so
//     that walk takes no step on its path).
// A family group holds the tasks whose resolved config pins them to one
// device family, plus a wildcard group for tasks that are compatible with
// every family (unresolved config or family-less config). A task lives in
// exactly one forward order and one group. An entry costs flat per-seq
// cells only (its next-seq cell and its group leaf), no heap node. The
// index never touches the WorkloadMeter — the simulator charges the
// analytic step counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "resource/index_primitives.hpp"
#include "util/run_vector.hpp"
#include "util/types.hpp"

namespace dreamsim::analysis {
class StructureAuditor;    // correctness tooling (src/analysis); read-only
class StructureCorruptor;  // test-only seeded-corruption injector
}  // namespace dreamsim::analysis

namespace dreamsim::resource {

/// The drain-relevant attributes of one suspended task, which the queue
/// derives from its cell (the resolved config), the config's catalogue
/// entry (the family) and the task's spec (the area). None of them can
/// change while the task is queued: needed_area is fixed at submission,
/// and the resolved config depends only on the task and the run's fixed
/// catalogue.
struct SusEntryAttrs {
  ConfigId resolved_config;  // invalid = not resolved yet
  FamilyId config_family;    // family of resolved config; invalid = any
  Area needed_area = 0;
};

/// The candidate index. Owned by a FIFO-order SuspensionQueue, which calls
/// Add/Remove on every mutation; every drain query reads pure index state
/// and answers with a seq.
class SusQueueIndex {
 public:
  /// Indexes the entry with insertion seq `seq`, which must exceed every
  /// seq indexed so far (the queue issues seqs in increasing order).
  void Add(std::uint64_t seq, const SusEntryAttrs& attrs);

  /// Drops the entry `seq`, indexed under `attrs`. Throws
  /// std::logic_error when the index does not hold it.
  void Remove(std::uint64_t seq, const SusEntryAttrs& attrs);

  /// Pre-reserves the per-seq arrays (the forward order and the group
  /// trees, those created later included) for seqs below `seqs`.
  void Reserve(std::size_t seqs);

  // --- Queries (decision only; the caller charges the steps) ---

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

 private:
  // Correctness tooling (src/analysis): read-only ground-truth diffing and
  // test-only seeded corruption. See entry_list.hpp.
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  static constexpr std::uint32_t kWildcardGroup =
      FamilyId().value();  // invalid family value
  static constexpr std::uint32_t kNoSeq = 0xffffffffu;

  /// One config's forward order: its oldest live seq, its newest seq
  /// (live or removed) and the key of the family group its seqs' leaves
  /// sit in. head == tail == kNoSeq when none of its seqs is live.
  struct SeqList {
    std::uint32_t head = kNoSeq;
    std::uint32_t tail = kNoSeq;
    std::uint32_t group = kWildcardGroup;
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
  /// Whether `seq` is indexed in `group`, the seq tree of its family.
  [[nodiscard]] static bool Indexed(const MaxSegTree& group,
                                    std::uint32_t seq) {
    return seq < group.size() && group.Value(seq) != MaxSegTree::kNegInf;
  }

  [[nodiscard]] static std::uint32_t GroupKeyOf(const SusEntryAttrs& attrs) {
    return attrs.config_family.valid() ? attrs.config_family.value()
                                       : kWildcardGroup;
  }
  /// Sets the group's seq-tree leaf, appending kNegInf padding so that
  /// leaf positions always equal seqs.
  static void AssignSeqLeaf(MaxSegTree& tree, std::uint64_t seq,
                            std::int64_t value);

  std::size_t reserved_ = 0;  // seqs Reserve() made room for
  std::vector<SeqList> fifo_lists_;  // by ListSlot(resolved_config)
  RunVector<std::uint32_t> fifo_next_;  // by seq: the next seq of its
                                        // config's order, or kNoSeq
  std::map<std::uint32_t, MaxSegTree> fifo_groups_;  // by family (+ wildcard)
};

}  // namespace dreamsim::resource
