// Per-configuration idle/busy membership lists (Fig. 3).
//
// The paper threads Inext/Bnext pointers through the nodes so that "these
// linked lists ease up the search effort needed to get the state information
// of a certain node". With partial reconfiguration a node can appear in
// several configurations' lists at once (idle w.r.t. config A, busy w.r.t.
// config B), so membership is per *entry* (node, slot), held in cells like
// the UML's IdleList/BusyList (`Item`, `Next`).
//
// Cells live in a contiguous vector: push is O(1), membership removal and
// all searches are counted linear traversals — the same step costs the
// paper's metrics measure on its linked lists, with better locality.
//
// As the paper's Inext/Bnext links live in the node, each entry's cell
// position lives in its config-task pair (ConfigTaskPair::list_pos): Add
// hands the position out and Remove takes it back, and the store records
// both in the slot records. The list itself holds nothing but the cells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "resource/node.hpp"
#include "resource/workload_meter.hpp"
#include "util/types.hpp"

namespace dreamsim::analysis {
class StructureAuditor;    // correctness tooling (src/analysis); read-only
class StructureCorruptor;  // test-only seeded-corruption injector
}  // namespace dreamsim::analysis

namespace dreamsim::resource {

/// Reference to one config-task-pair entry on one node.
struct EntryRef {
  NodeId node;
  SlotIndex slot = kInvalidSlot;

  friend constexpr bool operator==(EntryRef, EntryRef) = default;
};
static_assert(sizeof(EntryRef) == 8, "EntryRef must stay 8 bytes (packed)");

/// Packs an EntryRef into 8 bytes (the completion event's payload).
constexpr std::uint64_t PackEntryRef(EntryRef e) {
  return (static_cast<std::uint64_t>(e.node.value()) << 32) | e.slot;
}

/// Inverse of PackEntryRef.
constexpr EntryRef UnpackEntryRef(std::uint64_t packed) {
  return EntryRef{NodeId{static_cast<std::uint32_t>(packed >> 32)},
                  static_cast<SlotIndex>(packed & 0xffffffffu)};
}

/// Counted-traversal membership list of entries.
///
/// The caller keeps each entry's position, so removal is O(1) host work;
/// the meter is still charged what the counted linear search would have
/// cost (position + 1 cells, or the full list on a miss), so the paper's
/// step metrics are unchanged. Entries must be unique (the store never
/// double-adds).
class EntryList {
 public:
  /// What Remove did: whether the entry was there, and which entry the
  /// swap-remove moved into its position (slot kInvalidSlot when the
  /// removed entry was the last cell).
  struct Removal {
    bool removed = false;
    EntryRef moved;
  };

  /// O(1) insertion (push-front semantics of a linked list). Returns the
  /// entry's position.
  std::uint32_t Add(EntryRef entry, WorkloadMeter& meter);

  /// Removes `entry`, which Add placed at `pos` (or a later Remove moved
  /// there); O(1), charged as the counted linear search. The last cell
  /// moves into `pos`. Not removed (charged the whole list) when `entry`
  /// is not at `pos`.
  [[nodiscard]] Removal Remove(EntryRef entry, std::size_t pos,
                               WorkloadMeter& meter);

  /// Counted linear membership test.
  [[nodiscard]] bool Contains(EntryRef entry, WorkloadMeter& meter,
                              StepKind kind) const;

  /// Visits every entry (one counted step each) and returns the first for
  /// which `pred(entry)` is true, or nullopt. The predicate itself may add
  /// further steps (e.g. when it inspects node state).
  template <typename Pred>
  [[nodiscard]] std::optional<EntryRef> FindFirst(Pred&& pred,
                                                  WorkloadMeter& meter,
                                                  StepKind kind) const {
    for (const EntryRef& e : cells_) {
      meter.Add(kind);
      if (pred(e)) return e;
    }
    return std::nullopt;
  }

  /// Full counted scan returning the entry minimizing `key(entry)`; ties
  /// keep the earliest. Returns nullopt for an empty list or when `accept`
  /// rejects every entry.
  template <typename Key, typename Accept>
  [[nodiscard]] std::optional<EntryRef> FindMin(Key&& key, Accept&& accept,
                                                WorkloadMeter& meter,
                                                StepKind kind) const {
    std::optional<EntryRef> best;
    long long best_key = 0;
    for (const EntryRef& e : cells_) {
      meter.Add(kind);
      if (!accept(e)) continue;
      const long long k = key(e);
      if (!best || k < best_key) {
        best = e;
        best_key = k;
      }
    }
    return best;
  }

  /// FindMin variant whose key also sees the cell position — the heuristic
  /// policies' Class A rank depends on the scan position (first-fit) or on
  /// stateful policy state, and routing them through here keeps raw cell
  /// iteration out of the schedulers (the entry-cells-iteration lint rule).
  template <typename Key>
  [[nodiscard]] std::optional<EntryRef> FindMinPositional(
      Key&& key, WorkloadMeter& meter, StepKind kind) const {
    std::optional<EntryRef> best;
    long long best_key = 0;
    for (std::size_t pos = 0; pos < cells_.size(); ++pos) {
      meter.Add(kind);
      const long long k = key(cells_[pos], pos);
      if (!best || k < best_key) {
        best = cells_[pos];
        best_key = k;
      }
    }
    return best;
  }

  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] bool empty() const { return cells_.empty(); }
  [[nodiscard]] const std::vector<EntryRef>& cells() const { return cells_; }

 private:
  // The auditor reconstructs ground truth from the raw cells; the
  // corruptor breaks them on purpose in tests. Neither is part of the
  // mutation surface (dreamsim_lint enforces that for everything else).
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  std::vector<EntryRef> cells_;
};

}  // namespace dreamsim::resource
