// Reconfigurable nodes (Eq. 1) and their config-task-pair lists (Fig. 3).
//
//   Node_i(TotalArea, AvailableArea, C, family, caps, state)
//
// With partial reconfiguration a node holds a *set* of configurations; each
// live configuration occupies one slot of the config-task-pair list and may
// or may not be executing a task. AvailableArea always satisfies Eq. 4:
//   AvailableArea = TotalArea - sum(ReqArea of live configurations).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "resource/config.hpp"
#include "resource/fabric.hpp"
#include "util/types.hpp"

namespace dreamsim::analysis {
class StructureCorruptor;  // test-only seeded-corruption injector
}  // namespace dreamsim::analysis

namespace dreamsim::resource {

class ResourceStore;  // maintains the slots' list positions

/// Stable index of a config-task-pair slot within one node. Slots are
/// reused via a free list, so a SlotIndex stays valid until that specific
/// entry is removed.
using SlotIndex = std::uint32_t;
inline constexpr SlotIndex kInvalidSlot = static_cast<SlotIndex>(-1);

/// One entry of the config-task-pair list: a live configuration plus the
/// task running on it (invalid TaskId = idle entry, the paper's NULL) and
/// the tick that task's execution begins.
///
/// Like the paper's Inext/Bnext links, the record carries its own place in
/// the Fig. 3 lists: a live slot sits in exactly one list (the idle or the
/// busy list of its config), at cell `list_pos`. A dead slot has an invalid
/// config, and its `list_pos` links it to the next free slot.
struct ConfigTaskPair {
  ConfigId config;  // invalid => dead slot
  TaskId task;      // invalid => idle
  std::uint32_t list_pos = 0;
  /// Tick the running task's execution begins: t_start + t_comm + t_config
  /// (Eq. 8), set once the placement's overhead is known
  /// (ResourceStore::SetReadyTime). kNoTick while the slot is idle.
  Tick ready_time = kNoTick;

  [[nodiscard]] bool idle() const { return !task.valid(); }
};
// A few slots per node: the ready tick lives here, not in every task's
// record, because only a running task has one.
static_assert(sizeof(ConfigTaskPair) <= 24,
              "ConfigTaskPair must stay within 24 bytes");

/// Hardware capabilities of a node (the `caps` of Eq. 1): "embedded memory,
/// DSP slices, configuration bandwidth, etc."
struct Caps {
  std::int64_t embedded_memory_kb = 0;
  std::int64_t dsp_slices = 0;
  /// Configuration-port bandwidth in bytes per tick (drives bitstream
  /// transfer time when the network model is enabled).
  Bytes config_bandwidth = 0;
};

/// A reconfigurable processing node.
///
/// By default the fabric is the paper's scalar model (Eq. 4). With
/// `contiguous_placement` the node additionally runs a FabricLayout: each
/// configuration occupies a contiguous extent, and SendBitstream can fail
/// due to external fragmentation even when AvailableArea would suffice.
class Node {
 public:
  Node(NodeId id, Area total_area, FamilyId family, Caps caps,
       bool contiguous_placement = false,
       Placement placement = Placement::kFirstFit);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Area total_area() const { return total_area_; }
  [[nodiscard]] Area available_area() const { return available_area_; }
  [[nodiscard]] FamilyId family() const { return family_; }
  [[nodiscard]] const Caps& caps() const { return caps_; }

  /// Number of live configurations (the m of Eq. 4).
  [[nodiscard]] std::size_t config_count() const { return live_entries_; }

  /// True when the node has no configuration at all ("blank node").
  [[nodiscard]] bool blank() const { return live_entries_ == 0; }

  /// True while the node is failed (fault injection). A failed node is
  /// always blank (the store wipes it before marking it failed), cannot
  /// host or accept configurations, and is invisible to every scheduler
  /// query until MarkRepaired().
  [[nodiscard]] bool failed() const { return failed_; }

  /// Marks the node failed. Precondition: blank (the store has already
  /// wiped its configurations) and not already failed.
  void MarkFailed();

  /// Clears the failed flag. Precondition: failed. The node comes back
  /// blank and must pay full configuration time again.
  void MarkRepaired();

  /// True when at least one slot is executing a task (`state` of Eq. 1).
  [[nodiscard]] bool busy() const { return running_tasks_ > 0; }

  /// Number of currently running tasks.
  [[nodiscard]] std::size_t running_tasks() const { return running_tasks_; }

  /// Number of live configurations with no task — the entries Algorithm 1
  /// may reclaim.
  [[nodiscard]] std::size_t idle_entry_count() const {
    return live_entries_ - running_tasks_;
  }

  /// Reconfigurations performed on this node so far (Table I metric).
  [[nodiscard]] std::uint64_t reconfig_count() const { return reconfig_count_; }

  /// Fixed network delay between the RMS and this node, in ticks.
  [[nodiscard]] Tick network_delay() const { return network_delay_; }
  void set_network_delay(Tick delay) { network_delay_ = delay; }

  /// True when the node can host a configuration of `area` right now:
  /// scalar AvailableArea in the paper's model, a single sufficient hole
  /// under contiguous placement.
  [[nodiscard]] bool CanHost(Area area) const;

  /// Contiguous-placement variant of the Algorithm 1 feasibility check:
  /// could a region of `area` be placed after reclaiming `idle_slots`?
  /// (Scalar model: sum test.) Slots must be live and idle.
  [[nodiscard]] bool CanHostAfterReclaiming(
      std::span<const SlotIndex> idle_slots, Area area) const;

  /// SendBitstream(): loads `config` into a fresh slot, consuming
  /// `required_area` and bumping the reconfiguration count. Returns
  /// nullopt when the configuration does not fit (insufficient area, or a
  /// fragmented fabric under contiguous placement).
  std::optional<SlotIndex> TrySendBitstream(const Configuration& config);

  /// Throwing wrapper over TrySendBitstream() for callers that already
  /// established feasibility.
  SlotIndex SendBitstream(const Configuration& config);

  /// MakeNodeBlank(): removes every configuration; AvailableArea returns
  /// to TotalArea. Precondition: no running tasks.
  void MakeNodeBlank();

  /// MakeNodePartiallyBlank(): removes one idle configuration slot and
  /// reclaims `reclaimed_area` (the removed configuration's ReqArea — the
  /// node stores only the ConfigId, so the caller resolves the area via the
  /// catalogue). Precondition: slot is live and idle.
  void MakeNodePartiallyBlank(SlotIndex slot, Area reclaimed_area);

  /// AddTaskToNode(): marks `slot` as executing `task`.
  /// Precondition: slot is live and idle.
  void AddTaskToNode(SlotIndex slot, TaskId task);

  /// RemoveTaskFromNode(): clears the task and its ready tick from `slot`,
  /// leaving the configuration in place (it can be reused or reclaimed
  /// later). Precondition: slot is live and busy.
  void RemoveTaskFromNode(SlotIndex slot);

  /// Access to a slot; throws on dead/out-of-range slots.
  [[nodiscard]] const ConfigTaskPair& Slot(SlotIndex slot) const;

  /// Invokes `fn(slot_index, pair)` for every live slot, in slot order.
  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    for (SlotIndex i = 0; i < slots_.size(); ++i) {
      if (slots_[i].config.valid()) fn(i, slots_[i]);
    }
  }

  /// Upper bound over live slot indices (for manual iteration).
  [[nodiscard]] SlotIndex slot_bound() const {
    return static_cast<SlotIndex>(slots_.size());
  }

  [[nodiscard]] bool SlotLive(SlotIndex slot) const {
    return slot < slots_.size() && slots_[slot].config.valid();
  }

  /// Whether contiguous placement is active on this node.
  [[nodiscard]] bool contiguous() const { return fabric_ != nullptr; }

  /// Fabric layout (contiguous placement only; throws otherwise).
  [[nodiscard]] const FabricLayout& layout() const;

  /// Extent occupied by a live slot (contiguous placement only).
  [[nodiscard]] const Extent& SlotExtent(SlotIndex slot) const;

  /// External fragmentation index; 0 under the scalar model.
  [[nodiscard]] double Fragmentation() const {
    return fabric_ ? fabric_->layout.FragmentationIndex() : 0.0;
  }

 private:
  // The store records each slot's Fig. 3 list position (SetListPos) and
  // its running task's ready tick (SetReadyTime).
  friend class ResourceStore;
  // Test-only seeded corruption (src/analysis): flips failed_ behind the
  // store's back so the auditor's fault-visibility checks can be proven
  // non-vacuous. See resource/entry_list.hpp.
  friend class ::dreamsim::analysis::StructureCorruptor;

  /// The contiguous-placement state, allocated only by nodes that use it.
  struct Fabric {
    FabricLayout layout;
    std::vector<Extent> slot_extents;  // parallel to slots_
    Placement placement;
  };

  /// Empties the slot list, the free list and the slot extents.
  void ForgetSlots();

  /// Records that live `slot` now sits at cell `pos` of its list.
  void SetListPos(SlotIndex slot, std::uint32_t pos) {
    slots_[slot].list_pos = pos;
  }

  /// Records the tick busy `slot`'s task starts executing.
  void SetReadyTime(SlotIndex slot, Tick ready_time);

  NodeId id_;
  FamilyId family_;
  Area total_area_;
  Area available_area_;
  Caps caps_;
  Tick network_delay_ = 0;
  std::unique_ptr<Fabric> fabric_;  // null under the scalar model

  std::vector<ConfigTaskPair> slots_;
  std::uint64_t reconfig_count_ = 0;
  SlotIndex free_head_ = kInvalidSlot;  // newest dead slot; chained by list_pos
  std::uint32_t live_entries_ = 0;
  std::uint32_t running_tasks_ = 0;
  bool failed_ = false;
};

static_assert(sizeof(Node) <= 128, "Node must stay compact");

/// Parameters for synthetic node generation (Table II: "Node TotalArea
/// range [1000...4000]").
struct NodeGenParams {
  int count = 200;
  Area min_area = 1000;
  Area max_area = 4000;
  Tick min_network_delay = 0;
  Tick max_network_delay = 0;
  int family_count = 1;
  /// Enable the contiguous-placement fabric model (extension; the paper's
  /// scalar Eq. 4 model when false).
  bool contiguous_placement = false;
  /// Hole-selection heuristic under contiguous placement.
  Placement placement = Placement::kFirstFit;
};

/// One heterogeneous device family (a scenario `device class:` block): a
/// population of nodes sharing a FamilyId, an Eq. 4 area range, a
/// reconfiguration-port bandwidth, and fabric-model flags. Class index ==
/// FamilyId, so configurations synthesized per family (round-robin, like
/// ConfigGenParams::family_count) bind to exactly one class.
struct DeviceClassParams {
  /// Diagnostic label ("zynq-small"); never affects generation.
  std::string name;
  int count = 0;
  Area min_area = 1000;
  Area max_area = 4000;
  /// Configuration-port bandwidth in bytes/tick (Caps::config_bandwidth;
  /// drives bitstream transfer time under ship_bitstreams).
  Bytes config_bandwidth = 400;
  Tick min_network_delay = 0;
  Tick max_network_delay = 0;
  /// Per-node LRU bitstream-store capacity in bytes for this family;
  /// < 0 inherits the run-wide bitstream_cache_capacity.
  Bytes bitstream_store = -1;
  bool contiguous_placement = false;
  Placement placement = Placement::kFirstFit;
};

}  // namespace dreamsim::resource
