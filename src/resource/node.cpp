#include "resource/node.hpp"

#include <stdexcept>

namespace dreamsim::resource {

Node::Node(NodeId id, Area total_area, FamilyId family, Caps caps,
           bool contiguous_placement, Placement placement)
    : id_(id),
      family_(family),
      total_area_(total_area),
      available_area_(total_area),
      caps_(caps) {
  if (total_area <= 0) {
    throw std::invalid_argument("node total_area must be positive");
  }
  if (contiguous_placement) {
    fabric_ = std::make_unique<Fabric>(
        Fabric{FabricLayout(total_area), {}, placement});
  }
}

const FabricLayout& Node::layout() const {
  if (!fabric_) throw std::logic_error("node has no contiguous fabric layout");
  return fabric_->layout;
}

const Extent& Node::SlotExtent(SlotIndex slot) const {
  if (!fabric_) throw std::logic_error("node has no contiguous fabric layout");
  if (!SlotLive(slot)) throw std::out_of_range("SlotExtent: dead slot");
  return fabric_->slot_extents[slot];
}

bool Node::CanHost(Area area) const {
  if (failed_) return false;
  if (fabric_) return fabric_->layout.CanAllocate(area);
  return available_area_ >= area;
}

bool Node::CanHostAfterReclaiming(std::span<const SlotIndex> idle_slots,
                                  Area area) const {
  if (!fabric_) {
    // Scalar model: feasibility is the store's accumulated-area test
    // (the node does not know configuration areas, only ids).
    throw std::logic_error(
        "CanHostAfterReclaiming requires contiguous placement");
  }
  std::vector<Extent> pending;
  pending.reserve(idle_slots.size());
  for (const SlotIndex slot : idle_slots) {
    if (!Slot(slot).idle()) throw std::logic_error("reclaiming a busy slot");
    pending.push_back(fabric_->slot_extents[slot]);
  }
  return fabric_->layout.CanAllocateAfterFreeing(pending, area);
}

std::optional<SlotIndex> Node::TrySendBitstream(const Configuration& config) {
  if (!config.id.valid()) {
    throw std::invalid_argument("SendBitstream: invalid configuration id");
  }
  if (failed_) return std::nullopt;
  if (config.required_area > available_area_) return std::nullopt;
  Extent extent{0, config.required_area};
  if (fabric_) {
    const auto allocated =
        fabric_->layout.Allocate(config.required_area, fabric_->placement);
    if (!allocated) return std::nullopt;  // fragmented
    extent = *allocated;
  }
  const ConfigTaskPair pair{config.id, TaskId::invalid()};
  SlotIndex slot;
  if (free_head_ != kInvalidSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].list_pos;
    slots_[slot] = pair;
  } else {
    slot = static_cast<SlotIndex>(slots_.size());
    slots_.push_back(pair);
    if (fabric_) fabric_->slot_extents.emplace_back();
  }
  if (fabric_) fabric_->slot_extents[slot] = extent;
  available_area_ -= config.required_area;
  ++live_entries_;
  ++reconfig_count_;
  return slot;
}

SlotIndex Node::SendBitstream(const Configuration& config) {
  const auto slot = TrySendBitstream(config);
  if (!slot) {
    throw std::logic_error(
        "SendBitstream: configuration does not fit (area or fragmentation)");
  }
  return *slot;
}

void Node::MakeNodeBlank() {
  if (running_tasks_ > 0) {
    throw std::logic_error("MakeNodeBlank: node has running tasks");
  }
  ForgetSlots();
  available_area_ = total_area_;
  if (fabric_) fabric_->layout.Reset();
}

void Node::ForgetSlots() {
  slots_.clear();
  free_head_ = kInvalidSlot;
  live_entries_ = 0;
  if (fabric_) fabric_->slot_extents.clear();
}

void Node::MarkFailed() {
  if (failed_) throw std::logic_error("MarkFailed: node already failed");
  if (!blank()) {
    throw std::logic_error("MarkFailed: node still holds configurations");
  }
  failed_ = true;
}

void Node::MarkRepaired() {
  if (!failed_) throw std::logic_error("MarkRepaired: node is not failed");
  failed_ = false;
}

void Node::MakeNodePartiallyBlank(SlotIndex slot, Area reclaimed_area) {
  const ConfigTaskPair& pair = Slot(slot);
  if (!pair.idle()) {
    throw std::logic_error("MakeNodePartiallyBlank: slot is executing a task");
  }
  if (reclaimed_area < 0 || available_area_ + reclaimed_area > total_area_) {
    throw std::logic_error("MakeNodePartiallyBlank: area accounting violated");
  }
  if (fabric_) {
    const Extent& extent = fabric_->slot_extents[slot];
    if (extent.size != reclaimed_area) {
      throw std::logic_error(
          "MakeNodePartiallyBlank: reclaimed area disagrees with the extent");
    }
    fabric_->layout.Free(extent);
  }
  // The dead slot heads the free list, so slots come back newest first.
  slots_[slot] = ConfigTaskPair{ConfigId::invalid(), TaskId::invalid(),
                                free_head_};
  free_head_ = slot;
  --live_entries_;
  available_area_ += reclaimed_area;
  // All slots gone: normalize storage like MakeNodeBlank().
  if (live_entries_ == 0) ForgetSlots();
}

void Node::AddTaskToNode(SlotIndex slot, TaskId task) {
  if (!SlotLive(slot)) throw std::out_of_range("AddTaskToNode: dead slot");
  ConfigTaskPair& pair = slots_[slot];
  if (!pair.idle()) throw std::logic_error("AddTaskToNode: slot already busy");
  if (!task.valid()) throw std::invalid_argument("AddTaskToNode: invalid task");
  pair.task = task;
  ++running_tasks_;
}

void Node::RemoveTaskFromNode(SlotIndex slot) {
  if (!SlotLive(slot)) throw std::out_of_range("RemoveTaskFromNode: dead slot");
  ConfigTaskPair& pair = slots_[slot];
  if (pair.idle()) throw std::logic_error("RemoveTaskFromNode: slot is idle");
  pair.task = TaskId::invalid();
  pair.ready_time = kNoTick;
  --running_tasks_;
}

void Node::SetReadyTime(SlotIndex slot, Tick ready_time) {
  if (!SlotLive(slot)) throw std::out_of_range("SetReadyTime: dead slot");
  ConfigTaskPair& pair = slots_[slot];
  if (pair.idle()) throw std::logic_error("SetReadyTime: slot is idle");
  if (ready_time == kNoTick) {
    throw std::invalid_argument("SetReadyTime: no tick");
  }
  pair.ready_time = ready_time;
}

const ConfigTaskPair& Node::Slot(SlotIndex slot) const {
  if (!SlotLive(slot)) throw std::out_of_range("dead slot");
  return slots_[slot];
}

}  // namespace dreamsim::resource
