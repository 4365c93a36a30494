// Seeded corruption for the auditor tests. Every mutation here is a bug by
// construction; the point is that the StructureAuditor must say so.
// lint: allow-file(store-internals)
// lint: allow-file(list-internals)
#include "analysis/corruptor.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "resource/store_index.hpp"
#include "resource/sus_queue_index.hpp"

namespace dreamsim::analysis {

void StructureCorruptor::AppendOrphan(resource::EntryList& list,
                                      resource::EntryRef entry) {
  // Keep the flat map fully consistent with the orphan, so only the
  // cross-structure diff against the node slots can catch it.
  list.InsertSlot(resource::PackEntryRef(entry)).pos =
      static_cast<std::uint32_t>(list.cells_.size());
  list.cells_.push_back(entry);
}

resource::StoreIndex& StructureCorruptor::IndexOf(
    resource::ResourceStore& store, const char* who) {
  if (store.index_ == nullptr) {
    throw std::logic_error(std::string(who) + ": index disabled");
  }
  return *store.index_;
}

void StructureCorruptor::InjectOrphanIdleEntry(resource::ResourceStore& store,
                                               ConfigId config,
                                               resource::EntryRef entry) {
  AppendOrphan(store.idle_lists_.at(config.value()), entry);
}

void StructureCorruptor::InjectOrphanBusyEntry(resource::ResourceStore& store,
                                               ConfigId config,
                                               resource::EntryRef entry) {
  AppendOrphan(store.busy_lists_.at(config.value()), entry);
}

void StructureCorruptor::CorruptPositionMap(resource::ResourceStore& store,
                                            ConfigId config) {
  resource::EntryList& list = store.idle_lists_.at(config.value());
  if (list.cells_.size() < 2) {
    throw std::logic_error("CorruptPositionMap: need >= 2 idle entries");
  }
  const std::size_t s0 = list.FindSlot(resource::PackEntryRef(list.cells_[0]));
  const std::size_t s1 = list.FindSlot(resource::PackEntryRef(list.cells_[1]));
  if (s0 == list.table_.size() || s1 == list.table_.size()) {
    throw std::logic_error("CorruptPositionMap: cells missing from the map");
  }
  std::swap(list.table_[s0].pos, list.table_[s1].pos);
}

void StructureCorruptor::SkewSlotCounter(resource::ResourceStore& store,
                                         NodeId node) {
  ++store.nodes_.at(node.value()).live_entries_;
}

void StructureCorruptor::SkewAvailableArea(resource::ResourceStore& store,
                                           NodeId node) {
  if (store.index_ != nullptr) {
    throw std::logic_error("SkewAvailableArea: needs the index disabled");
  }
  ++store.nodes_.at(node.value()).available_area_;
}

void StructureCorruptor::OvercommitNode(resource::ResourceStore& store,
                                        NodeId node) {
  resource::Node& n = store.nodes_.at(node.value());
  if (!n.busy() || n.contiguous()) {
    throw std::logic_error("OvercommitNode: needs a busy scalar-model node");
  }
  // A busy node's fleet contribution: TotalArea, and AvailableArea as
  // wasted area (it is not idle, so no idle-wasted area).
  const Area shrink = n.available_area_ + 1;
  n.total_area_ -= shrink;
  n.available_area_ -= shrink;
  store.fleet_totals_.total_area -= shrink;
  store.fleet_totals_.wasted_area -= shrink;
  store.RefreshIndex(node);
}

void StructureCorruptor::SkewBusyArea(resource::ResourceStore& store,
                                      NodeId node) {
  ++store.busy_area_.at(node.value());
}

void StructureCorruptor::DropBlankEntry(resource::ResourceStore& store,
                                        NodeId node) {
  store.RemoveFromBlank(node);
}

void StructureCorruptor::SkewBlankPos(resource::ResourceStore& store,
                                      NodeId node) {
  std::size_t& pos = store.blank_pos_.at(node.value());
  pos = pos == resource::ResourceStore::kNotBlank
            ? 0
            : resource::ResourceStore::kNotBlank;
}

void StructureCorruptor::SkewFailedCount(resource::ResourceStore& store) {
  ++store.failed_count_;
}

void StructureCorruptor::OverlapFabricHole(resource::ResourceStore& store,
                                           NodeId node) {
  resource::Node& n = store.nodes_.at(node.value());
  if (!n.contiguous()) {
    throw std::logic_error("OverlapFabricHole: node is not contiguous");
  }
  std::optional<resource::Extent> live;
  n.ForEachSlot([&](resource::SlotIndex slot, const resource::ConfigTaskPair&) {
    if (!live) live = n.SlotExtent(slot);
  });
  if (!live) throw std::logic_error("OverlapFabricHole: no live slot");
  std::vector<resource::Extent>& holes = n.layout_->free_;
  holes.insert(std::upper_bound(holes.begin(), holes.end(), *live,
                                [](const resource::Extent& a,
                                   const resource::Extent& b) {
                                  return a.offset < b.offset;
                                }),
               *live);
}

void StructureCorruptor::TruncateIndexCache(resource::ResourceStore& store) {
  IndexOf(store, "TruncateIndexCache").cached_.pop_back();
}

void StructureCorruptor::SkewIndexSnapshot(resource::ResourceStore& store,
                                           NodeId node) {
  ++IndexOf(store, "SkewIndexSnapshot").cached_.at(node.value()).available;
}

void StructureCorruptor::SkewIndexPotential(resource::ResourceStore& store,
                                            NodeId node) {
  // Global-view positions are dense node ids.
  resource::MaxSegTree& potential =
      IndexOf(store, "SkewIndexPotential").global_.potential;
  potential.Assign(node.value(), potential.Value(node.value()) + 1);
}

void StructureCorruptor::InjectStrayIndexKey(resource::ResourceStore& store,
                                             NodeId node) {
  IndexOf(store, "InjectStrayIndexKey")
      .global_.partial_by_avail.insert(
          {store.nodes_.at(node.value()).available_area() + 1, node.value()});
}

void StructureCorruptor::DropFamilyView(resource::ResourceStore& store,
                                        NodeId node) {
  IndexOf(store, "DropFamilyView")
      .family_views_.erase(store.nodes_.at(node.value()).family().value());
}

void StructureCorruptor::AddFamilyView(resource::ResourceStore& store,
                                       NodeId node) {
  resource::StoreIndex& index = IndexOf(store, "AddFamilyView");
  index.family_views_.emplace(store.nodes_.at(node.value()).family().value(),
                              index.global_);
}

void StructureCorruptor::SkewIndexConfigCount(resource::ResourceStore& store,
                                              NodeId node) {
  // Global-view positions are dense node ids.
  resource::PrefixSumTree& counts =
      IndexOf(store, "SkewIndexConfigCount").global_.config_count;
  const std::size_t pos = node.value();
  counts.Assign(pos, counts.Value(pos) + 1);
}

void StructureCorruptor::ExposeFailedNode(resource::ResourceStore& store,
                                          NodeId node) {
  store.nodes_.at(node.value()).failed_ = true;
}

void StructureCorruptor::SkewFleetTotals(resource::ResourceStore& store) {
  ++store.fleet_totals_.wasted_area;
}

void StructureCorruptor::MisplaceSusBucketEntry(
    resource::SuspensionQueue& queue, TaskId task,
    ConfigId wrong_config) {
  using resource::SusQueueIndex;
  if (queue.index_ == nullptr ||
      queue.index_->order_ != resource::SusOrder::kFifo) {
    throw std::logic_error(
        "MisplaceSusBucketEntry: needs a FIFO-order drain index");
  }
  const std::uint32_t seq = queue.SeqOf(task);
  if (seq == resource::SuspensionQueue::kNoSlot) {
    throw std::logic_error("MisplaceSusBucketEntry: task is not queued");
  }
  SusQueueIndex& index = *queue.index_;
  constexpr std::uint32_t kNoSeq = SusQueueIndex::kNoSeq;
  auto& links = index.fifo_links_;
  SusQueueIndex::SeqLink& link = links[seq];
  // Unlink from the home list, then splice into `wrong_config`'s list at
  // its seq-order spot, so both lists stay well-formed.
  {
    SusQueueIndex::SeqList& home = index.fifo_lists_.at(
        SusQueueIndex::ListSlot(queue.attrs_[seq].resolved_config));
    (link.prev == kNoSeq ? home.head : links[link.prev].next) = link.next;
    (link.next == kNoSeq ? home.tail : links[link.next].prev) = link.prev;
  }
  const std::size_t slot = SusQueueIndex::ListSlot(wrong_config);
  if (index.fifo_lists_.size() <= slot) index.fifo_lists_.resize(slot + 1);
  SusQueueIndex::SeqList& wrong = index.fifo_lists_[slot];
  std::uint32_t next = wrong.head;
  while (next != kNoSeq && next < seq) next = links[next].next;
  const std::uint32_t prev = next == kNoSeq ? wrong.tail : links[next].prev;
  link = SusQueueIndex::SeqLink{prev, next};
  (prev == kNoSeq ? wrong.head : links[prev].next) = seq;
  (next == kNoSeq ? wrong.tail : links[next].prev) = seq;
}

void StructureCorruptor::SkewSusGroupLeaf(resource::SuspensionQueue& queue,
                                          TaskId task) {
  using resource::SusQueueIndex;
  if (queue.index_ == nullptr ||
      queue.index_->order_ != resource::SusOrder::kFifo) {
    throw std::logic_error("SkewSusGroupLeaf: needs a FIFO-order drain index");
  }
  const std::uint32_t seq = queue.SeqOf(task);
  if (seq == resource::SuspensionQueue::kNoSlot) {
    throw std::logic_error("SkewSusGroupLeaf: task is not queued");
  }
  const resource::SusEntryAttrs attrs = queue.AttrsAt(seq);
  SusQueueIndex::AssignSeqLeaf(
      queue.index_->fifo_groups_.at(SusQueueIndex::GroupKeyOf(attrs)), seq,
      -attrs.needed_area - 1);
}

void StructureCorruptor::SkewSusTreapMinArea(
    resource::SuspensionQueue& queue) {
  if (queue.index_ == nullptr ||
      queue.index_->order_ != resource::SusOrder::kPriority ||
      queue.index_->prio_groups_.empty()) {
    throw std::logic_error(
        "SkewSusTreapMinArea: needs a non-empty priority-order drain index");
  }
  resource::AreaTreap& treap = queue.index_->prio_groups_.begin()->second;
  if (treap.root_ == resource::AreaTreap::kNull) {
    throw std::logic_error("SkewSusTreapMinArea: empty treap");
  }
  --treap.nodes_[static_cast<std::size_t>(treap.root_)].min_area;
}

void StructureCorruptor::SkewSusAttrs(resource::SuspensionQueue& queue,
                                      TaskId task) {
  using resource::SusQueueIndex;
  const std::uint32_t seq = queue.SeqOf(task);
  if (seq == resource::SuspensionQueue::kNoSlot) {
    throw std::logic_error("SkewSusAttrs: task is not queued");
  }
  if (queue.index_ != nullptr &&
      queue.index_->order_ != resource::SusOrder::kFifo) {
    throw std::logic_error("SkewSusAttrs: needs no index or a FIFO-order one");
  }
  ++queue.attrs_[seq].needed_area;
  if (queue.index_ == nullptr) return;
  const resource::SusEntryAttrs attrs = queue.AttrsAt(seq);
  SusQueueIndex::AssignSeqLeaf(
      queue.index_->fifo_groups_.at(SusQueueIndex::GroupKeyOf(attrs)), seq,
      -attrs.needed_area);
}

void StructureCorruptor::SkewSusLive(resource::SuspensionQueue& queue) {
  if (queue.slots_.empty()) throw std::logic_error("SkewSusLive: no slots");
  queue.live_.Set(0);
}

void StructureCorruptor::ShrinkSusCapacity(resource::SuspensionQueue& queue,
                                           std::size_t capacity) {
  if (capacity == 0 || capacity >= queue.size()) {
    throw std::logic_error("ShrinkSusCapacity: need 0 < capacity < size()");
  }
  queue.capacity_ = capacity;
}

void StructureCorruptor::DuplicateSusTask(resource::SuspensionQueue& queue,
                                          TaskId task, TaskId victim) {
  const std::uint32_t from = queue.SeqOf(task);
  const std::uint32_t into = queue.SeqOf(victim);
  if (from == resource::SuspensionQueue::kNoSlot ||
      into == resource::SuspensionQueue::kNoSlot || from == into) {
    throw std::logic_error("DuplicateSusTask: need two distinct queued tasks");
  }
  queue.slots_[into].task = task;
  queue.seq_of_task_[victim.value()] = resource::SuspensionQueue::kNoSlot;
}

void StructureCorruptor::SwapEventHeapHead(sim::EventQueue& queue) {
  if (queue.heap_.size() < 2) {
    throw std::logic_error("SwapEventHeapHead: need >= 2 heap entries");
  }
  std::swap(queue.heap_[0], queue.heap_[1]);
}

void StructureCorruptor::BackdateEventHead(sim::EventQueue& queue, Tick tick) {
  if (queue.heap_.empty() || tick > queue.heap_[0].tick) {
    throw std::logic_error("BackdateEventHead: need a head at or after tick");
  }
  queue.heap_[0].tick = tick;
}

void StructureCorruptor::ReissueEventSequence(sim::EventQueue& queue) {
  if (queue.heap_.empty()) {
    throw std::logic_error("ReissueEventSequence: empty heap");
  }
  std::uint64_t& key = queue.heap_.back().key;
  key = (key & ~sim::EventQueue::kSeqMask) | queue.next_sequence_;
}

void StructureCorruptor::SkewEventLiveCount(sim::EventQueue& queue) {
  ++queue.live_;
}

void StructureCorruptor::RepointArrivalCursor(sim::EventQueue& queue,
                                              sim::TickView ticks) {
  if (ticks.size() != queue.cursor_.ticks.size()) {
    throw std::logic_error("RepointArrivalCursor: arrival count differs");
  }
  queue.cursor_.ticks = ticks;
}

}  // namespace dreamsim::analysis
