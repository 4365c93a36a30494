// Seeded corruption for the auditor tests. Every mutation here is a bug by
// construction; the point is that the StructureAuditor must say so.
// lint: allow-file(store-internals)
// lint: allow-file(list-internals)
#include "analysis/corruptor.hpp"

#include <algorithm>
#include <cstdint>
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
  // Only the cell is added: no slot records it, so only the
  // cross-structure diff against the node slots can catch it.
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

void StructureCorruptor::DropIdleCell(resource::ResourceStore& store,
                                      ConfigId config) {
  resource::EntryList& list = store.idle_lists_.at(config.value());
  if (list.cells_.empty()) {
    throw std::logic_error("DropIdleCell: need an idle entry");
  }
  list.cells_.pop_back();
}

void StructureCorruptor::CorruptPositionMap(resource::ResourceStore& store,
                                            ConfigId config) {
  const resource::EntryList& list = store.idle_lists_.at(config.value());
  if (list.cells_.size() < 2) {
    throw std::logic_error("CorruptPositionMap: need >= 2 idle entries");
  }
  const auto pos_of = [&store](resource::EntryRef entry) -> std::uint32_t& {
    return store.nodes_.at(entry.node.value()).slots_.at(entry.slot).list_pos;
  };
  std::swap(pos_of(list.cells_[0]), pos_of(list.cells_[1]));
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
  std::vector<resource::Extent>& holes = n.fabric_->layout.free_;
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

void StructureCorruptor::DropIndexKey(resource::ResourceStore& store,
                                      NodeId node) {
  if (!IndexOf(store, "DropIndexKey")
           .global_.partial_by_avail.erase(
               {store.nodes_.at(node.value()).available_area(),
                node.value()})) {
    throw std::logic_error("DropIndexKey: node has no partially-blank key");
  }
}

void StructureCorruptor::SkewIndexBucketBitmap(
    resource::ResourceStore& store) {
  resource::StoreIndex::View& view =
      IndexOf(store, "SkewIndexBucketBitmap").global_;
  for (resource::AreaBucketSet* keys :
       {&view.blank_by_total, &view.partial_by_avail,
        &view.idle_cfg_by_total}) {
    for (std::uint64_t& word : keys->words_) {
      if (word != 0 && ~word != 0) {
        word |= ~word & (word + 1);  // lowest clear bit
        return;
      }
    }
  }
  throw std::logic_error("SkewIndexBucketBitmap: no partly filled word");
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

void StructureCorruptor::RaiseFirstSummaryCell(resource::MaxSegTree& tree,
                                               const char* who) {
  if (tree.levels_.size() < 2) {
    throw std::logic_error(
        std::string(who) + ": the tree has no summary level (too small)");
  }
  ++tree.levels_[1][0];
}

void StructureCorruptor::SkewTreeSummary(resource::ResourceStore& store,
                                         IndexTree tree) {
  resource::StoreIndex::View& view =
      IndexOf(store, "SkewTreeSummary").global_;
  switch (tree) {
    case IndexTree::kPotential:
      RaiseFirstSummaryCell(view.potential, "SkewTreeSummary");
      return;
    case IndexTree::kBusyTotal:
      RaiseFirstSummaryCell(view.busy_total, "SkewTreeSummary");
      return;
    case IndexTree::kAvailable:
      RaiseFirstSummaryCell(view.available, "SkewTreeSummary");
      return;
    case IndexTree::kConfigCount:
      if (view.config_count.size() < 2) {
        throw std::logic_error("SkewTreeSummary: needs two or more nodes");
      }
      ++view.config_count.tree_[1];  // 1-based cell 2 covers (0, 2]
      return;
  }
}

void StructureCorruptor::SkewTreeSummary(resource::SuspensionQueue& queue) {
  if (queue.index_ == nullptr || queue.index_->fifo_groups_.empty()) {
    throw std::logic_error("SkewTreeSummary: needs a non-empty drain index");
  }
  RaiseFirstSummaryCell(queue.index_->fifo_groups_.begin()->second,
                        "SkewTreeSummary");
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
  if (queue.index_ == nullptr) {
    throw std::logic_error("MisplaceSusBucketEntry: needs a drain index");
  }
  const std::uint32_t seq = queue.SeqOf(task);
  if (seq == resource::SuspensionQueue::kNoSlot) {
    throw std::logic_error("MisplaceSusBucketEntry: task is not queued");
  }
  SusQueueIndex& index = *queue.index_;
  constexpr std::uint32_t kNoSeq = SusQueueIndex::kNoSeq;
  auto& next = index.fifo_next_;
  // Unlink from the home order (its head stepping on to the next live seq
  // when it was the head), then splice into `wrong_config`'s order at its
  // seq-order spot, so both orders stay well-formed.
  {
    SusQueueIndex::SeqList& home = index.fifo_lists_.at(
        SusQueueIndex::ListSlot(queue.entries_[seq].config));
    std::uint32_t prev = kNoSeq;
    for (std::uint32_t at = home.head; at != seq; at = next[at]) prev = at;
    if (prev == kNoSeq) {
      home.head = next[seq];
      while (home.head != kNoSeq && !queue.entries_[home.head].task.valid()) {
        home.head = next[home.head];
      }
      if (home.head == kNoSeq) home.tail = kNoSeq;
    } else {
      next[prev] = next[seq];
      if (home.tail == seq) home.tail = prev;
    }
  }
  const std::size_t slot = SusQueueIndex::ListSlot(wrong_config);
  if (index.fifo_lists_.size() <= slot) index.fifo_lists_.resize(slot + 1);
  SusQueueIndex::SeqList& wrong = index.fifo_lists_[slot];
  std::uint32_t prev = kNoSeq;
  std::uint32_t after = wrong.head;
  while (after != kNoSeq && after < seq) {
    prev = after;
    after = next[after];
  }
  next[seq] = after;
  (prev == kNoSeq ? wrong.head : next[prev]) = seq;
  if (after == kNoSeq) wrong.tail = seq;
}

void StructureCorruptor::RepointSusOrderHead(resource::SuspensionQueue& queue,
                                             ConfigId config,
                                             std::uint32_t seq) {
  using resource::SusQueueIndex;
  if (queue.index_ == nullptr) {
    throw std::logic_error("RepointSusOrderHead: needs a drain index");
  }
  queue.index_->fifo_lists_.at(SusQueueIndex::ListSlot(config)).head = seq;
}

void StructureCorruptor::SkewSusGroupLeaf(resource::SuspensionQueue& queue,
                                          TaskId task) {
  using resource::SusQueueIndex;
  if (queue.index_ == nullptr) {
    throw std::logic_error("SkewSusGroupLeaf: needs a drain index");
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

void StructureCorruptor::SkewSusAttrs(resource::SuspensionQueue& queue,
                                      TaskId task, ConfigId config) {
  const std::uint32_t seq = queue.SeqOf(task);
  if (seq == resource::SuspensionQueue::kNoSlot) {
    throw std::logic_error("SkewSusAttrs: task is not queued");
  }
  queue.entries_[seq].config = config;
  // Rebuilt from the cells, the index agrees with the queue again.
  if (queue.index_ != nullptr) queue.SetDrainIndexed(true);
}

void StructureCorruptor::SetTaskState(resource::TaskStore& tasks, TaskId task,
                                      resource::TaskState state) {
  tasks.Get(task).state = state;
}

void StructureCorruptor::SetReadyTick(resource::ResourceStore& store,
                                      resource::EntryRef entry, Tick tick) {
  resource::Node& n = store.nodes_.at(entry.node.value());
  (void)n.Slot(entry.slot);  // throws on a dead slot
  n.slots_[entry.slot].ready_time = tick;
}

void StructureCorruptor::SkewSusLive(resource::SuspensionQueue& queue) {
  if (queue.entries_.empty()) throw std::logic_error("SkewSusLive: no cells");
  queue.live_.Set(0);
}

void StructureCorruptor::SkewSusLiveCount(resource::SuspensionQueue& queue) {
  if (queue.entries_.empty()) {
    throw std::logic_error("SkewSusLiveCount: no cells");
  }
  ++queue.live_.counts_[0];
}

void StructureCorruptor::SkipSusHead(resource::SuspensionQueue& queue) {
  if (queue.empty()) throw std::logic_error("SkipSusHead: empty queue");
  ++queue.head_;
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
  queue.entries_[into].task = task;
  FlipSusQueuedBit(queue, victim);
}

void StructureCorruptor::FlipSusQueuedBit(resource::SuspensionQueue& queue,
                                          TaskId task) {
  const std::size_t word =
      task.value() / resource::SuspensionQueue::kWordBits;
  if (queue.queued_.size() <= word) queue.queued_.resize(word + 1, 0);
  queue.queued_[word] ^= resource::SuspensionQueue::BitOf(task);
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
