// Seeded corruption for the auditor tests. Every mutation here is a bug by
// construction; the point is that the StructureAuditor must say so.
// lint: allow-file(store-internals)
// lint: allow-file(list-internals)
#include "analysis/corruptor.hpp"

#include <stdexcept>
#include <utility>

#include "resource/store_index.hpp"
#include "resource/sus_queue_index.hpp"

namespace dreamsim::analysis {

void StructureCorruptor::InjectOrphanIdleEntry(resource::ResourceStore& store,
                                               ConfigId config,
                                               resource::EntryRef entry) {
  resource::EntryList& list = store.idle_lists_.at(config.value());
  // Keep the flat map fully consistent with the orphan, so only the
  // cross-structure diff against the node slots can catch it.
  list.InsertSlot(resource::PackEntryRef(entry)).pos =
      static_cast<std::uint32_t>(list.cells_.size());
  list.cells_.push_back(entry);
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

void StructureCorruptor::SkewIndexConfigCount(resource::ResourceStore& store,
                                              NodeId node) {
  if (store.index_ == nullptr) {
    throw std::logic_error("SkewIndexConfigCount: index disabled");
  }
  // Global-view positions are dense node ids.
  resource::PrefixSumTree& counts = store.index_->global_.config_count;
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
