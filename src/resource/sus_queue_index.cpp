#include "resource/sus_queue_index.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/fmt.hpp"

namespace dreamsim::resource {

void SusQueueIndex::AssignSeqLeaf(MaxSegTree& tree, std::uint64_t seq,
                                  std::int64_t value) {
  while (tree.size() <= seq) tree.Append(MaxSegTree::kNegInf);
  tree.Assign(static_cast<std::size_t>(seq), value);
}

void SusQueueIndex::Reserve(std::size_t seqs) {
  reserved_ = std::max(reserved_, seqs);
  fifo_next_.reserve(reserved_);
  for (auto& [key, tree] : fifo_groups_) tree.Reserve(reserved_);
}

void SusQueueIndex::Add(std::uint64_t seq, const SusEntryAttrs& attrs) {
  if (seq >= kNoSeq) {
    throw std::length_error("SusQueueIndex::Add: seq beyond the link range");
  }
  const auto s = static_cast<std::uint32_t>(seq);
  const std::size_t slot = ListSlot(attrs.resolved_config);
  if (fifo_lists_.size() <= slot) fifo_lists_.resize(slot + 1);
  SeqList& list = fifo_lists_[slot];
  const std::uint32_t group = GroupKeyOf(attrs);
  if (list.tail != kNoSeq && (list.tail >= s || list.group != group)) {
    throw std::logic_error(
        "SusQueueIndex::Add: seqs must increase, and one config's seqs "
        "share a family");
  }
  if (fifo_next_.size() <= s) fifo_next_.resize(std::size_t{s} + 1, kNoSeq);
  fifo_next_[s] = kNoSeq;
  if (list.tail == kNoSeq) {
    list.head = s;
  } else {
    fifo_next_[list.tail] = s;
  }
  list.tail = s;
  list.group = group;
  const auto [tree, fresh] = fifo_groups_.try_emplace(group);
  if (fresh) tree->second.Reserve(reserved_);
  AssignSeqLeaf(tree->second, seq, -attrs.needed_area);
}

void SusQueueIndex::Remove(std::uint64_t seq, const SusEntryAttrs& attrs) {
  SeqList& list = fifo_lists_.at(ListSlot(attrs.resolved_config));
  MaxSegTree& tree = fifo_groups_.at(GroupKeyOf(attrs));
  const auto s = static_cast<std::uint32_t>(seq);
  if (seq >= kNoSeq || !Indexed(tree, s)) {
    throw std::logic_error(
        Format("SusQueueIndex::Remove: seq {} is not indexed", seq));
  }
  tree.Assign(static_cast<std::size_t>(seq), MaxSegTree::kNegInf);
  // The seq stays in its config's order; only the head steps past it,
  // and past the removed seqs behind it.
  if (list.head != s) return;
  std::uint32_t head = fifo_next_[s];
  while (head != kNoSeq && !Indexed(tree, head)) head = fifo_next_[head];
  list.head = head;
  if (head == kNoSeq) list.tail = kNoSeq;
}

std::optional<std::uint64_t> SusQueueIndex::OldestExactMatch(
    ConfigId config) const {
  const SeqList* list = FindList(config);
  if (list == nullptr || list->head == kNoSeq) return std::nullopt;
  return list->head;
}

std::optional<std::uint64_t> SusQueueIndex::OldestEligible(
    FamilyId family, Area area_bound, std::uint64_t from_seq,
    ConfigId match_config) const {
  std::optional<std::uint64_t> best;
  const SeqList* list = match_config.valid() ? FindList(match_config) : nullptr;
  if (list != nullptr && list->head != kNoSeq) {
    // The head is live, and the drain's cursor never passes a live exact
    // match it did not remove, so on the simulator's path this walk takes
    // no step.
    const MaxSegTree& tree = fifo_groups_.at(list->group);
    std::uint32_t seq = list->head;
    while (seq != kNoSeq && (seq < from_seq || !Indexed(tree, seq))) {
      seq = fifo_next_[seq];
    }
    if (seq != kNoSeq) best = seq;
  }
  // A task is family-compatible when its config family is invalid (the
  // wildcard group) or equals the node's family — Configuration::
  // CompatibleWith. A family-less node only matches the wildcard group.
  const auto search_group = [&](std::uint32_t group) {
    const auto it = fifo_groups_.find(group);
    if (it == fifo_groups_.end()) return;
    const std::size_t seq = it->second.FirstAtLeast(
        static_cast<std::size_t>(from_seq), -area_bound);
    if (seq != MaxSegTree::npos && (!best || seq < *best)) best = seq;
  };
  search_group(kWildcardGroup);
  if (family.valid()) search_group(family.value());
  return best;
}

}  // namespace dreamsim::resource
