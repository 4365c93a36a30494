#include "resource/sus_queue_index.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/fmt.hpp"

namespace dreamsim::resource {

namespace {

constexpr Area kAreaMax = std::numeric_limits<Area>::max();

/// Deterministic heap priority for treap nodes (splitmix64 finalizer) —
/// the structure must not depend on run-to-run randomness.
std::uint64_t HeapPriority(std::uint64_t seq) {
  std::uint64_t z = seq + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Lexicographic (neg_priority, seq) "less than".
bool KeyLess(double np_a, std::uint64_t seq_a, double np_b,
             std::uint64_t seq_b) {
  if (np_a != np_b) return np_a < np_b;
  return seq_a < seq_b;
}

}  // namespace

// --- AreaTreap ---

Area AreaTreap::MinArea(std::int32_t n) const {
  return n == kNull ? kAreaMax : nodes_[static_cast<std::size_t>(n)].min_area;
}

void AreaTreap::Pull(std::int32_t n) {
  Node& node = nodes_[static_cast<std::size_t>(n)];
  node.min_area =
      std::min({node.area, MinArea(node.left), MinArea(node.right)});
}

void AreaTreap::Split(std::int32_t n, double np, std::uint64_t seq,
                      std::int32_t& lo, std::int32_t& hi) {
  if (n == kNull) {
    lo = hi = kNull;
    return;
  }
  Node& node = nodes_[static_cast<std::size_t>(n)];
  if (KeyLess(node.neg_priority, node.seq, np, seq)) {
    lo = n;
    Split(node.right, np, seq, node.right, hi);
  } else {
    hi = n;
    Split(node.left, np, seq, lo, node.left);
  }
  Pull(n);
}

std::int32_t AreaTreap::Merge(std::int32_t lo, std::int32_t hi) {
  if (lo == kNull) return hi;
  if (hi == kNull) return lo;
  Node& a = nodes_[static_cast<std::size_t>(lo)];
  Node& b = nodes_[static_cast<std::size_t>(hi)];
  if (a.heap >= b.heap) {
    a.right = Merge(a.right, hi);
    Pull(lo);
    return lo;
  }
  b.left = Merge(lo, b.left);
  Pull(hi);
  return hi;
}

void AreaTreap::Insert(double neg_priority, std::uint64_t seq, Area area) {
  std::int32_t fresh;
  if (!free_.empty()) {
    fresh = free_.back();
    free_.pop_back();
  } else {
    fresh = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[static_cast<std::size_t>(fresh)];
  node = Node{neg_priority, seq,  area, area, HeapPriority(seq),
              kNull,        kNull};
  std::int32_t lo = kNull;
  std::int32_t hi = kNull;
  Split(root_, neg_priority, seq, lo, hi);
  root_ = Merge(Merge(lo, fresh), hi);
  ++count_;
}

void AreaTreap::Erase(double neg_priority, std::uint64_t seq) {
  // Split out the half-open key range [(np, seq), (np, seq + 1)) — seqs
  // are unique, so it holds exactly the node to delete. Split/Merge
  // re-pull min_area along every touched path.
  std::int32_t lo = kNull;
  std::int32_t mid = kNull;
  std::int32_t hi = kNull;
  Split(root_, neg_priority, seq, lo, mid);
  Split(mid, neg_priority, seq + 1, mid, hi);
  if (mid == kNull) throw std::logic_error("AreaTreap::Erase: key not found");
  const Node& node = nodes_[static_cast<std::size_t>(mid)];
  if (node.left != kNull || node.right != kNull || node.seq != seq) {
    throw std::logic_error("AreaTreap::Erase: key range not a single node");
  }
  free_.push_back(mid);
  --count_;
  root_ = Merge(lo, hi);
}

std::optional<std::pair<double, std::uint64_t>> AreaTreap::FirstWithAreaAtMost(
    Area bound) const {
  std::int32_t cur = root_;
  if (cur == kNull || MinArea(cur) > bound) return std::nullopt;
  while (true) {
    const Node& node = nodes_[static_cast<std::size_t>(cur)];
    if (node.left != kNull && MinArea(node.left) <= bound) {
      cur = node.left;
      continue;
    }
    if (node.area <= bound) return std::make_pair(node.neg_priority, node.seq);
    cur = node.right;  // invariant: some qualifying node exists below
  }
}

// --- SusQueueIndex ---

void SusQueueIndex::Require(SusOrder order, const char* query) const {
  if (order_ != order) {
    throw std::logic_error(Format(
        "SusQueueIndex::{}: the index serves the {} drain order", query,
        order_ == SusOrder::kFifo ? "FIFO" : "priority"));
  }
}

void SusQueueIndex::AssignSeqLeaf(MaxSegTree& tree, std::uint64_t seq,
                                  std::int64_t value) {
  while (tree.size() <= seq) tree.Append(MaxSegTree::kNegInf);
  tree.Assign(static_cast<std::size_t>(seq), value);
}

void SusQueueIndex::Add(std::uint64_t seq, const SusEntryAttrs& attrs) {
  if (order_ == SusOrder::kPriority) {
    prio_buckets_[attrs.resolved_config.value()].emplace(-attrs.priority, seq);
    prio_groups_[GroupKeyOf(attrs)].Insert(-attrs.priority, seq,
                                           attrs.needed_area);
    return;
  }
  if (seq >= kNoSeq) {
    throw std::length_error("SusQueueIndex::Add: seq beyond the link range");
  }
  const auto s = static_cast<std::uint32_t>(seq);
  const std::size_t slot = ListSlot(attrs.resolved_config);
  if (fifo_lists_.size() <= slot) fifo_lists_.resize(slot + 1);
  SeqList& list = fifo_lists_[slot];
  if (list.tail != kNoSeq && list.tail >= s) {
    throw std::logic_error("SusQueueIndex::Add: seqs must increase");
  }
  if (fifo_links_.size() <= s) fifo_links_.resize(std::size_t{s} + 1);
  fifo_links_[s] = SeqLink{list.tail, kNoSeq};
  if (list.tail == kNoSeq) {
    list.head = s;
  } else {
    fifo_links_[list.tail].next = s;
  }
  list.tail = s;
  AssignSeqLeaf(fifo_groups_[GroupKeyOf(attrs)], seq, -attrs.needed_area);
}

void SusQueueIndex::Remove(std::uint64_t seq, const SusEntryAttrs& attrs) {
  if (order_ == SusOrder::kPriority) {
    prio_buckets_.at(attrs.resolved_config.value())
        .erase({-attrs.priority, seq});
    prio_groups_.at(GroupKeyOf(attrs)).Erase(-attrs.priority, seq);
    return;
  }
  SeqList& list = fifo_lists_.at(ListSlot(attrs.resolved_config));
  SeqLink& link = fifo_links_.at(static_cast<std::size_t>(seq));
  if (link.prev == kNoSeq) {
    list.head = link.next;
  } else {
    fifo_links_[link.prev].next = link.next;
  }
  if (link.next == kNoSeq) {
    list.tail = link.prev;
  } else {
    fifo_links_[link.next].prev = link.prev;
  }
  link = SeqLink{};
  AssignSeqLeaf(fifo_groups_.at(GroupKeyOf(attrs)), seq, MaxSegTree::kNegInf);
}

template <typename Group, typename Fn>
void SusQueueIndex::ForEachGroupFor(
    const std::map<std::uint32_t, Group>& groups, FamilyId family, Fn&& fn) {
  // A task is family-compatible when its config family is invalid (the
  // wildcard group) or equals the node's family — Configuration::
  // CompatibleWith. A family-less node only matches the wildcard group.
  if (const auto it = groups.find(kWildcardGroup); it != groups.end()) {
    fn(it->second);
  }
  if (family.valid()) {
    if (const auto it = groups.find(family.value()); it != groups.end()) {
      fn(it->second);
    }
  }
}

std::optional<std::uint64_t> SusQueueIndex::OldestExactMatch(
    ConfigId config) const {
  Require(SusOrder::kFifo, "OldestExactMatch");
  const SeqList* list = FindList(config);
  if (list == nullptr || list->head == kNoSeq) return std::nullopt;
  return list->head;
}

std::optional<std::uint64_t> SusQueueIndex::BestPriorityExactMatch(
    ConfigId config) const {
  Require(SusOrder::kPriority, "BestPriorityExactMatch");
  const auto it = prio_buckets_.find(config.value());
  if (it == prio_buckets_.end() || it->second.empty()) return std::nullopt;
  return it->second.begin()->second;
}

std::optional<std::uint64_t> SusQueueIndex::OldestEligible(
    FamilyId family, Area area_bound, std::uint64_t from_seq,
    ConfigId match_config) const {
  Require(SusOrder::kFifo, "OldestEligible");
  std::optional<std::uint64_t> best;
  if (const SeqList* list = match_config.valid() ? FindList(match_config)
                                                  : nullptr) {
    // The drain's cursor never passes an exact match it did not remove,
    // so on the simulator's path this walk takes no step.
    std::uint32_t seq = list->head;
    while (seq != kNoSeq && seq < from_seq) seq = fifo_links_[seq].next;
    if (seq != kNoSeq) best = seq;
  }
  ForEachGroupFor(fifo_groups_, family, [&](const MaxSegTree& tree) {
    const std::size_t seq = tree.FirstAtLeast(
        static_cast<std::size_t>(from_seq), -area_bound);
    if (seq != MaxSegTree::npos && (!best || seq < *best)) best = seq;
  });
  return best;
}

std::optional<std::uint64_t> SusQueueIndex::BestPriorityEligible(
    FamilyId family, Area area_bound, ConfigId match_config) const {
  Require(SusOrder::kPriority, "BestPriorityEligible");
  std::optional<PrioKey> best;
  const auto consider = [&best](const PrioKey& key) {
    if (!best || key < *best) best = key;
  };
  if (match_config.valid()) {
    if (const auto it = prio_buckets_.find(match_config.value());
        it != prio_buckets_.end() && !it->second.empty()) {
      consider(*it->second.begin());
    }
  }
  ForEachGroupFor(prio_groups_, family, [&](const AreaTreap& treap) {
    if (const auto key = treap.FirstWithAreaAtMost(area_bound)) consider(*key);
  });
  if (!best) return std::nullopt;
  return best->second;
}

}  // namespace dreamsim::resource
