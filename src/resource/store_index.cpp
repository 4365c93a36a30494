#include "resource/store_index.hpp"

#include <algorithm>
#include <stdexcept>


namespace dreamsim::resource {

// --- StoreIndex ---

StoreIndex::Snapshot StoreIndex::Capture(const Node& node, Area busy_area) {
  Snapshot s;
  s.total = node.total_area();
  s.available = node.available_area();
  s.potential = node.total_area() - busy_area;
  s.config_count = static_cast<std::int64_t>(node.config_count());
  s.blank = node.blank();
  s.busy = node.busy();
  s.failed = node.failed();
  s.family = node.family().value();
  return s;
}

std::int64_t StoreIndex::PotentialKey(const Snapshot& snap) {
  return snap.failed ? MaxSegTree::kNegInf : snap.potential;
}

std::int64_t StoreIndex::AvailableKey(const Snapshot& snap) {
  return snap.failed ? MaxSegTree::kNegInf : snap.available;
}

void StoreIndex::AddNode(const Node& node, Area busy_area) {
  AddNodes({&node, 1}, {&busy_area, 1});
}

void StoreIndex::AddNodes(std::span<const Node> nodes,
                          std::span<const Area> busy_area) {
  KeyBatches batches;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::uint32_t id = nodes[i].id().value();
    if (id != cached_.size()) {
      throw std::logic_error("StoreIndex::AddNode: node ids must be dense");
    }
    Snapshot snap = Capture(nodes[i], busy_area[i]);
    if (family_views_.empty() && !cached_.empty() &&
        snap.family != cached_.front().family) {
      SplitFamilyViews(batches);
    }
    if (family_views_.empty()) {
      snap.family_pos = id;
    } else {
      View& fam = family_views_[snap.family];
      snap.family_pos = fam.ids.size();
      AppendToView(fam, snap, id, batches);
    }
    AppendToView(global_, snap, id, batches);
    cached_.push_back(snap);
  }
  // A sorted range insert hints at end(), so each key costs O(1) amortized
  // when it lands past the set's current maximum — every key of a fresh set.
  for (auto& [keys, batch] : batches) {
    std::sort(batch.begin(), batch.end());
    keys->insert(batch.begin(), batch.end());
  }
}

void StoreIndex::SplitFamilyViews(KeyBatches& batches) {
  for (std::size_t id = 0; id < cached_.size(); ++id) {
    Snapshot& snap = cached_[id];
    View& fam = family_views_[snap.family];
    snap.family_pos = fam.ids.size();
    AppendToView(fam, snap, static_cast<std::uint32_t>(id), batches);
  }
}

void StoreIndex::Refresh(const Node& node, Area busy_area) {
  const std::uint32_t id = node.id().value();
  Snapshot& was = cached_.at(id);
  Snapshot now = Capture(node, busy_area);
  now.family_pos = was.family_pos;  // families are fixed at creation
  ApplyToView(global_, id, was, now, id);
  if (!family_views_.empty()) {
    ApplyToView(family_views_.at(now.family), now.family_pos, was, now, id);
  }
  was = now;
}

void StoreIndex::AppendToView(View& view, const Snapshot& snap,
                              std::uint32_t id, KeyBatches& batches) {
  view.ids.push_back(id);
  view.potential.Append(PotentialKey(snap));
  view.busy_total.Append(snap.busy ? snap.total : MaxSegTree::kNegInf);
  view.available.Append(AvailableKey(snap));
  view.config_count.Append(snap.config_count);
  if (snap.blank && !snap.failed) {
    batches[&view.blank_by_total].push_back({snap.total, id});
  }
  if (!snap.blank) {
    batches[&view.partial_by_avail].push_back({snap.available, id});
  }
  if (!snap.blank && !snap.busy) {
    batches[&view.idle_cfg_by_total].push_back({snap.total, id});
  }
}

void StoreIndex::ApplyToView(View& view, std::size_t pos, const Snapshot& was,
                             const Snapshot& now, std::uint32_t id) {
  if (PotentialKey(was) != PotentialKey(now)) {
    view.potential.Assign(pos, PotentialKey(now));
  }
  const std::int64_t was_busy = was.busy ? was.total : MaxSegTree::kNegInf;
  const std::int64_t now_busy = now.busy ? now.total : MaxSegTree::kNegInf;
  if (was_busy != now_busy) view.busy_total.Assign(pos, now_busy);
  if (AvailableKey(was) != AvailableKey(now)) {
    view.available.Assign(pos, AvailableKey(now));
  }
  if (was.config_count != now.config_count) {
    view.config_count.Assign(pos, now.config_count);
  }

  const auto resync = [&](std::set<AreaKey>& keys, bool was_in, Area was_key,
                          bool now_in, Area now_key) {
    if (was_in == now_in && (!now_in || was_key == now_key)) return;
    if (was_in) keys.erase({was_key, id});
    if (now_in) keys.insert({now_key, id});
  };
  resync(view.blank_by_total, was.blank && !was.failed, was.total,
         now.blank && !now.failed, now.total);
  resync(view.partial_by_avail, !was.blank, was.available, !now.blank,
         now.available);
  resync(view.idle_cfg_by_total, !was.blank && !was.busy, was.total,
         !now.blank && !now.busy, now.total);
}

const StoreIndex::View* StoreIndex::ViewFor(FamilyId family) const {
  if (!family.valid()) return &global_;
  if (family_views_.empty()) {
    // One family value fleet-wide: the global view holds exactly its
    // members, in the same order.
    return !cached_.empty() && cached_.front().family == family.value()
               ? &global_
               : nullptr;
  }
  const auto it = family_views_.find(family.value());
  return it == family_views_.end() ? nullptr : &it->second;
}

std::optional<NodeId> StoreIndex::BestBlank(
    Area needed_area, FamilyId family,
    const std::vector<std::size_t>& blank_pos) const {
  const View* view = ViewFor(family);
  if (view == nullptr) return std::nullopt;
  const auto it = view->blank_by_total.lower_bound({needed_area, 0});
  if (it == view->blank_by_total.end()) return std::nullopt;
  // The reference scan keeps the first fitting node *in blank-list order*
  // among ties on the minimal TotalArea, and that incidental order is part
  // of the bit-identity contract: walk the tie range and compare blank-list
  // positions. The range only spans blank nodes of one exact area.
  const Area tightest = it->first;
  std::uint32_t best = it->second;
  for (auto tie = std::next(it);
       tie != view->blank_by_total.end() && tie->first == tightest; ++tie) {
    if (blank_pos[tie->second] < blank_pos[best]) best = tie->second;
  }
  return NodeId{best};
}

std::optional<NodeId> StoreIndex::BestPartiallyBlank(
    Area needed_area, FamilyId family, const std::vector<Node>& nodes) const {
  const View* view = ViewFor(family);
  if (view == nullptr) return std::nullopt;
  // (available, id) ascending matches the scan's selection order: minimum
  // AvailableArea, ties to the smallest id. Scalar nodes in this range pass
  // CanHost by construction; only a fragmented contiguous fabric forces the
  // walk to the next candidate.
  for (auto it = view->partial_by_avail.lower_bound({needed_area, 0});
       it != view->partial_by_avail.end(); ++it) {
    const Node& n = nodes[it->second];
    if (n.CanHost(needed_area)) return n.id();
  }
  return std::nullopt;
}

std::optional<NodeId> StoreIndex::BestIdleConfigured(Area needed_area,
                                                     FamilyId family) const {
  const View* view = ViewFor(family);
  if (view == nullptr) return std::nullopt;
  const auto it = view->idle_cfg_by_total.lower_bound({needed_area, 0});
  if (it == view->idle_cfg_by_total.end()) return std::nullopt;
  return NodeId{it->second};
}

StoreIndex::BusyFit StoreIndex::AnyBusyFit(Area needed_area,
                                           FamilyId family) const {
  const auto all_nodes = static_cast<Steps>(cached_.size());
  const View* view = ViewFor(family);
  if (view == nullptr) return {false, all_nodes};
  const std::size_t pos = view->busy_total.FirstAtLeast(0, needed_area);
  if (pos == MaxSegTree::npos) return {false, all_nodes};
  // The reference scan early-exits at the first qualifying node (ascending
  // id, like this view), having charged one step per node up to it.
  return {true, static_cast<Steps>(view->ids[pos]) + 1};
}

std::optional<ReconfigPlan> StoreIndex::ReplayReclaimScan(
    const Node& node, Area needed_area) const {
  // Mirrors the Algorithm 1 inner loop exactly: accumulate idle-entry areas
  // in slot order; the plan is the minimal prefix reaching the target, and
  // under contiguous placement the freed extents must also form a
  // big-enough hole.
  Area accumulated = node.available_area();
  std::vector<SlotIndex> removable;
  std::optional<ReconfigPlan> plan;
  node.ForEachSlot([&](SlotIndex slot, const ConfigTaskPair& pair) {
    if (plan || !pair.idle()) return;
    accumulated += configs_->Get(pair.config).required_area;
    removable.push_back(slot);
    if (accumulated < needed_area) return;
    if (node.contiguous() &&
        !node.CanHostAfterReclaiming(removable, needed_area)) {
      return;
    }
    plan = ReconfigPlan{node.id(), removable};
  });
  return plan;
}

StoreIndex::AnyIdle StoreIndex::FindAnyIdle(
    Area needed_area, FamilyId family, const std::vector<Node>& nodes) const {
  const auto all_nodes = static_cast<Steps>(cached_.size());
  const View* view = ViewFor(family);
  if (view == nullptr) return {std::nullopt, all_nodes};
  // Candidate filter: a node can satisfy Algorithm 1 only when
  // AvailableArea plus all idle-entry areas — i.e. TotalArea minus busy
  // areas, the `potential` summary — reaches the target. The descent
  // enumerates exactly those nodes in ascending id, the scan's visit order.
  std::size_t pos = 0;
  while ((pos = view->potential.FirstAtLeast(pos, needed_area)) !=
         MaxSegTree::npos) {
    const Node& n = nodes[view->ids[pos]];
    // The scan charges one step per node walked (any family) plus one per
    // live slot of every family-compatible node it fully inspected.
    const Steps node_steps = static_cast<Steps>(view->ids[pos]) + 1;
    if (n.CanHost(needed_area)) {
      // CanHost exits before the slot walk: the winner's slots are free.
      const auto slot_steps =
          static_cast<Steps>(view->config_count.Prefix(pos));
      return {ReconfigPlan{n.id(), {}}, node_steps + slot_steps};
    }
    if (auto plan = ReplayReclaimScan(n, needed_area)) {
      const auto slot_steps =
          static_cast<Steps>(view->config_count.Prefix(pos + 1));
      return {std::move(plan), node_steps + slot_steps};
    }
    ++pos;  // scalar candidates always succeed; a contiguous fabric can be
            // too fragmented, in which case the scan keeps walking
  }
  return {std::nullopt,
          all_nodes + static_cast<Steps>(view->config_count.Total())};
}

std::optional<NodeId> StoreIndex::RankedHost(
    Area needed_area, HostRank rank, FamilyId family,
    const std::vector<Node>& nodes) const {
  const View* view = ViewFor(family);
  if (view == nullptr) return std::nullopt;
  switch (rank) {
    case HostRank::kFirstFit: {
      // First node in id order with AvailableArea >= needed that passes
      // CanHost (the fragmentation gate only bites under contiguous
      // placement).
      std::size_t pos = 0;
      while ((pos = view->available.FirstAtLeast(pos, needed_area)) !=
             MaxSegTree::npos) {
        const Node& n = nodes[view->ids[pos]];
        if (n.CanHost(needed_area)) return n.id();
        ++pos;
      }
      return std::nullopt;
    }
    case HostRank::kBestFit: {
      // Ascending (AvailableArea, id) over the live nodes: merge the
      // non-blank set with the blank set (a blank node's key area is its
      // TotalArea, which equals its AvailableArea).
      auto partial = view->partial_by_avail.lower_bound({needed_area, 0});
      auto blank = view->blank_by_total.lower_bound({needed_area, 0});
      const auto partial_end = view->partial_by_avail.end();
      const auto blank_end = view->blank_by_total.end();
      while (partial != partial_end || blank != blank_end) {
        const bool from_partial =
            blank == blank_end || (partial != partial_end && *partial < *blank);
        const Node& n = nodes[(from_partial ? partial++ : blank++)->second];
        if (n.CanHost(needed_area)) return n.id();
      }
      return std::nullopt;
    }
    case HostRank::kWorstFit: {
      // Walk groups of equal AvailableArea from the largest down, each
      // group drawn from both sets; within a group the scan keeps the
      // smallest id, so the two sets' group ranges merge by id.
      const auto partial_floor =
          view->partial_by_avail.lower_bound({needed_area, 0});
      const auto blank_floor =
          view->blank_by_total.lower_bound({needed_area, 0});
      auto partial_end = view->partial_by_avail.end();
      auto blank_end = view->blank_by_total.end();
      while (partial_floor != partial_end || blank_floor != blank_end) {
        const Area partial_top = partial_floor != partial_end
                                     ? std::prev(partial_end)->first
                                     : needed_area - 1;
        const Area blank_top = blank_floor != blank_end
                                   ? std::prev(blank_end)->first
                                   : needed_area - 1;
        const Area group_area = std::max(partial_top, blank_top);
        const auto partial_group =
            partial_top == group_area
                ? view->partial_by_avail.lower_bound({group_area, 0})
                : partial_end;
        const auto blank_group =
            blank_top == group_area
                ? view->blank_by_total.lower_bound({group_area, 0})
                : blank_end;
        auto partial = partial_group;
        auto blank = blank_group;
        while (partial != partial_end || blank != blank_end) {
          const bool from_partial =
              blank == blank_end ||
              (partial != partial_end && partial->second < blank->second);
          const Node& n = nodes[(from_partial ? partial++ : blank++)->second];
          if (n.CanHost(needed_area)) return n.id();
        }
        partial_end = partial_group;
        blank_end = blank_group;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace dreamsim::resource
