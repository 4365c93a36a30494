// Ground-truth reconstruction and diffing for every scheduler structure.
//
// Each pass walks the primary state (node slots, the suspension FIFO, the
// live-action table), derives what the audited structure must contain, and
// reports divergences. The membership rules are restated here from the
// documented invariants, not from the code that maintains the structures,
// so one bug cannot hide in both places (DESIGN.md §12).
//
// The auditor reads private state of the audited structures via friendship.
// lint: allow-file(store-internals)
// lint: allow-file(list-internals)
#include "analysis/structure_auditor.hpp"


#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "resource/entry_list.hpp"
#include "resource/index_primitives.hpp"
#include "resource/node.hpp"
#include "resource/store_index.hpp"
#include "resource/sus_queue_index.hpp"
#include "util/fmt.hpp"

namespace dreamsim::analysis {
namespace {

using resource::AreaTreap;
using resource::EntryList;
using resource::EntryRef;
using resource::EntryRefHash;
using resource::MaxSegTree;
using resource::Node;
using resource::PackEntryRef;
using resource::ResourceStore;
using resource::StoreIndex;
using resource::SusEntryAttrs;
using resource::SuspensionQueue;
using resource::SusQueueIndex;

/// A corrupted structure can contain arbitrarily many divergences; the
/// first handful pinpoints the bug, the rest is noise.
constexpr std::size_t kMaxViolations = 64;

void Report(AuditReport& report, std::string invariant, std::string path,
            std::string detail) {
  if (report.violations.size() >= kMaxViolations) return;
  report.violations.push_back(
      Violation{std::move(invariant), std::move(path), std::move(detail)});
}

std::string EntryPath(ConfigId config, const char* list, std::size_t pos,
                      EntryRef entry) {
  return Format("config {} {} list pos {} (node {} slot {})", config.value(),
                list, pos, entry.node.value(), entry.slot);
}

/// Ground truth recomputed per node straight from the slot array — no
/// derived counter of the node or the store is trusted.
struct NodeTruth {
  std::size_t live = 0;
  std::size_t running = 0;
  Area live_area = 0;  // sum of ReqArea over live slots
  Area busy_area = 0;  // sum of ReqArea over busy slots
};

NodeTruth RecountNode(const ResourceStore& store, const Node& node,
                      AuditReport& report) {
  NodeTruth truth;
  node.ForEachSlot([&](resource::SlotIndex slot,
                       const resource::ConfigTaskPair& pair) {
    ++truth.live;
    if (!store.configs().Contains(pair.config)) {
      Report(report, "fig3.slot",
             Format("node {} slot {}", node.id().value(), slot),
             Format("live slot holds unknown config {}", pair.config.value()));
      return;
    }
    const Area area = store.configs().Get(pair.config).required_area;
    truth.live_area += area;
    if (!pair.idle()) {
      ++truth.running;
      truth.busy_area += area;
    }
  });
  return truth;
}

}  // namespace

std::string AuditReport::Render(std::size_t max_lines) const {
  if (ok()) return "structure audit: clean";
  std::string out = Format("structure audit: {} violation(s)",
                           violations.size());
  std::size_t shown = 0;
  for (const Violation& v : violations) {
    if (shown++ == max_lines) {
      out += Format("\n  ... {} more", violations.size() - max_lines);
      break;
    }
    out += Format("\n  [{}] {}: {}", v.invariant, v.path, v.detail);
  }
  return out;
}

// --- Fig. 3 idle/busy lists -------------------------------------------------

void StructureAuditor::AuditEntryLists(const ResourceStore& store,
                                       AuditReport& report) {
  const std::size_t config_count = store.configs_.size();
  if (store.idle_lists_.size() != config_count ||
      store.busy_lists_.size() != config_count) {
    Report(report, "fig3.idle-list", "catalogue",
           Format("{} idle / {} busy lists for {} configurations",
                  store.idle_lists_.size(), store.busy_lists_.size(),
                  config_count));
    return;
  }

  // Ground truth: walk every live slot of every node.
  using EntrySet = std::unordered_set<EntryRef, EntryRefHash>;
  std::vector<EntrySet> expected_idle(config_count);
  std::vector<EntrySet> expected_busy(config_count);
  for (const Node& node : store.nodes_) {
    node.ForEachSlot([&](resource::SlotIndex slot,
                         const resource::ConfigTaskPair& pair) {
      if (pair.config.value() >= config_count) return;  // fig3.slot above
      const EntryRef entry{node.id(), slot};
      (pair.idle() ? expected_idle : expected_busy)[pair.config.value()]
          .insert(entry);
    });
  }

  const auto audit_list = [&](ConfigId config, const EntryList& list,
                              const EntrySet& expected, const char* label,
                              const char* slug) {
    EntrySet seen;
    for (std::size_t pos = 0; pos < list.cells_.size(); ++pos) {
      const EntryRef entry = list.cells_[pos];
      if (!seen.insert(entry).second) {
        Report(report, slug,
               EntryPath(config, label, pos, entry), "duplicate entry");
        continue;
      }
      if (expected.contains(entry)) continue;
      // Diagnose the orphan: failed node, dead slot, or mismatched state.
      if (entry.node.value() >= store.nodes_.size()) {
        Report(report, slug,
               EntryPath(config, label, pos, entry), "unknown node");
        continue;
      }
      const Node& node = store.nodes_[entry.node.value()];
      if (node.failed()) {
        Report(report, "fault.visibility",
               EntryPath(config, label, pos, entry),
               Format("failed node still visible in the {} list", label));
      } else if (!node.SlotLive(entry.slot)) {
        Report(report, slug,
               EntryPath(config, label, pos, entry),
               "entry references a dead slot");
      } else {
        const resource::ConfigTaskPair& pair = node.Slot(entry.slot);
        Report(report, slug,
               EntryPath(config, label, pos, entry),
               Format("slot holds config {} ({}); list expects config {} ({})",
                      pair.config.value(), pair.idle() ? "idle" : "busy",
                      config.value(), label));
      }
    }
    for (const EntryRef& entry : expected) {
      if (!seen.contains(entry)) {
        Report(report, slug,
               Format("config {} {} list", config.value(), label),
               Format("node {} slot {} is {} but missing from the list",
                      entry.node.value(), entry.slot, label));
      }
    }
    // Position map (open-addressing flat table): exact inverse of the cell
    // vector.
    if (list.table_used_ != list.cells_.size()) {
      Report(report, "fig3.positions",
             Format("config {} {} list", config.value(), label),
             Format("{} occupied table slots for {} cells", list.table_used_,
                    list.cells_.size()));
    }
    for (std::size_t pos = 0; pos < list.cells_.size(); ++pos) {
      const std::size_t slot = list.FindSlot(PackEntryRef(list.cells_[pos]));
      if (slot == list.table_.size()) {
        Report(report, "fig3.positions",
               EntryPath(config, label, pos, list.cells_[pos]),
               "cell has no position entry");
      } else if (list.table_[slot].pos != pos) {
        Report(report, "fig3.positions",
               EntryPath(config, label, pos, list.cells_[pos]),
               Format("position map says {}", list.table_[slot].pos));
      }
    }
  };

  for (std::size_t c = 0; c < config_count; ++c) {
    const ConfigId config{static_cast<std::uint32_t>(c)};
    audit_list(config, store.idle_lists_[c], expected_idle[c], "idle",
               "fig3.idle-list");
    audit_list(config, store.busy_lists_[c], expected_busy[c], "busy",
               "fig3.busy-list");
  }
}

// --- Eq. 4 area accounting --------------------------------------------------

void StructureAuditor::AuditAreaAccounting(const ResourceStore& store,
                                           AuditReport& report) {
  if (store.busy_area_.size() != store.nodes_.size()) {
    Report(report, "eq4.busy-area", "store",
           Format("busy-area mirror tracks {} nodes, store has {}",
                  store.busy_area_.size(), store.nodes_.size()));
    return;
  }
  for (const Node& node : store.nodes_) {
    const NodeTruth truth = RecountNode(store, node, report);
    // Paths are built only for a violation: audits run per decision.
    const auto path = [&node] { return Format("node {}", node.id().value()); };
    if (node.available_area() != node.total_area() - truth.live_area) {
      Report(report, "eq4.area", path(),
             Format("AvailableArea {} != TotalArea {} - live ReqArea {}",
                    node.available_area(), node.total_area(),
                    truth.live_area));
    }
    // A consistent but negative AvailableArea means the live slots
    // over-commit the fabric: Eq. 4 only ever places ReqArea <= AvailableArea.
    if (node.available_area() < 0) {
      Report(report, "eq4.area", path(),
             Format("AvailableArea {} < 0 (live ReqArea {} over-commits "
                    "TotalArea {})",
                    node.available_area(), truth.live_area,
                    node.total_area()));
    }
    if (node.config_count() != truth.live ||
        node.running_tasks() != truth.running) {
      Report(report, "fig3.slot", path(),
             Format("counters say {} live / {} running, slots hold {} / {}",
                    node.config_count(), node.running_tasks(), truth.live,
                    truth.running));
    }
    if (store.busy_area_[node.id().value()] != truth.busy_area) {
      Report(report, "eq4.busy-area", path(),
             Format("mirror {} != busy ReqArea sum {}",
                    store.busy_area_[node.id().value()], truth.busy_area));
    }
  }
}

// --- Contiguous fabric layout ----------------------------------------------

void StructureAuditor::AuditFabricLayout(const ResourceStore& store,
                                         AuditReport& report) {
  constexpr std::int64_t kHole = -1;
  for (const Node& node : store.nodes_) {
    if (!node.contiguous()) continue;
    const resource::FabricLayout& layout = node.layout();
    const auto path = [&node] {
      return Format("node {} fabric", node.id().value());
    };
    if (layout.total() != node.total_area()) {
      Report(report, "fabric.layout", path(),
             Format("layout spans {} units, TotalArea {}", layout.total(),
                    node.total_area()));
    }
    // Free holes in bounds, non-empty and coalesced (the leaf check).
    for (std::string& v : layout.Validate()) {
      Report(report, "fabric.layout", path(), std::move(v));
    }
    if (layout.free_area() != node.available_area()) {
      Report(report, "fabric.layout", path(),
             Format("free area {} != AvailableArea {}", layout.free_area(),
                    node.available_area()));
    }
    // Holes and live extents (tagged by slot) must tile the fabric: in
    // bounds and pairwise disjoint.
    std::vector<std::pair<resource::Extent, std::int64_t>> pieces;
    for (const resource::Extent& hole : layout.free_) {
      pieces.emplace_back(hole, kHole);
    }
    node.ForEachSlot([&](resource::SlotIndex slot,
                         const resource::ConfigTaskPair& pair) {
      const resource::Extent& extent = node.SlotExtent(slot);
      if (store.configs().Contains(pair.config) &&
          extent.size != store.configs().Get(pair.config).required_area) {
        Report(report, "fabric.layout", Format("{} slot {}", path(), slot),
               Format("extent size {} != ReqArea {} of config {}",
                      extent.size,
                      store.configs().Get(pair.config).required_area,
                      pair.config.value()));
      }
      pieces.emplace_back(extent, slot);
    });
    std::sort(pieces.begin(), pieces.end(), [](const auto& a, const auto& b) {
      return a.first.offset < b.first.offset;
    });
    const auto label = [](const std::pair<resource::Extent, std::int64_t>& p) {
      return Format("{} [{}, {})",
                    p.second == kHole ? std::string("hole")
                                      : Format("slot {}", p.second),
                    p.first.offset, p.first.end());
    };
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      const resource::Extent& extent = pieces[i].first;
      if (pieces[i].second != kHole &&
          (extent.offset < 0 || extent.end() > layout.total())) {
        Report(report, "fabric.layout", path(),
               Format("{} out of bounds", label(pieces[i])));
      }
      if (i > 0 && extent.offset < pieces[i - 1].first.end()) {
        Report(report, "fabric.layout", path(),
               Format("{} overlaps {}", label(pieces[i]),
                      label(pieces[i - 1])));
      }
    }
  }
}

// --- Blank list -------------------------------------------------------------

void StructureAuditor::AuditBlankList(const ResourceStore& store,
                                      AuditReport& report) {
  std::unordered_set<std::uint32_t> expected;
  for (const Node& node : store.nodes_) {
    bool any_slot = false;
    node.ForEachSlot([&](resource::SlotIndex, const resource::ConfigTaskPair&) {
      any_slot = true;
    });
    if (!any_slot && !node.failed()) expected.insert(node.id().value());
  }
  std::unordered_set<std::uint32_t> seen;
  for (std::size_t pos = 0; pos < store.blank_.size(); ++pos) {
    const NodeId id = store.blank_[pos];
    const auto path = [&] {
      return Format("blank list pos {} (node {})", pos, id.value());
    };
    if (!seen.insert(id.value()).second) {
      Report(report, "blank.list", path(), "duplicate entry");
      continue;
    }
    if (!expected.contains(id.value())) {
      const bool failed = id.value() < store.nodes_.size() &&
                          store.nodes_[id.value()].failed();
      Report(report, failed ? "fault.visibility" : "blank.list", path(),
             failed ? "failed node still in the blank list"
                    : "node has live configurations");
    }
  }
  for (const std::uint32_t id : expected) {
    if (!seen.contains(id)) {
      Report(report, "blank.list", Format("node {}", id),
             "blank node missing from the blank list");
    }
  }
  // blank_pos_: exact inverse of blank_ (kNotBlank everywhere else).
  if (store.blank_pos_.size() != store.nodes_.size()) {
    Report(report, "blank.pos", "store",
           Format("blank-pos tracks {} nodes, store has {}",
                  store.blank_pos_.size(), store.nodes_.size()));
    return;
  }
  std::vector<std::size_t> truth(store.nodes_.size(),
                                 ResourceStore::kNotBlank);
  for (std::size_t pos = 0; pos < store.blank_.size(); ++pos) {
    if (store.blank_[pos].value() < truth.size()) {
      truth[store.blank_[pos].value()] = pos;
    }
  }
  for (std::size_t id = 0; id < truth.size(); ++id) {
    if (store.blank_pos_[id] != truth[id]) {
      Report(report, "blank.pos", Format("node {}", id),
             Format("blank-pos {} != blank-list position {}",
                    store.blank_pos_[id] == ResourceStore::kNotBlank
                        ? std::string("none")
                        : Format("{}", store.blank_pos_[id]),
                    truth[id] == ResourceStore::kNotBlank
                        ? std::string("none")
                        : Format("{}", truth[id])));
    }
  }
}

// --- Fault visibility -------------------------------------------------------

void StructureAuditor::AuditFaultVisibility(const ResourceStore& store,
                                            AuditReport& report) {
  std::size_t failed = 0;
  for (const Node& node : store.nodes_) {
    if (!node.failed()) continue;
    ++failed;
    const std::string path = Format("node {}", node.id().value());
    bool any_slot = false;
    node.ForEachSlot([&](resource::SlotIndex, const resource::ConfigTaskPair&) {
      any_slot = true;
    });
    if (any_slot) {
      Report(report, "fault.visibility", path,
             "failed node still holds configurations");
    }
    if (node.available_area() != node.total_area()) {
      Report(report, "fault.visibility", path,
             "failed node's area was not reclaimed");
    }
  }
  if (store.failed_count_ != failed) {
    Report(report, "fault.count", "store",
           Format("failed-count {} != {} failed nodes", store.failed_count_,
                  failed));
  }
}

// --- Fleet-wide aggregates --------------------------------------------------

void StructureAuditor::AuditFleetTotals(const ResourceStore& store,
                                        AuditReport& report) {
  // Restated from the documented field meanings over slot recounts; the
  // store's own per-node contribution helper is deliberately not reused.
  // Areas come from Eq. 4 over the live slots (configured = live ReqArea,
  // wasted = TotalArea - live ReqArea), so a node whose counters drift
  // shows up here as well as under eq4.area.
  resource::FleetTotals truth;
  for (const Node& node : store.nodes_) {
    const NodeTruth t = RecountNode(store, node, report);
    truth.total_area += node.total_area();
    truth.reconfigurations += node.reconfig_count();
    if (node.reconfig_count() > 0) ++truth.used_nodes;
    if (t.live == 0) {
      ++truth.blank_nodes;
      continue;
    }
    truth.configured_area += t.live_area;
    truth.wasted_area += node.total_area() - t.live_area;
    if (t.running > 0) {
      ++truth.busy_nodes;
      truth.running_tasks += t.running;
    } else {
      truth.idle_wasted_area += node.total_area() - t.live_area;
    }
  }
  const resource::FleetTotals& live = store.fleet_totals();
  const auto diff = [&report](const char* field, auto running, auto recount) {
    if (running == recount) return;
    Report(report, "fleet.totals", Format("fleet totals {}", field),
           Format("running total {} != recount {}", running, recount));
  };
  diff("blank_nodes", live.blank_nodes, truth.blank_nodes);
  diff("busy_nodes", live.busy_nodes, truth.busy_nodes);
  diff("running_tasks", live.running_tasks, truth.running_tasks);
  diff("total_area", live.total_area, truth.total_area);
  diff("configured_area", live.configured_area, truth.configured_area);
  diff("wasted_area", live.wasted_area, truth.wasted_area);
  diff("idle_wasted_area", live.idle_wasted_area, truth.idle_wasted_area);
  diff("reconfigurations", live.reconfigurations, truth.reconfigurations);
  diff("used_nodes", live.used_nodes, truth.used_nodes);
}

// --- StoreIndex mirror ------------------------------------------------------

void StructureAuditor::AuditStoreIndex(const ResourceStore& store,
                                       AuditReport& report) {
  if (store.index_ == nullptr) return;
  const StoreIndex& index = *store.index_;
  if (index.cached_.size() != store.nodes_.size()) {
    Report(report, "idx.size", "index",
           Format("index tracks {} nodes, store has {}", index.cached_.size(),
                  store.nodes_.size()));
    return;
  }

  // Ground truth per node, recomputed from the slots.
  struct IndexTruth {
    NodeTruth counts;
    bool failed = false;
    std::uint32_t family = 0;
  };
  std::vector<IndexTruth> truth(store.nodes_.size());
  for (const Node& node : store.nodes_) {
    IndexTruth& t = truth[node.id().value()];
    t.counts = RecountNode(store, node, report);
    t.failed = node.failed();
    t.family = node.family().value();
  }

  // Snapshot cache: every field must match a fresh recapture.
  for (const Node& node : store.nodes_) {
    const std::uint32_t id = node.id().value();
    const StoreIndex::Snapshot& snap = index.cached_[id];
    const IndexTruth& t = truth[id];
    if (snap.total != node.total_area() ||
        snap.available != node.available_area() ||
        snap.potential != node.total_area() - t.counts.busy_area ||
        snap.config_count != static_cast<std::int64_t>(t.counts.live) ||
        snap.blank != (t.counts.live == 0) ||
        snap.busy != (t.counts.running > 0) || snap.failed != t.failed ||
        snap.family != t.family) {
      Report(report, "idx.snapshot", Format("node {}", id),
             Format("cached snapshot diverges from node state "
                    "(cached potential {}, count {}; truth {}, {})",
                    snap.potential, snap.config_count,
                    node.total_area() - t.counts.busy_area, t.counts.live));
    }
  }

  // Reconstruct the view composition: every node is in the global view
  // and, once the fleet holds two or more family values, in the view of
  // its family value (including the invalid "familyless" value), in
  // ascending id order. A one-family fleet keeps no family view.
  std::map<std::uint32_t, std::vector<std::uint32_t>> expected_families;
  std::vector<std::uint32_t> expected_global;
  for (const Node& node : store.nodes_) {
    expected_global.push_back(node.id().value());
    expected_families[node.family().value()].push_back(node.id().value());
  }

  const auto audit_view = [&](const StoreIndex::View& view,
                              const std::vector<std::uint32_t>& expected_ids,
                              const std::string& label) {
    if (view.ids != expected_ids) {
      Report(report, "idx.view", label,
             Format("view holds {} members, ground truth {}",
                    view.ids.size(), expected_ids.size()));
      return;
    }
    const std::size_t count = view.ids.size();
    if (view.potential.size() != count || view.busy_total.size() != count ||
        view.available.size() != count || view.config_count.size() != count) {
      Report(report, "idx.tree", label,
             Format("tree sizes disagree with {} members", count));
      return;
    }
    std::vector<StoreIndex::AreaKey> want_blank;
    std::vector<StoreIndex::AreaKey> want_partial;
    std::vector<StoreIndex::AreaKey> want_idle_cfg;
    for (std::size_t pos = 0; pos < count; ++pos) {
      const std::uint32_t id = view.ids[pos];
      const Node& node = store.nodes_[id];
      const IndexTruth& t = truth[id];
      const auto path = [&] {
        return Format("{} pos {} (node {})", label, pos, id);
      };
      const bool blank = t.counts.live == 0;
      const bool busy = t.counts.running > 0;
      const std::int64_t potential =
          t.failed ? MaxSegTree::kNegInf
                   : node.total_area() - t.counts.busy_area;
      if (view.potential.Value(pos) != potential) {
        Report(report, "idx.tree", path(),
               Format("potential {} != {}", view.potential.Value(pos),
                      potential));
      }
      const std::int64_t busy_total =
          busy ? node.total_area() : MaxSegTree::kNegInf;
      if (view.busy_total.Value(pos) != busy_total) {
        Report(report, "idx.tree", path(),
               Format("busy-total {} != {}", view.busy_total.Value(pos),
                      busy_total));
      }
      const std::int64_t available =
          t.failed ? MaxSegTree::kNegInf : node.available_area();
      if (view.available.Value(pos) != available) {
        Report(report, "idx.tree", path(),
               Format("available {} != {}", view.available.Value(pos),
                      available));
      }
      if (view.config_count.Value(pos) !=
          static_cast<std::int64_t>(t.counts.live)) {
        Report(report, "idx.count", path(),
               Format("config-count leaf {} != {} live slots",
                      view.config_count.Value(pos), t.counts.live));
      }
      if (blank && !t.failed) want_blank.push_back({node.total_area(), id});
      if (!blank) want_partial.push_back({node.available_area(), id});
      if (!blank && !busy) want_idle_cfg.push_back({node.total_area(), id});
    }
    const auto diff_set = [&](const std::set<StoreIndex::AreaKey>& live,
                              const std::vector<StoreIndex::AreaKey>& keys,
                              const char* name) {
      // Node ids make the wanted keys distinct, so equal sizes plus every
      // wanted key present means equal sets; only a divergence pays for
      // building the wanted set to name the first stray or missing key.
      if (live.size() == keys.size() &&
          std::all_of(keys.begin(), keys.end(),
                      [&live](const StoreIndex::AreaKey& key) {
                        return live.contains(key);
                      })) {
        return;
      }
      const std::set<StoreIndex::AreaKey> want(keys.begin(), keys.end());
      for (const StoreIndex::AreaKey& key : live) {
        if (!want.contains(key)) {
          const bool failed = key.second < truth.size() &&
                              truth[key.second].failed;
          Report(report, failed ? "fault.visibility" : "idx.set",
                 Format("{} {} (area {}, node {})", label, name, key.first,
                        key.second),
                 failed ? "failed node still keyed in the index"
                        : "stray key");
          return;
        }
      }
      for (const StoreIndex::AreaKey& key : want) {
        if (!live.contains(key)) {
          Report(report, "idx.set",
                 Format("{} {} (area {}, node {})", label, name, key.first,
                        key.second),
                 "expected key missing");
          return;
        }
      }
    };
    diff_set(view.blank_by_total, want_blank, "blank-by-total");
    diff_set(view.partial_by_avail, want_partial, "partial-by-avail");
    diff_set(view.idle_cfg_by_total, want_idle_cfg, "idle-cfg-by-total");
  };

  audit_view(index.global_, expected_global, "global view");
  if (expected_families.size() <= 1) {
    if (!index.family_views_.empty()) {
      Report(report, "idx.view", "index",
             Format("{} family views in a one-family fleet",
                    index.family_views_.size()));
    }
    // family_pos: the global view serves the family, at the node id.
    for (const std::uint32_t id : expected_global) {
      if (index.cached_[id].family_pos != id) {
        Report(report, "idx.snapshot", Format("node {}", id),
               Format("family_pos {} != global view position {}",
                      index.cached_[id].family_pos, id));
      }
    }
    return;
  }
  for (const auto& [family, ids] : expected_families) {
    const auto it = index.family_views_.find(family);
    if (it == index.family_views_.end()) {
      Report(report, "idx.view", Format("family {} view", family),
             "view missing");
      continue;
    }
    audit_view(it->second, ids, Format("family {} view", family));
    // family_pos: the cached position must point at this view slot.
    for (std::size_t pos = 0; pos < ids.size(); ++pos) {
      if (index.cached_[ids[pos]].family_pos != pos) {
        Report(report, "idx.snapshot",
               Format("node {}", ids[pos]),
               Format("family_pos {} != view position {}",
                      index.cached_[ids[pos]].family_pos, pos));
      }
    }
  }
  if (index.family_views_.size() != expected_families.size()) {
    Report(report, "idx.view", "index",
           Format("{} family views for {} distinct family values",
                  index.family_views_.size(), expected_families.size()));
  }
}

// --- Suspension queue + drain index ----------------------------------------

void StructureAuditor::AuditSusIndex(
    const SuspensionQueue& queue,
    const std::vector<std::pair<std::uint64_t, SusEntryAttrs>>& queued,
    AuditReport& report) {
  const SusQueueIndex& index = *queue.index_;
  const bool fifo = index.order_ == resource::SusOrder::kFifo;
  if (index.order_ != queue.order_) {
    Report(report, "susidx.bucket", "suspension index",
           "index order differs from the queue's drain order");
  }
  // A single-order index keeps nothing of the other order.
  if (fifo ? !index.prio_buckets_.empty()
           : !index.fifo_lists_.empty() || !index.fifo_links_.empty()) {
    Report(report, "susidx.bucket", "suspension index",
           fifo ? "FIFO-order index holds priority buckets"
                : "priority-order index holds seq lists");
  }
  if (fifo ? !index.prio_groups_.empty() : !index.fifo_groups_.empty()) {
    Report(report, "susidx.group", "suspension index",
           fifo ? "FIFO-order index holds priority treaps"
                : "priority-order index holds seq trees");
  }

  // Expected content per resolved config and per family group, built from
  // the queue's own slots and attributes (the ground truth the index
  // mirrors).
  std::map<std::uint32_t, std::set<std::uint64_t>> want_bucket_seqs;
  std::map<std::uint32_t, std::set<std::pair<double, std::uint64_t>>>
      want_bucket_prio;
  std::map<std::uint32_t, std::map<std::uint64_t, SusEntryAttrs>> want_groups;
  std::unordered_map<std::uint64_t, std::uint32_t> config_of_seq;
  for (const auto& [seq, attrs] : queued) {
    want_bucket_seqs[attrs.resolved_config.value()].insert(seq);
    want_bucket_prio[attrs.resolved_config.value()].insert(
        {-attrs.priority, seq});
    want_groups[SusQueueIndex::GroupKeyOf(attrs)].emplace(seq, attrs);
    config_of_seq.emplace(seq, attrs.resolved_config.value());
  }

  // Buckets, keyed by resolved config: the seq lists (FIFO order; each
  // walked with its links, seq order and tail checked) or the
  // (-priority, seq) sets (priority order).
  std::map<std::uint32_t, std::set<std::uint64_t>> buckets;
  if (fifo) {
    constexpr std::uint32_t kNoSeq = SusQueueIndex::kNoSeq;
    const auto& links = index.fifo_links_;
    for (std::size_t slot = 0; slot < index.fifo_lists_.size(); ++slot) {
      const SusQueueIndex::SeqList& list = index.fifo_lists_[slot];
      const std::uint32_t config =
          slot == 0 ? ConfigId::invalid().value()
                    : static_cast<std::uint32_t>(slot - 1);
      std::set<std::uint64_t>& seqs = buckets[config];
      std::uint32_t prev = kNoSeq;
      for (std::uint32_t seq = list.head; seq != kNoSeq;
           seq = links[seq].next) {
        if (seq >= links.size() || (prev != kNoSeq && seq <= prev)) {
          Report(report, "susidx.bucket",
                 Format("config {} list after seq {}", config, prev),
                 Format("link to seq {} leaves the link array or breaks seq "
                        "order (FIFO order == seq order)",
                        seq));
          break;
        }
        if (links[seq].prev != prev) {
          Report(report, "susidx.bucket",
                 Format("config {} list (seq {})", config, seq),
                 Format("back link {} != predecessor {}", links[seq].prev,
                        prev));
        }
        seqs.insert(seq);
        prev = seq;
      }
      if (list.tail != prev) {
        Report(report, "susidx.bucket", Format("config {} list", config),
               Format("tail {} != last linked seq {}", list.tail, prev));
      }
    }
  } else {
    for (const auto& [config, bucket] : index.prio_buckets_) {
      for (const auto& key : bucket) buckets[config].insert(key.second);
    }
  }
  for (const auto& [config, seqs] : buckets) {
    const auto& want_seqs = want_bucket_seqs[config];  // empty set if absent
    for (const std::uint64_t seq : seqs) {
      if (want_seqs.contains(seq)) continue;
      const auto home = config_of_seq.find(seq);
      Report(report, "susidx.bucket",
             Format("config {} bucket (seq {})", config, seq),
             home == config_of_seq.end()
                 ? std::string("entry is not queued at all")
                 : Format("entry belongs in the config {} bucket",
                          home->second));
    }
    for (const std::uint64_t seq : want_seqs) {
      if (!seqs.contains(seq)) {
        Report(report, "susidx.bucket",
               Format("config {} bucket (seq {})", config, seq),
               "expected entry missing");
      }
    }
    if (!fifo && index.prio_buckets_.at(config) != want_bucket_prio[config]) {
      Report(report, "susidx.bucket", Format("config {} bucket", config),
             "priority set diverges from ground truth");
    }
  }
  for (const auto& [config, want] : want_bucket_seqs) {
    if (!want.empty() && !buckets.contains(config)) {
      Report(report, "susidx.bucket", Format("config {} bucket", config),
             Format("bucket missing ({} expected entries)", want.size()));
    }
  }

  const auto group_label = [](std::uint32_t family) {
    return family == SusQueueIndex::kWildcardGroup
               ? std::string("wildcard group")
               : Format("family {} group", family);
  };
  std::vector<std::uint32_t> group_keys;
  if (fifo) {
    // Groups: one seq-tree leaf per seq, -needed_area for members.
    for (const auto& [family, tree] : index.fifo_groups_) {
      group_keys.push_back(family);
      const auto& members = want_groups[family];  // empty map if absent
      const std::string label = group_label(family);
      for (std::size_t seq = 0; seq < tree.size(); ++seq) {
        const auto member = members.find(seq);
        const std::int64_t want = member == members.end()
                                      ? MaxSegTree::kNegInf
                                      : -member->second.needed_area;
        if (tree.Value(seq) != want) {
          Report(report, "susidx.group", Format("{} seq {}", label, seq),
                 member == members.end()
                     ? std::string("stale live leaf for an absent entry")
                     : Format("leaf {} != -needed_area {}", tree.Value(seq),
                              member->second.needed_area));
          break;
        }
      }
      for (const auto& [seq, attrs] : members) {
        if (seq >= tree.size()) {
          Report(report, "susidx.group", Format("{} seq {}", label, seq),
                 "member beyond the seq tree");
        }
      }
    }
  } else {
    // Treaps: in-order walk must yield exactly the members sorted by
    // (-priority, seq), with correct min-area augmentation and heap order.
    for (const auto& [family, treap] : index.prio_groups_) {
      group_keys.push_back(family);
      const auto& members = want_groups[family];  // empty map if absent
      const std::string label = group_label(family);
      std::vector<std::pair<double, std::uint64_t>> walked;
      std::size_t visits = 0;
      bool structural = false;
      const std::function<Area(std::int32_t, std::uint64_t)> walk =
          [&](std::int32_t n, std::uint64_t parent_heap) -> Area {
        if (n == AreaTreap::kNull || structural) {
          return std::numeric_limits<Area>::max();
        }
        if (++visits > treap.nodes_.size()) {
          structural = true;  // cycle: more visits than allocated nodes
          return std::numeric_limits<Area>::max();
        }
        const AreaTreap::Node& node =
            treap.nodes_[static_cast<std::size_t>(n)];
        if (node.heap > parent_heap) {
          Report(report, "susidx.treap", Format("{} seq {}", label, node.seq),
                 "treap heap order violated");
          structural = true;
        }
        const Area left = walk(node.left, node.heap);
        walked.emplace_back(node.neg_priority, node.seq);
        const Area right = walk(node.right, node.heap);
        const Area subtree = std::min({node.area, left, right});
        if (node.min_area != subtree) {
          Report(report, "susidx.treap", Format("{} seq {}", label, node.seq),
                 Format("min-area {} != subtree minimum {}", node.min_area,
                        subtree));
        }
        return subtree;
      };
      walk(treap.root_, std::numeric_limits<std::uint64_t>::max());
      if (structural) {
        Report(report, "susidx.treap", label, "treap walk aborted (cycle?)");
        continue;
      }
      std::vector<std::pair<double, std::uint64_t>> want_walk;
      for (const auto& [seq, attrs] : members) {
        want_walk.emplace_back(-attrs.priority, seq);
      }
      std::sort(want_walk.begin(), want_walk.end());
      if (walked != want_walk || treap.count_ != members.size()) {
        Report(report, "susidx.treap", label,
               Format("in-order walk yields {} entries, ground truth {}",
                      walked.size(), members.size()));
      }
    }
  }
  for (const auto& [family, members] : want_groups) {
    if (!members.empty() && !std::binary_search(group_keys.begin(),
                                                group_keys.end(), family)) {
      Report(report, "susidx.group", group_label(family),
             Format("group missing ({} expected members)", members.size()));
    }
  }
}

AuditReport StructureAuditor::AuditSuspensionQueue(
    const SuspensionQueue& queue) {
  AuditReport report;
  constexpr std::uint32_t kNoSlot = SuspensionQueue::kNoSlot;
  const auto& slots = queue.slots_;
  // Ground truth: the live (non-tombstone) slots, in seq == FIFO order.
  std::vector<std::uint32_t> live;
  std::unordered_map<std::uint32_t, std::uint32_t> seq_of_task;
  for (std::uint32_t seq = 0; seq < slots.size(); ++seq) {
    const TaskId task = slots[seq].task;
    if (!task.valid()) continue;
    live.push_back(seq);
    const auto [it, fresh] = seq_of_task.emplace(task.value(), seq);
    if (!fresh) {
      Report(report, "sus.unique", Format("seq {} (task {})", seq,
                                          task.value()),
             Format("task queued twice (also at seq {})", it->second));
    }
  }

  // The linked list threads exactly the live slots, oldest first.
  std::vector<std::uint32_t> linked;
  std::uint32_t prev = kNoSlot;
  for (std::uint32_t slot = queue.head_; slot != kNoSlot;
       slot = slots[slot].next) {
    if (slot >= slots.size() || linked.size() > slots.size()) {
      Report(report, "sus.fifo", Format("link after seq {}", prev),
             "link leaves the slot array or cycles");
      break;
    }
    if (slots[slot].prev != prev) {
      Report(report, "sus.fifo", Format("seq {}", slot),
             Format("back link {} != predecessor {}", slots[slot].prev, prev));
    }
    linked.push_back(slot);
    prev = slot;
  }
  if (queue.tail_ != prev) {
    Report(report, "sus.fifo", "suspension queue",
           Format("tail {} != last linked seq {}", queue.tail_, prev));
  }
  if (linked != live) {
    Report(report, "sus.fifo", "suspension queue",
           Format("list links {} slots, {} are live (FIFO order == seq "
                  "order)",
                  linked.size(), live.size()));
  }

  // Live count == Fenwick total (which is size()), and every Fenwick leaf
  // matches its slot's tombstone state.
  if (live.size() != queue.live_.Total()) {
    Report(report, "sus.fifo", "suspension queue",
           Format("{} live slots, live tree total {}", live.size(),
                  queue.live_.Total()));
  }
  if (queue.live_.size() != slots.size()) {
    Report(report, "sus.fifo", "live tree",
           Format("{} leaves for {} slots", queue.live_.size(), slots.size()));
  } else {
    std::size_t prefix = 0;
    for (std::size_t seq = 0; seq < slots.size(); ++seq) {
      const std::size_t next = queue.live_.Prefix(seq + 1);
      const std::size_t want = slots[seq].task.valid() ? 1 : 0;
      if (next - prefix != want) {
        Report(report, "sus.fifo", Format("live tree seq {}", seq),
               Format("leaf {} != {}", next - prefix, want));
        break;
      }
      prefix = next;
    }
    if (prefix != queue.live_.Total()) {
      Report(report, "sus.fifo", "live tree",
             Format("leaves sum to {}, total says {}", prefix,
                    queue.live_.Total()));
    }
  }

  // Seq table: a row per live slot pointing back at it, and no stale row;
  // one attribute cell per slot, and a priority cell per slot exactly in a
  // priority-order queue.
  const std::size_t want_priorities =
      queue.order_ == resource::SusOrder::kPriority ? slots.size() : 0;
  const bool attrs_sized = queue.attrs_.size() == slots.size() &&
                           queue.priorities_.size() == want_priorities;
  if (!attrs_sized) {
    Report(report, "sus.fifo", "attribute arrays",
           Format("{} attribute and {} priority cells for {} slots",
                  queue.attrs_.size(), queue.priorities_.size(),
                  slots.size()));
  }
  std::vector<std::pair<std::uint64_t, SusEntryAttrs>> queued;
  for (const std::uint32_t seq : live) {
    const TaskId task = slots[seq].task;
    const std::uint32_t row = queue.SeqOf(task);
    // A task in two live slots has one row for both; that is sus.unique.
    const bool duplicate = row < slots.size() && slots[row].task == task;
    if (row != seq && !duplicate) {
      Report(report, "sus.fifo", Format("seq {} (task {})", seq, task.value()),
             row == kNoSlot ? std::string("live slot has no seq-table row")
                            : Format("seq-table row points at seq {}", row));
      continue;
    }
    if (attrs_sized) queued.emplace_back(seq, queue.AttrsAt(seq));
  }
  const std::vector<std::uint32_t>& table = queue.seq_of_task_;
  for (std::uint32_t task = 0; task < table.size(); ++task) {
    const std::uint32_t seq = table[task];
    if (seq != kNoSlot &&
        (seq >= slots.size() || slots[seq].task.value() != task)) {
      Report(report, "sus.fifo", Format("task {}", task),
             "seq-table row for a task no live slot holds");
    }
  }

  if (queue.capacity_ != 0 && queue.size() > queue.capacity_) {
    Report(report, "sus.capacity", "suspension queue",
           Format("{} queued tasks exceed capacity {}", queue.size(),
                  queue.capacity_));
  }
  // The index audit compares against the attributes, so it needs them all.
  if (queue.index_ != nullptr && attrs_sized) {
    AuditSusIndex(queue, queued, report);
  }
  return report;
}

AuditReport StructureAuditor::AuditSusAttrs(
    const SuspensionQueue& queue, const resource::TaskStore& tasks,
    const resource::ConfigCatalogue& configs) {
  AuditReport report;
  const auto& slots = queue.slots_;
  // Only a priority-order queue keeps (and reads) the priority.
  const bool by_priority = queue.order_ == resource::SusOrder::kPriority;
  for (std::uint32_t seq = 0; seq < slots.size(); ++seq) {
    const TaskId id = slots[seq].task;
    if (!id.valid()) continue;
    const auto path = [&] {
      return Format("seq {} (task {})", seq, id.value());
    };
    if (id.value() >= tasks.size() || seq >= queue.attrs_.size() ||
        (by_priority && seq >= queue.priorities_.size())) {
      Report(report, "sus.attrs", path(),
             "queued task has no task-store row or attribute cell");
      continue;
    }
    // The attributes a queued task must carry, recomputed from the task
    // and the catalogue; none of them may change while it waits.
    const resource::Task& task = tasks.Get(id);
    const SusEntryAttrs stored = queue.AttrsAt(seq);
    const FamilyId family = task.resolved_config.valid() &&
                                    configs.Contains(task.resolved_config)
                                ? configs.Get(task.resolved_config).family
                                : FamilyId::invalid();
    std::string diverged;
    const auto field = [&diverged](bool same, const char* name) {
      if (same) return;
      if (!diverged.empty()) diverged += ", ";
      diverged += name;
    };
    field(stored.resolved_config == task.resolved_config, "resolved_config");
    field(stored.config_family == family, "config_family");
    field(stored.needed_area == task.needed_area, "needed_area");
    field(!by_priority || stored.priority == task.priority, "priority");
    if (!diverged.empty()) {
      Report(report, "sus.attrs", path(),
             Format("stored {} differ from the task's", diverged));
    }
  }
  return report;
}

// --- Event queue ------------------------------------------------------------

AuditReport StructureAuditor::AuditEventQueue(const sim::EventQueue& queue,
                                              Tick now) {
  using Queue = sim::EventQueue;
  AuditReport report;
  const std::vector<Queue::Entry>& heap = queue.heap_;
  const Queue::ArrivalCursor& cursor = queue.cursor_;
  const std::uint64_t issued_bits = queue.next_sequence_ - queue.base_sequence_;
  if (queue.done_.size() < (issued_bits + 63) / 64) {
    Report(report, "evq.live", "done bitset",
           Format("{} words cannot hold the {} issued sequences",
                  queue.done_.size(), issued_bits));
    return report;  // every other check reads the bitset
  }
  const auto issued = [&queue](std::uint64_t seq) {
    return seq >= queue.base_sequence_ && seq < queue.next_sequence_;
  };
  // Out-of-range sequences are evq.sequence findings; count them as live
  // so the live recount does not report them a second time.
  const auto live = [&](std::uint64_t seq) {
    return !issued(seq) || !queue.done(seq);
  };
  const std::string seq_range =
      Format("[{}, {})", queue.base_sequence_, queue.next_sequence_);

  // Heap: the d-ary heap order, sequence bounds and uniqueness, and that
  // no live entry lies in the past.
  std::size_t live_count = 0;
  std::vector<std::pair<std::uint64_t, std::size_t>> heap_seqs;
  heap_seqs.reserve(heap.size());
  for (std::size_t pos = 0; pos < heap.size(); ++pos) {
    const Queue::Entry& entry = heap[pos];
    const std::uint64_t seq = entry.sequence();
    const auto path = [&] {
      return Format("heap pos {} (seq {}, tick {})", pos, seq, entry.tick);
    };
    if (pos > 0) {
      const std::size_t parent = (pos - 1) / Queue::kArity;
      if (Queue::Later(heap[parent], entry)) {
        Report(report, "evq.order", path(),
               Format("parent at pos {} (tick {}, seq {}) fires after it",
                      parent, heap[parent].tick, heap[parent].sequence()));
      }
    }
    if (!issued(seq)) {
      Report(report, "evq.sequence", path(),
             Format("sequence out of range {}", seq_range));
    }
    heap_seqs.emplace_back(seq, pos);
    if (!live(seq)) continue;
    ++live_count;
    if (entry.tick < now) {
      Report(report, "evq.past-tick", path(),
             Format("live event scheduled before now ({})", now));
    }
  }
  std::sort(heap_seqs.begin(), heap_seqs.end());
  for (std::size_t i = 1; i < heap_seqs.size(); ++i) {
    if (heap_seqs[i].first == heap_seqs[i - 1].first) {
      Report(report, "evq.sequence",
             Format("heap pos {} (seq {})", heap_seqs[i].second,
                    heap_seqs[i].first),
             "duplicate sequence in the heap");
    }
  }

  // Arrival cursor: its position, the order of the arrivals it has left,
  // and that every arrival behind it executed or was cancelled.
  const std::size_t total = cursor.ticks.size();
  if (total > 0) {
    const std::uint64_t first = cursor.first_sequence;
    const std::uint64_t last = first + total - 1;
    if (!issued(first) || !issued(last)) {
      Report(report, "evq.sequence", "cursor",
             Format("arrival sequences [{}, {}] out of range {}", first, last,
                    seq_range));
    }
    const auto overlap = std::lower_bound(
        heap_seqs.begin(), heap_seqs.end(), std::make_pair(first, std::size_t{0}));
    if (overlap != heap_seqs.end() && overlap->first <= last) {
      Report(report, "evq.sequence",
             Format("heap pos {} (seq {})", overlap->second, overlap->first),
             "heap entry reuses a cursor arrival's sequence");
    }
  }
  if (cursor.next > total) {
    Report(report, "evq.cursor", "cursor",
           Format("position {} past the end ({} arrivals)", cursor.next,
                  total));
  }
  for (std::size_t i = 0; i < std::min(cursor.next, total); ++i) {
    if (live(cursor.first_sequence + i)) {
      Report(report, "evq.cursor", Format("cursor arrival {}", i),
             Format("behind the cursor position {} but never fired",
                    cursor.next));
      break;
    }
  }
  for (std::size_t i = cursor.next; i < total; ++i) {
    const Tick tick = cursor.ticks[i];
    const auto path = [&] {
      return Format("cursor arrival {} (tick {})", i, tick);
    };
    if (i > cursor.next && tick < cursor.ticks[i - 1]) {
      Report(report, "evq.cursor", path(),
             Format("tick before the previous arrival's ({})",
                    cursor.ticks[i - 1]));
    }
    if (!live(cursor.first_sequence + i)) continue;
    ++live_count;
    if (tick < now) {
      Report(report, "evq.past-tick", path(),
             Format("live arrival scheduled before now ({})", now));
    }
  }

  // Live count: size() is the recount of both sources, and no done bit
  // lies at or past the next sequence to issue.
  if (queue.live_ != live_count) {
    Report(report, "evq.live", "event queue",
           Format("size() {} != {} live heap entries and cursor arrivals",
                  queue.live_, live_count));
  }
  for (std::size_t w = static_cast<std::size_t>(issued_bits / 64);
       w < queue.done_.size(); ++w) {
    std::uint64_t stray = queue.done_[w];
    if (w == issued_bits / 64) stray &= ~std::uint64_t{0} << (issued_bits % 64);
    if (stray != 0) {
      Report(report, "evq.live",
             Format("seq {}", queue.base_sequence_ + 64 * w +
                                  static_cast<std::uint64_t>(
                                      std::countr_zero(stray))),
             Format("done bit set at or past the next sequence {}",
                    queue.next_sequence_));
      break;
    }
  }
  return report;
}

// --- Entry points -----------------------------------------------------------

AuditReport StructureAuditor::AuditStore(const ResourceStore& store) {
  AuditReport report;
  AuditEntryLists(store, report);
  AuditAreaAccounting(store, report);
  AuditFabricLayout(store, report);
  AuditBlankList(store, report);
  AuditFaultVisibility(store, report);
  AuditFleetTotals(store, report);
  AuditStoreIndex(store, report);
  return report;
}

AuditReport StructureAuditor::AuditMetrics(const ResourceStore& store,
                                           const SuspensionQueue& queue,
                                           const sim::EventQueue& events,
                                           const resource::TaskStore& tasks) {
  AuditReport report;
  if (!obs::MetricsRegistry::enabled()) return report;
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Instance().TakeSnapshot();
  const auto value = [&snap](obs::MetricId id) {
    return snap.value[static_cast<std::size_t>(id)];
  };
  const auto check = [&report](bool ok, std::string_view path,
                               std::string detail) {
    if (!ok) {
      report.violations.push_back(
          {"metrics.conservation", std::string(path), std::move(detail)});
    }
  };
  using obs::MetricId;

  // Event-queue flow: every pushed event is live, executed, or cancelled.
  const std::uint64_t pushed = value(MetricId::kEvqPushed);
  const std::uint64_t popped = value(MetricId::kEvqPopped);
  const std::uint64_t cancelled = value(MetricId::kEvqCancelled);
  check(pushed == popped + cancelled + events.size(), "event-queue",
        Format("pushed {} != popped {} + cancelled {} + live {}", pushed,
               popped, cancelled, events.size()));
  check(value(MetricId::kEvqDepth) == events.size(), "event-queue",
        Format("depth gauge {} != live events {}", value(MetricId::kEvqDepth),
               events.size()));

  // Suspension-queue flow and depth gauge.
  const std::uint64_t enqueued = value(MetricId::kSusEnqueued);
  const std::uint64_t removed = value(MetricId::kSusRemoved);
  check(enqueued == removed + queue.size(), "suspension-queue",
        Format("enqueued {} != removed {} + queued {}", enqueued, removed,
               queue.size()));
  check(value(MetricId::kSusDepth) == queue.size(), "suspension-queue",
        Format("depth gauge {} != queued {}", value(MetricId::kSusDepth),
               queue.size()));

  // Fault flow: failures not yet repaired are exactly the failed nodes.
  const std::uint64_t failures = value(MetricId::kFaultFailures);
  const std::uint64_t repairs = value(MetricId::kFaultRepairs);
  check(failures == repairs + store.failed_node_count(), "faults",
        Format("failures {} != repairs {} + failed nodes {}", failures,
               repairs, store.failed_node_count()));
  check(value(MetricId::kFaultFailedNodes) == store.failed_node_count(),
        "faults",
        Format("failed-nodes gauge {} != failed nodes {}",
               value(MetricId::kFaultFailedNodes),
               store.failed_node_count()));

  // Terminal task counters vs the TaskStore's ground-truth states (the
  // counter increments share the call sites that set the states).
  const std::size_t completed =
      tasks.CountInState(resource::TaskState::kCompleted);
  const std::size_t discarded =
      tasks.CountInState(resource::TaskState::kDiscarded);
  check(value(MetricId::kTasksCompleted) == completed, "tasks",
        Format("completed counter {} != completed tasks {}",
               value(MetricId::kTasksCompleted), completed));
  check(value(MetricId::kTasksDiscarded) == discarded, "tasks",
        Format("discarded counter {} != discarded tasks {}",
               value(MetricId::kTasksDiscarded), discarded));
  return report;
}

AuditReport StructureAuditor::AuditAll(const ResourceStore& store,
                                       const SuspensionQueue& queue,
                                       const resource::TaskStore& tasks,
                                       const sim::EventQueue& events,
                                       Tick now) {
  AuditReport report = AuditStore(store);
  for (AuditReport part : {AuditSuspensionQueue(queue),
                           AuditSusAttrs(queue, tasks, store.configs()),
                           AuditEventQueue(events, now)}) {
    report.violations.insert(
        report.violations.end(),
        std::make_move_iterator(part.violations.begin()),
        std::make_move_iterator(part.violations.end()));
  }
  return report;
}

}  // namespace dreamsim::analysis
