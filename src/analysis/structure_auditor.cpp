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
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
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

using resource::AreaBucketSet;
using resource::AreaKey;
using resource::EntryList;
using resource::EntryRef;
using resource::MaxSegTree;
using resource::Node;
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
  /// First idle slot that still holds a ready tick, if any.
  resource::SlotIndex ticked_idle_slot = resource::kInvalidSlot;
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
    } else if (pair.ready_time != kNoTick &&
               truth.ticked_idle_slot == resource::kInvalidSlot) {
      truth.ticked_idle_slot = slot;
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

  // Cells: each names a live slot of the list's config and state that
  // records this very position (the Inext/Bnext of Fig. 3 kept in the
  // pair), so cells and live slots are in bijection.
  const auto audit_cells = [&](ConfigId config, const EntryList& list,
                               bool idle, const char* label,
                               const char* slug) {
    for (std::size_t pos = 0; pos < list.cells_.size(); ++pos) {
      const EntryRef entry = list.cells_[pos];
      if (entry.node.value() >= store.nodes_.size()) {
        Report(report, slug,
               EntryPath(config, label, pos, entry), "unknown node");
        continue;
      }
      const Node& node = store.nodes_[entry.node.value()];
      const resource::ConfigTaskPair* pair =
          node.SlotLive(entry.slot) ? &node.Slot(entry.slot) : nullptr;
      if (pair != nullptr && pair->config == config && pair->idle() == idle) {
        const std::uint32_t recorded = pair->list_pos;
        if (recorded == pos) continue;
        if (recorded < list.cells_.size() && list.cells_[recorded] == entry) {
          Report(report, slug,
                 EntryPath(config, label, pos, entry), "duplicate entry");
        } else {
          Report(report, "fig3.positions",
                 EntryPath(config, label, pos, entry),
                 Format("slot records list position {}", recorded));
        }
        continue;
      }
      // Diagnose the orphan: failed node, dead slot, or mismatched state.
      if (node.failed()) {
        Report(report, "fault.visibility",
               EntryPath(config, label, pos, entry),
               Format("failed node still visible in the {} list", label));
      } else if (pair == nullptr) {
        Report(report, slug,
               EntryPath(config, label, pos, entry),
               "entry references a dead slot");
      } else {
        Report(report, slug,
               EntryPath(config, label, pos, entry),
               Format("slot holds config {} ({}); list expects config {} ({})",
                      pair->config.value(), pair->idle() ? "idle" : "busy",
                      config.value(), label));
      }
    }
  };
  for (std::size_t c = 0; c < config_count; ++c) {
    const ConfigId config{static_cast<std::uint32_t>(c)};
    audit_cells(config, store.idle_lists_[c], true, "idle", "fig3.idle-list");
    audit_cells(config, store.busy_lists_[c], false, "busy", "fig3.busy-list");
  }

  // Live slots: each sits in its list at the position it records. A slot
  // found elsewhere was reported with its cell above (fig3.positions);
  // only the error path searches.
  for (const Node& node : store.nodes_) {
    node.ForEachSlot([&](resource::SlotIndex slot,
                         const resource::ConfigTaskPair& pair) {
      if (pair.config.value() >= config_count) return;  // fig3.slot above
      const EntryRef entry{node.id(), slot};
      const auto& lists = pair.idle() ? store.idle_lists_ : store.busy_lists_;
      const EntryList& list = lists[pair.config.value()];
      if (pair.list_pos < list.cells_.size() &&
          list.cells_[pair.list_pos] == entry) {
        return;
      }
      if (std::find(list.cells_.begin(), list.cells_.end(), entry) !=
          list.cells_.end()) {
        return;
      }
      const char* label = pair.idle() ? "idle" : "busy";
      Report(report, pair.idle() ? "fig3.idle-list" : "fig3.busy-list",
             Format("config {} {} list", pair.config.value(), label),
             Format("node {} slot {} is {} but missing from the list",
                    entry.node.value(), slot, label));
    });
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
    // A stale tick on an idle slot would hand a placement that forgot its
    // own a tick, hiding it from task.state's busy-slot check.
    if (truth.ticked_idle_slot != resource::kInvalidSlot) {
      Report(report, "fig3.slot",
             Format("node {} slot {}", node.id().value(),
                    truth.ticked_idle_slot),
             Format("idle slot holds ready tick {}",
                    node.Slot(truth.ticked_idle_slot).ready_time));
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
  // Per node id: expected in the list (blank, not failed), and seen there.
  const std::size_t node_count = store.nodes_.size();
  std::vector<char> expected(node_count, 0);
  std::vector<char> seen(node_count, 0);
  for (const Node& node : store.nodes_) {
    bool any_slot = false;
    node.ForEachSlot([&](resource::SlotIndex, const resource::ConfigTaskPair&) {
      any_slot = true;
    });
    if (!any_slot && !node.failed()) expected[node.id().value()] = 1;
  }
  for (std::size_t pos = 0; pos < store.blank_.size(); ++pos) {
    const NodeId id = store.blank_[pos];
    const auto path = [&] {
      return Format("blank list pos {} (node {})", pos, id.value());
    };
    const bool known = id.value() < node_count;
    if (known && seen[id.value()]) {
      Report(report, "blank.list", path(), "duplicate entry");
      continue;
    }
    if (known) seen[id.value()] = 1;
    if (!known || !expected[id.value()]) {
      const bool failed = known && store.nodes_[id.value()].failed();
      Report(report, failed ? "fault.visibility" : "blank.list", path(),
             failed ? "failed node still in the blank list"
                    : "node has live configurations");
    }
  }
  for (std::size_t id = 0; id < node_count; ++id) {
    if (expected[id] && !seen[id]) {
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

  // Ground truth per node, recomputed from the slots: what the index
  // derives from them. This table (16 bytes per node) is the pass's one
  // whole-fleet buffer besides a bit per node; views and key sets are
  // compared in place.
  struct IndexTruth {
    Area busy_area = 0;
    std::uint32_t live = 0;
    std::uint32_t running = 0;
  };
  std::vector<IndexTruth> truth(store.nodes_.size());
  std::set<std::uint32_t> families;
  for (const Node& node : store.nodes_) {
    const std::uint32_t id = node.id().value();
    const NodeTruth counts = RecountNode(store, node, report);
    IndexTruth& t = truth[id];
    t = {counts.busy_area, static_cast<std::uint32_t>(counts.live),
         static_cast<std::uint32_t>(counts.running)};
    families.insert(node.family().value());
    // Snapshot cache: every field must match a fresh recapture.
    const StoreIndex::Snapshot& snap = index.cached_[id];
    if (snap.total != node.total_area() ||
        snap.available != node.available_area() ||
        snap.potential != node.total_area() - t.busy_area ||
        snap.config_count != static_cast<std::int64_t>(t.live) ||
        snap.blank != (t.live == 0) || snap.busy != (t.running > 0) ||
        snap.failed != node.failed() ||
        snap.family != node.family().value()) {
      Report(report, "idx.snapshot", Format("node {}", id),
             Format("cached snapshot diverges from node state "
                    "(cached potential {}, count {}; truth {}, {})",
                    snap.potential, snap.config_count,
                    node.total_area() - t.busy_area, t.live));
    }
  }

  // The view composition: every node is in the global view and, once the
  // fleet holds two or more family values, in the view of its family value
  // (including the invalid "familyless" value), in ascending id order. A
  // one-family fleet keeps no family view. `family` names the family
  // value of a family view, nullopt the global view.
  std::vector<bool> seen;  // per node id: its key was found in a set
  const auto audit_view = [&](const StoreIndex::View& view,
                              std::optional<std::uint32_t> family,
                              const std::string& label) {
    const auto member = [&](std::uint32_t id) {
      return id < store.nodes_.size() &&
             (!family || store.nodes_[id].family().value() == *family);
    };
    std::size_t members = 0;
    bool same = true;
    for (std::uint32_t id = 0; id < store.nodes_.size(); ++id) {
      if (!member(id)) continue;
      same = same && members < view.ids.size() && view.ids[members] == id;
      ++members;
    }
    if (!same || members != view.ids.size()) {
      Report(report, "idx.view", label,
             Format("view holds {} members, ground truth {}",
                    view.ids.size(), members));
      return;
    }
    const std::size_t count = view.ids.size();
    if (view.potential.size() != count || view.busy_total.size() != count ||
        view.available.size() != count || view.config_count.size() != count) {
      Report(report, "idx.tree", label,
             Format("tree sizes disagree with {} members", count));
      return;
    }
    for (std::size_t pos = 0; pos < count; ++pos) {
      const std::uint32_t id = view.ids[pos];
      const Node& node = store.nodes_[id];
      const IndexTruth& t = truth[id];
      const auto path = [&] {
        return Format("{} pos {} (node {})", label, pos, id);
      };
      const bool failed = node.failed();
      const std::int64_t potential =
          failed ? MaxSegTree::kNegInf : node.total_area() - t.busy_area;
      if (view.potential.Value(pos) != potential) {
        Report(report, "idx.tree", path(),
               Format("potential {} != {}", view.potential.Value(pos),
                      potential));
      }
      const std::int64_t busy_total =
          t.running > 0 ? node.total_area() : MaxSegTree::kNegInf;
      if (view.busy_total.Value(pos) != busy_total) {
        Report(report, "idx.tree", path(),
               Format("busy-total {} != {}", view.busy_total.Value(pos),
                      busy_total));
      }
      const std::int64_t available =
          failed ? MaxSegTree::kNegInf : node.available_area();
      if (view.available.Value(pos) != available) {
        Report(report, "idx.tree", path(),
               Format("available {} != {}", view.available.Value(pos),
                      available));
      }
      if (view.config_count.Value(pos) != static_cast<std::int64_t>(t.live)) {
        Report(report, "idx.count", path(),
               Format("config-count leaf {} != {} live slots",
                      view.config_count.Value(pos), t.live));
      }
    }
    // The queries descend through the summaries, not the leaves: a stale
    // cell misroutes them even when every leaf is right.
    for (const auto& [tree, name] :
         {std::pair{&view.potential, "potential"},
          std::pair{&view.busy_total, "busy-total"},
          std::pair{&view.available, "available"}}) {
      if (const std::string stale = StaleMaxSummary(*tree); !stale.empty()) {
        Report(report, "idx.tree", Format("{} {} tree", label, name), stale);
      }
    }
    if (const std::string stale = StaleFenwickCell(view.config_count);
        !stale.empty()) {
      Report(report, "idx.count", Format("{} config-count tree", label),
             stale);
    }
    // Diffs key set `live` against the key each member must have in it
    // (`want` gives its area, nullopt when it has none). The first key in
    // (area, id) order that only one side holds is reported, as a merge of
    // the two sorted sequences would find it: the smallest stray key is
    // the first one the ordered walk cannot match, and the smallest missing
    // one is the least unmatched wanted key.
    const auto diff_set = [&](const AreaBucketSet& live, const auto& want,
                              const char* name) {
      const auto where = [&] { return Format("{} {}", label, name); };
      const auto want_area = [&](std::uint32_t id) -> std::optional<Area> {
        if (!member(id)) return std::nullopt;
        return want(store.nodes_[id], truth[id]);
      };
      seen.assign(store.nodes_.size(), false);
      // Walk the buckets themselves, not the bitmap: a bad bit must not
      // hide or invent keys, it is reported on its own below.
      std::size_t walked = 0;
      std::optional<AreaKey> prev;
      std::optional<AreaKey> stray;
      std::array<std::uint64_t, AreaBucketSet::kWords> bits{};
      for (std::size_t w = 0; w < AreaBucketSet::kWords; ++w) {
        for (const auto& bucket : live.dirs_[w]) {
          if (bucket.size == 0 || bucket.size > bucket.cap ||
              std::size_t{bucket.begin} + bucket.cap > live.pool_.size()) {
            Report(report, "idx.set", where(),
                   Format("bucket run [{}, +{}) of cap {} in a pool of {}",
                          bucket.begin, bucket.size, bucket.cap,
                          live.pool_.size()));
            return;
          }
          const std::uint64_t number =
              live.BucketOf(live.pool_[bucket.begin].area);
          for (std::uint32_t k = 0; k < bucket.size; ++k) {
            const AreaKey& key = live.pool_[bucket.begin + k];
            if (live.BucketOf(key.area) != number ||
                number / AreaBucketSet::kWordBits != w ||
                (prev && !(*prev < key))) {
              Report(report, "idx.set",
                     Format("{} (area {}, node {})", where(), key.area,
                            key.id),
                     "key out of (area, id) order or in the wrong bucket");
              return;
            }
            prev = key;
            ++walked;
            if (want_area(key.id) == std::optional<Area>{key.area}) {
              seen[key.id] = true;
            } else if (!stray) {
              stray = key;
            }
          }
          bits[w] |= std::uint64_t{1} << (number % AreaBucketSet::kWordBits);
        }
      }
      for (std::size_t w = 0; w < AreaBucketSet::kWords; ++w) {
        const bool summary = ((live.summary_ >> w) & 1) != 0;
        if (live.words_[w] != bits[w] || summary != (bits[w] != 0)) {
          Report(report, "idx.bitmap", Format("{} word {}", where(), w),
                 Format("bits {} (summary {}) for non-empty buckets {}",
                        live.words_[w], summary ? 1 : 0, bits[w]));
          break;
        }
      }
      if (live.size() != walked) {
        Report(report, "idx.set", where(),
               Format("size {} for {} bucketed keys", live.size(), walked));
      }
      std::optional<AreaKey> missing;
      for (const std::uint32_t id : view.ids) {
        const std::optional<Area> area = want_area(id);
        if (!area || seen[id]) continue;
        const AreaKey key{*area, id};
        if (!missing || key < *missing) missing = key;
      }
      if (stray && (!missing || *stray < *missing)) {
        const bool failed =
            stray->id < store.nodes_.size() && store.nodes_[stray->id].failed();
        Report(report, failed ? "fault.visibility" : "idx.set",
               Format("{} (area {}, node {})", where(), stray->area,
                      stray->id),
               failed ? "failed node still keyed in the index" : "stray key");
      } else if (missing) {
        Report(report, "idx.set",
               Format("{} (area {}, node {})", where(), missing->area,
                      missing->id),
               "expected key missing");
      }
    };
    using WantArea = std::optional<Area>;
    diff_set(view.blank_by_total,
             [](const Node& node, const IndexTruth& t) {
               return t.live == 0 && !node.failed()
                          ? WantArea{node.total_area()}
                          : std::nullopt;
             },
             "blank-by-total");
    diff_set(view.partial_by_avail,
             [](const Node& node, const IndexTruth& t) {
               return t.live != 0 ? WantArea{node.available_area()}
                                  : std::nullopt;
             },
             "partial-by-avail");
    diff_set(view.idle_cfg_by_total,
             [](const Node& node, const IndexTruth& t) {
               return t.live != 0 && t.running == 0
                          ? WantArea{node.total_area()}
                          : std::nullopt;
             },
             "idle-cfg-by-total");
  };

  audit_view(index.global_, std::nullopt, "global view");
  if (families.size() <= 1) {
    if (!index.family_views_.empty()) {
      Report(report, "idx.view", "index",
             Format("{} family views in a one-family fleet",
                    index.family_views_.size()));
    }
    // family_pos: the global view serves the family, at the node id.
    for (std::uint32_t id = 0; id < store.nodes_.size(); ++id) {
      if (index.cached_[id].family_pos != id) {
        Report(report, "idx.snapshot", Format("node {}", id),
               Format("family_pos {} != global view position {}",
                      index.cached_[id].family_pos, id));
      }
    }
    return;
  }
  for (const std::uint32_t family : families) {
    const auto it = index.family_views_.find(family);
    if (it == index.family_views_.end()) {
      Report(report, "idx.view", Format("family {} view", family),
             "view missing");
      continue;
    }
    audit_view(it->second, family, Format("family {} view", family));
    // family_pos: the cached position must point at this view slot.
    std::size_t pos = 0;
    for (const Node& node : store.nodes_) {
      if (node.family().value() != family) continue;
      const std::uint32_t id = node.id().value();
      if (index.cached_[id].family_pos != pos) {
        Report(report, "idx.snapshot", Format("node {}", id),
               Format("family_pos {} != view position {}",
                      index.cached_[id].family_pos, pos));
      }
      ++pos;
    }
  }
  if (index.family_views_.size() != families.size()) {
    Report(report, "idx.view", "index",
           Format("{} family views for {} distinct family values",
                  index.family_views_.size(), families.size()));
  }
}

// --- Suspension queue + drain index ----------------------------------------

void StructureAuditor::AuditSusIndex(
    const SuspensionQueue& queue,
    const std::vector<std::pair<std::uint64_t, SusEntryAttrs>>& queued,
    AuditReport& report) {
  const SusQueueIndex& index = *queue.index_;
  // Expected content per resolved config and per family group, built from
  // the queue's own slots and attributes (the ground truth the index
  // mirrors).
  std::map<std::uint32_t, std::set<std::uint64_t>> want_bucket_seqs;
  std::map<std::uint32_t, std::map<std::uint64_t, SusEntryAttrs>> want_groups;
  std::unordered_map<std::uint64_t, std::uint32_t> config_of_seq;
  std::unordered_map<std::uint32_t, std::uint32_t> want_groups_of_config;
  for (const auto& [seq, attrs] : queued) {
    want_groups_of_config.try_emplace(attrs.resolved_config.value(),
                                      SusQueueIndex::GroupKeyOf(attrs));
    want_bucket_seqs[attrs.resolved_config.value()].insert(seq);
    want_groups[SusQueueIndex::GroupKeyOf(attrs)].emplace(seq, attrs);
    config_of_seq.emplace(seq, attrs.resolved_config.value());
  }

  // Buckets, keyed by resolved config: the live seqs each forward order
  // reaches from its head (seq order, the live head, the tail, the group
  // and the config of every seq passed checked).
  std::map<std::uint32_t, std::set<std::uint64_t>> buckets;
  constexpr std::uint32_t kNoSeq = SusQueueIndex::kNoSeq;
  const auto& next = index.fifo_next_;
  const auto& cells = queue.entries_;
  for (std::size_t slot = 0; slot < index.fifo_lists_.size(); ++slot) {
    const SusQueueIndex::SeqList& list = index.fifo_lists_[slot];
    const std::uint32_t config =
        slot == 0 ? ConfigId::invalid().value()
                  : static_cast<std::uint32_t>(slot - 1);
    const auto label = [config] { return Format("config {} order", config); };
    std::set<std::uint64_t>& seqs = buckets[config];
    if (list.head != kNoSeq && !config_of_seq.contains(list.head)) {
      Report(report, "susidx.bucket", label(),
             Format("head {} is not a live seq", list.head));
    }
    // A removed seq may stay in its order until the head passes it, but
    // only in its own config's order.
    std::uint32_t prev = kNoSeq;
    for (std::uint32_t seq = list.head; seq != kNoSeq; seq = next[seq]) {
      if (seq >= next.size() || seq >= cells.size() ||
          (prev != kNoSeq && seq <= prev)) {
        Report(report, "susidx.bucket",
               Format("{} after seq {}", label(), prev),
               Format("link to seq {} leaves the order array or breaks seq "
                      "order (FIFO order == seq order)",
                      seq));
        break;
      }
      if (config_of_seq.contains(seq)) {
        seqs.insert(seq);
      } else if (cells[seq].config.value() != config) {
        Report(report, "susidx.bucket", Format("{} (seq {})", label(), seq),
               Format("removed seq of config {}", cells[seq].config.value()));
      }
      prev = seq;
    }
    if (list.tail != prev) {
      Report(report, "susidx.bucket", label(),
             Format("tail {} != last linked seq {}", list.tail, prev));
    }
    // (A config no live seq resolved to has its strays reported below.)
    if (const auto want = want_groups_of_config.find(config);
        list.head != kNoSeq && want != want_groups_of_config.end() &&
        list.group != want->second) {
      Report(report, "susidx.bucket", label(),
             Format("group {} != the config's group {}", list.group,
                    want->second));
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
    if (const std::string stale = StaleMaxSummary(tree); !stale.empty()) {
      Report(report, "susidx.group", Format("{} seq tree", label), stale);
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
  const auto& cells = queue.entries_;
  // Ground truth: the live (non-tombstone) cells, in seq == FIFO order.
  std::vector<std::uint32_t> live;
  std::unordered_map<std::uint32_t, std::uint32_t> seq_of_task;
  for (std::uint32_t seq = 0; seq < cells.size(); ++seq) {
    const TaskId task = cells[seq].task;
    if (!task.valid()) continue;
    live.push_back(seq);
    const auto [it, fresh] = seq_of_task.emplace(task.value(), seq);
    if (!fresh) {
      Report(report, "sus.unique", Format("seq {} (task {})", seq,
                                          task.value()),
             Format("task queued twice (also at seq {})", it->second));
    }
  }

  // The head is the oldest live seq (the cell count when none is live):
  // every walk and front pop starts there.
  const std::size_t want_head = live.empty() ? cells.size() : live.front();
  if (queue.head_ != want_head) {
    Report(report, "sus.fifo", "suspension queue",
           Format("head {} != oldest live seq {}", queue.head_, want_head));
  }

  // The live bits, recomputed from the cells: one per cell, set exactly
  // for the live ones, none past the last cell; their total is size().
  const resource::CountTree& bits = queue.live_;
  constexpr std::size_t kBits = resource::CountTree::kWordBits;
  const std::size_t want_words = (cells.size() + kBits - 1) / kBits;
  if (bits.size_ != cells.size() || bits.words_.size() != want_words) {
    Report(report, "sus.fifo", "live bits",
           Format("{} bits in {} words for {} cells", bits.size_,
                  bits.words_.size(), cells.size()));
  } else {
    for (std::size_t w = 0; w < want_words; ++w) {
      std::uint64_t want = 0;
      for (std::size_t seq = w * kBits;
           seq < std::min(cells.size(), (w + 1) * kBits); ++seq) {
        if (cells[seq].task.valid()) want |= std::uint64_t{1} << (seq % kBits);
      }
      if (bits.words_[w] != want) {
        const std::size_t seq =
            w * kBits + static_cast<std::size_t>(
                            std::countr_zero(bits.words_[w] ^ want));
        Report(report, "sus.fifo", Format("live bit of seq {}", seq),
               seq < cells.size() && cells[seq].task.valid()
                   ? std::string("clear for a live cell")
                   : std::string("set for a tombstone or past the cells"));
        break;
      }
    }
  }
  if (live.size() != bits.total_) {
    Report(report, "sus.fifo", "live bits",
           Format("{} live cells, total {}", live.size(), bits.total_));
  }
  // The word counts, recomputed from the words: Fenwick cell i (1-based)
  // holds the set bits of words (i - lowbit(i), i].
  if (bits.counts_.size() != bits.words_.size()) {
    Report(report, "sus.fifo", "live word counts",
           Format("{} count cells for {} words", bits.counts_.size(),
                  bits.words_.size()));
  } else {
    std::vector<std::size_t> prefix(bits.words_.size() + 1, 0);
    for (std::size_t w = 0; w < bits.words_.size(); ++w) {
      prefix[w + 1] = prefix[w] + static_cast<std::size_t>(
                                      std::popcount(bits.words_[w]));
    }
    for (std::size_t i = 1; i <= bits.counts_.size(); ++i) {
      const std::size_t want = prefix[i] - prefix[i - (i & (~i + 1))];
      if (bits.counts_[i - 1] != want) {
        Report(report, "sus.fifo", Format("live word count cell {}", i),
               Format("{} != {} set bits in its words", bits.counts_[i - 1],
                      want));
        break;
      }
    }
  }

  // Queued bits: set exactly for the tasks some live cell holds.
  const RunVector<std::uint64_t>& queued_bits = queue.queued_;
  for (const auto& [task, seq] : seq_of_task) {
    if (!queue.Queued(TaskId{task})) {
      Report(report, "sus.unique", Format("seq {} (task {})", seq, task),
             "live cell's task has no queued bit");
    }
  }
  for (std::size_t word = 0; word < queued_bits.size(); ++word) {
    for (std::uint64_t rest = queued_bits[word]; rest != 0; rest &= rest - 1) {
      const auto task = static_cast<std::uint32_t>(
          word * SuspensionQueue::kWordBits +
          static_cast<std::size_t>(std::countr_zero(rest)));
      if (seq_of_task.count(task) == 0) {
        Report(report, "sus.unique", Format("task {}", task),
               "queued bit for a task no live cell holds");
      }
    }
  }

  if (queue.capacity_ != 0 && queue.size() > queue.capacity_) {
    Report(report, "sus.capacity", "suspension queue",
           Format("{} queued tasks exceed capacity {}", queue.size(),
                  queue.capacity_));
  }
  // A live cell's attributes come from its task's spec and its config's
  // catalogue entry; the index audit compares against them, so it needs
  // every live cell to have both.
  bool resolvable = true;
  for (const std::uint32_t seq : live) {
    const resource::SuspensionQueue::Cell& cell = cells[seq];
    if (cell.task.value() < queue.tasks_->size() &&
        (!cell.config.valid() || queue.configs_->Contains(cell.config))) {
      continue;
    }
    Report(report, "sus.attrs", Format("seq {} (task {})", seq,
                                       cell.task.value()),
           "queued task has no task-store row or its config no catalogue "
           "entry");
    resolvable = false;
  }
  if (queue.index_ != nullptr && resolvable) {
    std::vector<std::pair<std::uint64_t, SusEntryAttrs>> queued;
    queued.reserve(live.size());
    for (const std::uint32_t seq : live) {
      queued.emplace_back(seq, queue.AttrsAt(seq));
    }
    AuditSusIndex(queue, queued, report);
  }
  return report;
}

AuditReport StructureAuditor::AuditSusAttrs(
    const SuspensionQueue& queue, const resource::TaskStore& tasks,
    const resource::ConfigCatalogue& configs) {
  AuditReport report;
  const auto& cells = queue.entries_;
  for (std::uint32_t seq = 0; seq < cells.size(); ++seq) {
    const TaskId id = cells[seq].task;
    // AuditSuspensionQueue reports a live cell without a task-store row.
    if (!id.valid() || id.value() >= tasks.size()) continue;
    // The config a queued task must carry, recomputed from its spec and
    // the catalogue: the one ResolveConfig picks (C_pref when the
    // catalogue has it, else the closest match), resolved again here with
    // the uncounted lookups. It cannot change while the task waits; the
    // area, priority and family the drains read come from the spec, the
    // task store's priority column and the catalogue themselves.
    const resource::TaskSpec& spec = tasks.Spec(id);
    Steps uncounted = 0;
    std::optional<ConfigId> config;
    if (spec.preferred_config.valid()) {
      config = configs.FindPreferred(spec.preferred_config, uncounted);
    }
    if (!config) config = configs.FindClosestMatch(spec.needed_area, uncounted);
    const ConfigId want = config.value_or(ConfigId::invalid());
    if (cells[seq].config != want) {
      Report(report, "sus.attrs", Format("seq {} (task {})", seq, id.value()),
             Format("cell's resolved_config {} differs from the task's {}",
                    cells[seq].config.value(), want.value()));
    }
  }
  return report;
}

AuditReport StructureAuditor::AuditTaskStates(
    const ResourceStore& store, const SuspensionQueue& queue,
    const resource::TaskStore& tasks) {
  using resource::TaskState;
  AuditReport report;
  // The row of a task id some structure holds, null when there is none.
  const auto row = [&tasks](TaskId id) -> const resource::Task* {
    return id.valid() && id.value() < tasks.size() ? &tasks.all()[id.value()]
                                                   : nullptr;
  };
  // Every live queue cell holds a suspended task.
  const auto& cells = queue.entries_;
  for (std::uint32_t seq = 0; seq < cells.size(); ++seq) {
    const TaskId id = cells[seq].task;
    if (!id.valid()) continue;
    const resource::Task* task = row(id);
    if (task == nullptr || task->state != TaskState::kSuspended) {
      Report(report, "task.state", Format("seq {} (task {})", seq, id.value()),
             task == nullptr ? std::string("queued task has no task-store row")
                             : Format("queued task is {}",
                                      resource::ToString(task->state)));
    }
  }
  // Every busy slot holds a running task whose execution has a start.
  std::size_t busy_slots = 0;
  for (const Node& node : store.nodes()) {
    node.ForEachSlot([&](resource::SlotIndex slot,
                        const resource::ConfigTaskPair& pair) {
      if (pair.idle()) return;
      ++busy_slots;
      const resource::Task* task = row(pair.task);
      std::string problem;
      if (task == nullptr) {
        problem = "running task has no task-store row";
      } else if (task->state != TaskState::kRunning) {
        problem = Format("running task is {}", resource::ToString(task->state));
      } else if (pair.ready_time == kNoTick) {
        problem = "busy slot has no ready tick";
      }
      if (!problem.empty()) {
        Report(report, "task.state",
               Format("node {} slot {} (task {})", node.id().value(), slot,
                      pair.task.value()),
               std::move(problem));
      }
    });
  }
  // And no task claims either state without such a slot.
  const resource::TaskStateCounts counts = tasks.CountStates();
  if (counts[TaskState::kSuspended] != queue.size()) {
    Report(report, "task.state", "task store",
           Format("{} suspended tasks, {} queued",
                  counts[TaskState::kSuspended], queue.size()));
  }
  if (counts[TaskState::kRunning] != busy_slots) {
    Report(report, "task.state", "task store",
           Format("{} running tasks, {} busy slots",
                  counts[TaskState::kRunning], busy_slots));
  }
  return report;
}

// --- Index trees ------------------------------------------------------------

std::string StructureAuditor::StaleMaxSummary(const MaxSegTree& tree) {
  constexpr std::size_t kFanout = MaxSegTree::kFanout;
  const auto& levels = tree.levels_;
  if (levels.empty()) {
    return tree.size_ == 0 ? std::string()
                           : Format("no leaves for size {}", tree.size_);
  }
  // Whole groups on every level, one group on top, and each level just
  // large enough to summarize every group below it.
  for (std::size_t k = 0; k < levels.size(); ++k) {
    const std::size_t cells = levels[k].size();
    const bool top = k + 1 == levels.size();
    const std::size_t want_groups =
        k == 0 ? std::max<std::size_t>(1, (tree.size_ + kFanout - 1) / kFanout)
               : (levels[k - 1].size() / kFanout + kFanout - 1) / kFanout;
    if (cells % kFanout != 0 || cells / kFanout != want_groups ||
        (top && cells != kFanout) || (!top && cells == kFanout)) {
      return Format("level {} holds {} cells for size {}", k, cells,
                    tree.size_);
    }
  }
  for (std::size_t pos = tree.size_; pos < levels[0].size(); ++pos) {
    if (levels[0][pos] != MaxSegTree::kNegInf) {
      return Format("padding leaf {} past size {} holds {}", pos, tree.size_,
                    levels[0][pos]);
    }
  }
  for (std::size_t k = 1; k < levels.size(); ++k) {
    for (std::size_t cell = 0; cell < levels[k].size(); ++cell) {
      std::int64_t max = MaxSegTree::kNegInf;
      const std::size_t first = cell * kFanout;
      for (std::size_t c = first;
           c < std::min(first + kFanout, levels[k - 1].size()); ++c) {
        max = std::max(max, levels[k - 1][c]);
      }
      if (levels[k][cell] != max) {
        return Format("level {} cell {} holds {}, its group's max is {}", k,
                      cell, levels[k][cell], max);
      }
    }
  }
  return {};
}

std::string StructureAuditor::StaleFenwickCell(
    const resource::PrefixSumTree& tree) {
  const std::vector<std::int64_t>& values = tree.values_;
  if (tree.tree_.size() != values.size()) {
    return Format("{} cells for {} values", tree.tree_.size(), values.size());
  }
  // Cell i (1-based) holds the sum of the values in (i - lowbit(i), i].
  std::vector<std::int64_t> prefix(values.size() + 1, 0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }
  for (std::size_t i = 1; i <= values.size(); ++i) {
    const std::size_t low = i & (~i + 1);
    const std::int64_t want = prefix[i] - prefix[i - low];
    if (tree.tree_[i - 1] != want) {
      return Format("cell {} holds {}, its range ({}, {}] sums to {}", i,
                    tree.tree_[i - 1], i - low, i, want);
    }
  }
  return {};
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
  const resource::TaskStateCounts counts = tasks.CountStates();
  const std::size_t completed = counts[resource::TaskState::kCompleted];
  const std::size_t discarded = counts[resource::TaskState::kDiscarded];
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
                           AuditTaskStates(store, queue, tasks),
                           AuditEventQueue(events, now)}) {
    report.violations.insert(
        report.violations.end(),
        std::make_move_iterator(part.violations.begin()),
        std::make_move_iterator(part.violations.end()));
  }
  return report;
}

}  // namespace dreamsim::analysis
