#include "resource/store.hpp"

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "resource/store_index.hpp"

namespace dreamsim::resource {

namespace {

/// One node's FleetTotals contribution in its current state.
FleetTotals Contribution(const Node& node) {
  FleetTotals t;
  t.total_area = node.total_area();
  t.reconfigurations = node.reconfig_count();
  t.used_nodes = node.reconfig_count() > 0 ? 1 : 0;
  if (node.blank()) {
    t.blank_nodes = 1;
    return t;
  }
  t.configured_area = node.total_area() - node.available_area();
  t.wasted_area = node.available_area();
  if (node.busy()) {
    t.busy_nodes = 1;
    t.running_tasks = node.running_tasks();
  } else {
    t.idle_wasted_area = node.available_area();
  }
  return t;
}

/// totals = op(totals, part), field by field.
template <typename Op>
void Combine(FleetTotals& totals, const FleetTotals& part, Op op) {
  totals.blank_nodes = op(totals.blank_nodes, part.blank_nodes);
  totals.busy_nodes = op(totals.busy_nodes, part.busy_nodes);
  totals.running_tasks = op(totals.running_tasks, part.running_tasks);
  totals.total_area = op(totals.total_area, part.total_area);
  totals.configured_area = op(totals.configured_area, part.configured_area);
  totals.wasted_area = op(totals.wasted_area, part.wasted_area);
  totals.idle_wasted_area = op(totals.idle_wasted_area, part.idle_wasted_area);
  totals.reconfigurations = op(totals.reconfigurations, part.reconfigurations);
  totals.used_nodes = op(totals.used_nodes, part.used_nodes);
}

/// Brackets one node mutation: removes the node's FleetTotals contribution
/// on entry and adds its current contribution back on exit. Exit by
/// exception re-adds too, so a mutation that throws before touching the
/// node leaves the totals exactly as they were.
class TotalsDelta {
 public:
  TotalsDelta(FleetTotals& totals, const Node& node)
      : totals_(totals), node_(node) {
    Combine(totals_, Contribution(node_), std::minus<>{});
  }
  ~TotalsDelta() { Combine(totals_, Contribution(node_), std::plus<>{}); }
  TotalsDelta(const TotalsDelta&) = delete;
  TotalsDelta& operator=(const TotalsDelta&) = delete;

 private:
  FleetTotals& totals_;
  const Node& node_;
};

}  // namespace

ResourceStore::ResourceStore(ConfigCatalogue configs)
    : configs_(std::move(configs)),
      idle_lists_(configs_.size()),
      busy_lists_(configs_.size()),
      index_(std::make_unique<StoreIndex>(configs_)) {
  for (const Configuration& c : configs_.all()) {
    if (min_config_area_ == 0 || c.required_area < min_config_area_) {
      min_config_area_ = c.required_area;
    }
  }
}

// Out of line so the header can hold StoreIndex behind a forward
// declaration. Moves re-bind the index's catalogue pointer, which refers
// into the store itself.
ResourceStore::~ResourceStore() = default;

ResourceStore::ResourceStore(ResourceStore&& other) noexcept
    : configs_(std::move(other.configs_)),
      nodes_(std::move(other.nodes_)),
      idle_lists_(std::move(other.idle_lists_)),
      busy_lists_(std::move(other.busy_lists_)),
      blank_(std::move(other.blank_)),
      blank_pos_(std::move(other.blank_pos_)),
      busy_area_(std::move(other.busy_area_)),
      failed_count_(other.failed_count_),
      fleet_totals_(other.fleet_totals_),
      index_(std::move(other.index_)),
      min_config_area_(other.min_config_area_),
      meter_(other.meter_) {
  if (index_) index_->RebindCatalogue(configs_);
}

ResourceStore& ResourceStore::operator=(ResourceStore&& other) noexcept {
  if (this == &other) return *this;
  configs_ = std::move(other.configs_);
  nodes_ = std::move(other.nodes_);
  idle_lists_ = std::move(other.idle_lists_);
  busy_lists_ = std::move(other.busy_lists_);
  blank_ = std::move(other.blank_);
  blank_pos_ = std::move(other.blank_pos_);
  busy_area_ = std::move(other.busy_area_);
  failed_count_ = other.failed_count_;
  fleet_totals_ = other.fleet_totals_;
  index_ = std::move(other.index_);
  min_config_area_ = other.min_config_area_;
  meter_ = other.meter_;
  if (index_) index_->RebindCatalogue(configs_);
  return *this;
}

void ResourceStore::SetIndexed(bool enabled) {
  if (enabled == indexed()) return;
  if (!enabled) {
    index_.reset();
    return;
  }
  index_ = std::make_unique<StoreIndex>(configs_);
  index_->AddNodes(nodes_, busy_area_);
}

void ResourceStore::RefreshIndex(NodeId node_id) {
  if (index_) {
    index_->Refresh(nodes_[node_id.value()], busy_area_[node_id.value()]);
  }
}

NodeId ResourceStore::AppendNode(Area total_area, FamilyId family, Caps caps,
                                 Tick network_delay, bool contiguous,
                                 Placement placement) {
  const auto id = NodeId{static_cast<std::uint32_t>(nodes_.size())};
  nodes_.emplace_back(id, total_area, family, caps, contiguous, placement);
  nodes_.back().set_network_delay(network_delay);
  if (min_config_area_ > 0) {
    // A node can hold at most total/min-config-area live slots; capped
    // tightly (occupancy rarely passes a handful) so the hint kills the
    // small-vector reallocation churn without bloating per-node memory —
    // at a million nodes a generous cap costs real cache locality.
    nodes_.back().ReserveSlots(std::min<std::size_t>(
        static_cast<std::size_t>(total_area / min_config_area_) + 1, 16));
  }
  blank_pos_.push_back(blank_.size());
  blank_.push_back(id);
  busy_area_.push_back(0);
  Combine(fleet_totals_, Contribution(nodes_.back()), std::plus<>{});
  return id;
}

NodeId ResourceStore::AddNode(Area total_area, FamilyId family, Caps caps,
                              Tick network_delay, bool contiguous,
                              Placement placement) {
  const NodeId id = AppendNode(total_area, family, caps, network_delay,
                               contiguous, placement);
  IndexNodesFrom(id.value());
  return id;
}

void ResourceStore::IndexNodesFrom(std::size_t first) {
  const auto fresh = std::span<const Node>(nodes_).subspan(first);
  if (index_) {
    index_->AddNodes(fresh, std::span<const Area>(busy_area_).subspan(first));
  }
}

void ResourceStore::InitNodes(const NodeGenParams& params, Rng& rng) {
  if (params.count < 0) {
    throw std::invalid_argument("node count must be non-negative");
  }
  if (params.min_area <= 0 || params.min_area > params.max_area) {
    throw std::invalid_argument("invalid node area range");
  }
  const std::size_t first = nodes_.size();
  for (int i = 0; i < params.count; ++i) {
    const Area area = rng.uniform_int(params.min_area, params.max_area);
    const auto family =
        FamilyId{static_cast<std::uint32_t>(i % std::max(1, params.family_count))};
    Caps caps;
    // Capabilities scale with fabric size: bigger devices carry more BRAM
    // and DSP slices; the configuration port is family-typical.
    caps.embedded_memory_kb = area / 2;
    caps.dsp_slices = area / 25;
    caps.config_bandwidth = 400;
    const Tick delay =
        rng.uniform_int(params.min_network_delay, params.max_network_delay);
    AppendNode(area, family, caps, delay, params.contiguous_placement,
               params.placement);
  }
  IndexNodesFrom(first);
  ReserveEntryLists(params.count);
}

void ResourceStore::InitDeviceClasses(
    std::span<const DeviceClassParams> classes, std::uint64_t seed_base) {
  if (classes.empty()) {
    throw std::invalid_argument("need at least one device class");
  }
  int total = 0;
  // Validate every class before generating any node: the population is
  // indexed in one batch at the end.
  for (const DeviceClassParams& p : classes) {
    if (p.count <= 0) {
      throw std::invalid_argument(
          "device class '" + p.name + "' has non-positive count");
    }
    if (p.min_area <= 0 || p.min_area > p.max_area) {
      throw std::invalid_argument(
          "device class '" + p.name + "' has an invalid area range");
    }
    total += p.count;
  }
  const std::size_t first = nodes_.size();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const DeviceClassParams& p = classes[c];
    // Class 0 replays the homogeneous InitNodes stream verbatim; later
    // classes branch onto decoupled sub-streams so editing one class never
    // perturbs another's population.
    Rng rng(c == 0 ? seed_base
                   : DeriveSeed(seed_base, 0xDEC1A550u + std::uint64_t{c}));
    const auto family = FamilyId{static_cast<std::uint32_t>(c)};
    for (int i = 0; i < p.count; ++i) {
      const Area area = rng.uniform_int(p.min_area, p.max_area);
      Caps caps;
      caps.embedded_memory_kb = area / 2;
      caps.dsp_slices = area / 25;
      caps.config_bandwidth = p.config_bandwidth;
      const Tick delay =
          rng.uniform_int(p.min_network_delay, p.max_network_delay);
      AppendNode(area, family, caps, delay, p.contiguous_placement,
                 p.placement);
    }
  }
  IndexNodesFrom(first);
  ReserveEntryLists(total);
}

void ResourceStore::ReserveEntryLists(int node_count) {
  // Reservation discipline (DESIGN.md §14): size each per-config list for
  // the population it will plausibly hold. Entries spread across the
  // catalogue, so a couple of list slots per node per config amortizes the
  // growth reallocations without over-committing memory at large N
  // (micro_simulator's mutation benches measure the effect).
  const std::size_t per_list = std::min<std::size_t>(
      static_cast<std::size_t>(node_count),
      static_cast<std::size_t>(node_count) * 2 /
              std::max<std::size_t>(configs_.size(), 1) +
          16);
  for (EntryList& l : idle_lists_) l.Reserve(per_list);
  for (EntryList& l : busy_lists_) l.Reserve(per_list);
}

Node& ResourceStore::node(NodeId id) {
  if (!id.valid() || id.value() >= nodes_.size()) {
    throw std::out_of_range("unknown NodeId");
  }
  return nodes_[id.value()];
}

const Node& ResourceStore::node(NodeId id) const {
  return const_cast<ResourceStore*>(this)->node(id);
}

const EntryList& ResourceStore::idle_list(ConfigId config) const {
  if (!configs_.Contains(config)) throw std::out_of_range("unknown ConfigId");
  return idle_lists_[config.value()];
}

const EntryList& ResourceStore::busy_list(ConfigId config) const {
  if (!configs_.Contains(config)) throw std::out_of_range("unknown ConfigId");
  return busy_lists_[config.value()];
}

EntryList& ResourceStore::idle_list_mut(ConfigId config) {
  if (!configs_.Contains(config)) throw std::out_of_range("unknown ConfigId");
  return idle_lists_[config.value()];
}

EntryList& ResourceStore::busy_list_mut(ConfigId config) {
  if (!configs_.Contains(config)) throw std::out_of_range("unknown ConfigId");
  return busy_lists_[config.value()];
}

std::optional<EntryRef> ResourceStore::FindBestIdleEntry(ConfigId config) {
  const obs::ScopedPhaseTimer timer(obs::ProfPhase::kStoreQuery);
  // Not a scan fallback even in scan mode: this query has no index fast
  // path (the idle list is the primary structure).
  obs::MetricInc(obs::MetricId::kStoreQueryIdleEntry);
  return idle_list(config).FindMin(
      [this](EntryRef e) {
        return static_cast<long long>(node(e.node).available_area());
      },
      [](EntryRef) { return true; }, meter_, StepKind::kSchedulingSearch);
}

namespace {

/// Family compatibility: a valid required family must match the node's.
bool FamilyOk(FamilyId required, const Node& n) {
  return !required.valid() || required == n.family();
}

}  // namespace

std::optional<NodeId> ResourceStore::FindBestBlankNode(Area needed_area,
                                                       FamilyId family) {
  const obs::ScopedPhaseTimer timer(obs::ProfPhase::kStoreQuery);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kStoreQueryBlank);
    if (!index_) reg.Add(obs::MetricId::kStoreScanFallback);
  }
  if (index_) {
    // The reference scan visits every blank node, fit or not.
    meter_.Add(StepKind::kSchedulingSearch, blank_.size());
    return index_->BestBlank(needed_area, family, blank_pos_);
  }
  std::optional<NodeId> best;
  Area best_area = 0;
  for (const NodeId id : blank_) {
    meter_.Add(StepKind::kSchedulingSearch);
    const Node& n = node(id);
    if (!FamilyOk(family, n)) continue;
    if (n.total_area() < needed_area) continue;
    if (!best || n.total_area() < best_area) {
      best = id;
      best_area = n.total_area();
    }
  }
  return best;
}

std::optional<NodeId> ResourceStore::FindBestPartiallyBlankNode(
    Area needed_area, FamilyId family) {
  const obs::ScopedPhaseTimer timer(obs::ProfPhase::kStoreQuery);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kStoreQueryPartialBlank);
    if (!index_) reg.Add(obs::MetricId::kStoreScanFallback);
  }
  if (index_) {
    // The reference scan walks the whole node list unconditionally.
    meter_.Add(StepKind::kSchedulingSearch, nodes_.size());
    return index_->BestPartiallyBlank(needed_area, family, nodes_);
  }
  std::optional<NodeId> best;
  Area best_area = 0;
  for (const Node& n : nodes_) {
    meter_.Add(StepKind::kSchedulingSearch);
    if (!FamilyOk(family, n)) continue;
    if (n.blank()) continue;
    if (!n.CanHost(needed_area)) continue;
    if (!best || n.available_area() < best_area) {
      best = n.id();
      best_area = n.available_area();
    }
  }
  return best;
}

std::optional<ReconfigPlan> ResourceStore::FindAnyIdleNode(Area needed_area,
                                                           FamilyId family) {
  const obs::ScopedPhaseTimer timer(obs::ProfPhase::kStoreQuery);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kStoreQueryReclaim);
    if (!index_) reg.Add(obs::MetricId::kStoreScanFallback);
  }
  if (index_) {
    // Candidates come from the max-reclaimable-area descent; the charge is
    // the analytic count of node and slot visits the scan would have made.
    auto result = index_->FindAnyIdle(needed_area, family, nodes_);
    meter_.Add(StepKind::kSchedulingSearch, result.steps);
    return std::move(result.plan);
  }
  // Algorithm 1: walk the node list; on each node accumulate AvailableArea
  // plus the areas of idle entries (in slot order) until the target fits.
  for (const Node& n : nodes_) {
    Area accumulated = n.available_area();
    meter_.Add(StepKind::kSchedulingSearch);
    if (!FamilyOk(family, n)) continue;
    if (n.CanHost(needed_area)) {
      // Spare fabric alone suffices; nothing needs reclaiming.
      return ReconfigPlan{n.id(), {}};
    }
    std::vector<SlotIndex> removable;
    std::optional<ReconfigPlan> plan;
    n.ForEachSlot([&](SlotIndex slot, const ConfigTaskPair& pair) {
      meter_.Add(StepKind::kSchedulingSearch);
      if (plan || !pair.idle()) return;
      accumulated += configs_.Get(pair.config).required_area;
      removable.push_back(slot);
      if (accumulated < needed_area) return;
      // Under contiguous placement the scalar sum is necessary but not
      // sufficient: the freed extents must also form a big-enough hole.
      if (n.contiguous() && !n.CanHostAfterReclaiming(removable, needed_area)) {
        return;
      }
      plan = ReconfigPlan{n.id(), removable};
    });
    if (plan) return plan;
  }
  return std::nullopt;
}

bool ResourceStore::AnyBusyNodeCouldFit(Area needed_area, FamilyId family) {
  const obs::ScopedPhaseTimer timer(obs::ProfPhase::kStoreQuery);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kStoreQueryBusyFit);
    if (!index_) reg.Add(obs::MetricId::kStoreScanFallback);
  }
  if (index_) {
    const auto result = index_->AnyBusyFit(needed_area, family);
    meter_.Add(StepKind::kSchedulingSearch, result.steps);
    return result.found;
  }
  for (const Node& n : nodes_) {
    meter_.Add(StepKind::kSchedulingSearch);
    if (!FamilyOk(family, n)) continue;
    if (n.busy() && n.total_area() >= needed_area) return true;
  }
  return false;
}

std::optional<NodeId> ResourceStore::FindBestIdleConfiguredNode(
    Area needed_area, FamilyId family) {
  const obs::ScopedPhaseTimer timer(obs::ProfPhase::kStoreQuery);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kStoreQueryIdleConfigured);
    if (!index_) reg.Add(obs::MetricId::kStoreScanFallback);
  }
  if (index_) {
    meter_.Add(StepKind::kSchedulingSearch, nodes_.size());
    return index_->BestIdleConfigured(needed_area, family);
  }
  std::optional<NodeId> best;
  Area best_area = 0;
  for (const Node& n : nodes_) {
    meter_.Add(StepKind::kSchedulingSearch);
    if (!FamilyOk(family, n)) continue;
    if (n.blank() || n.busy()) continue;
    if (n.total_area() < needed_area) continue;
    if (!best || n.total_area() < best_area) {
      best = n.id();
      best_area = n.total_area();
    }
  }
  return best;
}

std::optional<NodeId> ResourceStore::FindRankedHostNode(Area needed_area,
                                                        HostRank rank,
                                                        FamilyId family) {
  const obs::ScopedPhaseTimer timer(obs::ProfPhase::kStoreQuery);
  if (obs::MetricsRegistry::enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    reg.Add(obs::MetricId::kStoreQueryRanked);
    if (!index_) reg.Add(obs::MetricId::kStoreScanFallback);
  }
  if (index_) {
    meter_.Add(StepKind::kSchedulingSearch, nodes_.size());
    return index_->RankedHost(needed_area, rank, family, nodes_);
  }
  std::optional<NodeId> best;
  Area best_avail = 0;
  for (const Node& n : nodes_) {
    meter_.Add(StepKind::kSchedulingSearch);
    if (!FamilyOk(family, n)) continue;
    if (!n.CanHost(needed_area)) continue;
    // First fit keeps the first eligible node but still walks the rest
    // (the scan has no early exit — every node costs a step).
    const bool better =
        !best || (rank == HostRank::kBestFit && n.available_area() < best_avail) ||
        (rank == HostRank::kWorstFit && n.available_area() > best_avail);
    if (better) {
      best = n.id();
      best_avail = n.available_area();
    }
  }
  return best;
}

Area ResourceStore::ReclaimablePotential(NodeId id) const {
  return node(id).total_area() - busy_area_[id.value()];
}

bool ResourceStore::CouldEventuallyHost(NodeId id, Area needed_area) const {
  const Node& n = node(id);
  if (n.CanHost(needed_area)) return true;
  // The reference accumulation only ever sums idle-entry areas, so a node
  // with no idle entry cannot improve on CanHost (this matters on a
  // fragmented contiguous fabric, where available area alone never counts).
  if (n.idle_entry_count() == 0) return false;
  return ReclaimablePotential(id) >= needed_area;
}

Area ResourceStore::CouldEventuallyHostBound(NodeId id) const {
  const Node& n = node(id);
  // A failed node hosts nothing now or after any amount of reclaiming
  // (configuration areas are positive, so a 0 bound admits no task).
  if (n.failed()) return 0;
  // CanHost(a) holds iff a <= the hostable-now bound: the largest free
  // extent under contiguous placement, the available area otherwise.
  const Area now =
      n.contiguous() ? n.layout().largest_free_extent() : n.available_area();
  if (n.idle_entry_count() == 0) return now;
  return std::max(now, ReclaimablePotential(id));
}

void ResourceStore::RemoveFromBlank(NodeId node_id) {
  const std::size_t pos = blank_pos_[node_id.value()];
  if (pos == kNotBlank) throw std::logic_error("node missing from blank list");
  // Counted cost of the reference scan that found the node at `pos`.
  meter_.Add(StepKind::kHousekeeping, pos + 1);
  const NodeId moved = blank_.back();
  blank_[pos] = moved;
  blank_.pop_back();
  blank_pos_[moved.value()] = pos;
  blank_pos_[node_id.value()] = kNotBlank;
}

void ResourceStore::PushBlank(NodeId node_id) {
  meter_.Add(StepKind::kHousekeeping);
  blank_pos_[node_id.value()] = blank_.size();
  blank_.push_back(node_id);
}

EntryRef ResourceStore::Configure(NodeId node_id, ConfigId config) {
  const Configuration& c = configs_.Get(config);
  Node& n = node(node_id);
  if (n.failed()) throw std::logic_error("Configure: node is failed");
  if (!c.CompatibleWith(n.family())) {
    throw std::logic_error(
        "Configure: bitstream family incompatible with the node");
  }
  // Declared before SendBitstream, which throws without touching the node
  // when the area does not fit; the guard then restores the same totals.
  const TotalsDelta delta(fleet_totals_, n);
  const bool was_blank = n.blank();
  const SlotIndex slot = n.SendBitstream(c);
  if (was_blank) RemoveFromBlank(node_id);
  const EntryRef entry{node_id, slot};
  idle_list_mut(config).Add(entry, meter_);
  RefreshIndex(node_id);
  return entry;
}

void ResourceStore::ReclaimSlot(EntryRef entry) {
  Node& n = node(entry.node);
  const ConfigTaskPair& pair = n.Slot(entry.slot);
  if (!pair.idle()) throw std::logic_error("ReclaimSlot: entry is busy");
  const TotalsDelta delta(fleet_totals_, n);
  if (!idle_list_mut(pair.config).Remove(entry, meter_)) {
    throw std::logic_error("ReclaimSlot: entry missing from idle list");
  }
  const Area area = configs_.Get(pair.config).required_area;
  n.MakeNodePartiallyBlank(entry.slot, area);
  if (n.blank()) PushBlank(entry.node);
  RefreshIndex(entry.node);
}

void ResourceStore::BlankNode(NodeId node_id) {
  Node& n = node(node_id);
  if (n.busy()) throw std::logic_error("BlankNode: node has running tasks");
  if (n.blank()) return;
  const TotalsDelta delta(fleet_totals_, n);
  n.ForEachSlot([&](SlotIndex slot, const ConfigTaskPair& pair) {
    if (!idle_list_mut(pair.config).Remove(EntryRef{node_id, slot}, meter_)) {
      throw std::logic_error("BlankNode: entry missing from idle list");
    }
  });
  n.MakeNodeBlank();
  PushBlank(node_id);
  RefreshIndex(node_id);
}

void ResourceStore::AssignTask(EntryRef entry, TaskId task) {
  Node& n = node(entry.node);
  const ConfigId config = n.Slot(entry.slot).config;
  const TotalsDelta delta(fleet_totals_, n);
  if (!idle_list_mut(config).Remove(entry, meter_)) {
    throw std::logic_error("AssignTask: entry missing from idle list");
  }
  n.AddTaskToNode(entry.slot, task);
  busy_list_mut(config).Add(entry, meter_);
  busy_area_[entry.node.value()] += configs_.Get(config).required_area;
  RefreshIndex(entry.node);
}

TaskId ResourceStore::ReleaseTask(EntryRef entry) {
  Node& n = node(entry.node);
  const ConfigTaskPair& pair = n.Slot(entry.slot);
  const ConfigId config = pair.config;
  const TaskId task = pair.task;
  const TotalsDelta delta(fleet_totals_, n);
  if (!busy_list_mut(config).Remove(entry, meter_)) {
    throw std::logic_error("ReleaseTask: entry missing from busy list");
  }
  n.RemoveTaskFromNode(entry.slot);
  idle_list_mut(config).Add(entry, meter_);
  busy_area_[entry.node.value()] -= configs_.Get(config).required_area;
  RefreshIndex(entry.node);
  return task;
}

std::vector<TaskId> ResourceStore::FailNode(NodeId node_id) {
  Node& n = node(node_id);
  if (n.failed()) throw std::logic_error("FailNode: node already failed");
  const TotalsDelta delta(fleet_totals_, n);
  const bool was_blank = n.blank();
  std::vector<TaskId> killed;
  n.ForEachSlot([&](SlotIndex slot, const ConfigTaskPair& pair) {
    const EntryRef entry{node_id, slot};
    const ConfigId config = pair.config;
    const TaskId task = pair.task;
    if (pair.idle()) {
      if (!idle_list_mut(config).Remove(entry, meter_)) {
        throw std::logic_error("FailNode: entry missing from idle list");
      }
      return;
    }
    if (!busy_list_mut(config).Remove(entry, meter_)) {
      throw std::logic_error("FailNode: entry missing from busy list");
    }
    busy_area_[node_id.value()] -= configs_.Get(config).required_area;
    killed.push_back(task);
    n.RemoveTaskFromNode(slot);
  });
  n.MakeNodeBlank();
  // Failed nodes are not candidates for anything, so they live outside the
  // blank list until RepairNode() re-inserts them.
  if (was_blank) RemoveFromBlank(node_id);
  n.MarkFailed();
  ++failed_count_;
  RefreshIndex(node_id);
  return killed;
}

void ResourceStore::RepairNode(NodeId node_id) {
  Node& n = node(node_id);
  if (!n.failed()) throw std::logic_error("RepairNode: node is not failed");
  const TotalsDelta delta(fleet_totals_, n);
  n.MarkRepaired();
  --failed_count_;
  PushBlank(node_id);
  RefreshIndex(node_id);
}

ResourceStore::FragmentationStats ResourceStore::Fragmentation() const {
  FragmentationStats stats;
  if (nodes_.empty()) return stats;
  double sum = 0.0;
  for (const Node& n : nodes_) {
    const double f = n.Fragmentation();
    sum += f;
    stats.max = std::max(stats.max, f);
  }
  stats.mean = sum / static_cast<double>(nodes_.size());
  return stats;
}

}  // namespace dreamsim::resource
