#include "sched/heuristic_policy.hpp"

#include <limits>
#include <optional>

namespace dreamsim::sched {
namespace {

using resource::EntryRef;
using resource::Node;
using dreamsim::NodeId;
using resource::ResourceStore;
using resource::StepKind;

}  // namespace

std::string_view ToString(Heuristic heuristic) {
  switch (heuristic) {
    case Heuristic::kFirstFit: return "first-fit";
    case Heuristic::kBestFit: return "best-fit";
    case Heuristic::kWorstFit: return "worst-fit";
    case Heuristic::kRandomFit: return "random-fit";
    case Heuristic::kRoundRobin: return "round-robin";
    case Heuristic::kLeastLoaded: return "least-loaded";
  }
  return "?";
}

HeuristicPolicy::HeuristicPolicy(Heuristic heuristic, std::uint64_t seed)
    : heuristic_(heuristic), rng_(seed) {}

std::int64_t HeuristicPolicy::Rank(const resource::Node& n,
                                   std::size_t scan_position,
                                   std::size_t node_count) {
  switch (heuristic_) {
    case Heuristic::kFirstFit:
      return static_cast<std::int64_t>(scan_position);
    case Heuristic::kBestFit:
      return n.available_area();
    case Heuristic::kWorstFit:
      return -n.available_area();
    case Heuristic::kRandomFit:
      return rng_.uniform_int(0, std::numeric_limits<std::int32_t>::max());
    case Heuristic::kRoundRobin: {
      // Distance ahead of the rotating cursor, by node id, wrapping once
      // round the fleet.
      const std::size_t id = n.id().value();
      return static_cast<std::int64_t>(
          id >= rr_cursor_ ? id - rr_cursor_ : id + node_count - rr_cursor_);
    }
    case Heuristic::kLeastLoaded:
      // Primary key: running tasks; secondary: leftover area.
      return static_cast<std::int64_t>(n.running_tasks()) * (1LL << 32) +
             n.available_area();
  }
  return 0;
}

Decision HeuristicPolicy::Schedule(TaskId id, const resource::TaskSpec& spec,
                                   resource::ResourceStore& store) {
  const auto resolved = ResolveConfig(spec, store);
  if (!resolved) {
    Decision d;
    d.outcome = Outcome::kDiscard;
    d.used_closest_match = !spec.preferred_config.valid();
    return d;
  }
  const resource::Configuration& cfg = store.configs().Get(resolved->config);

  const auto finish = [&](EntryRef entry, Tick config_time,
                          PlacementKind kind) {
    store.AssignTask(entry, id);
    rr_cursor_ = (entry.node.value() + 1) % std::max<std::size_t>(
                                                1, store.node_count());
    Decision d;
    d.outcome = Outcome::kPlaced;
    d.entry = entry;
    d.config = cfg.id;
    d.config_time = config_time;
    d.kind = kind;
    d.used_closest_match = resolved->used_closest_match;
    return d;
  };

  // Class A: reuse an idle entry already configured with cfg. The rank can
  // depend on the scan position (first-fit) or mutate policy state
  // (random-fit), so the scan runs through the positional FindMin — one
  // counted step and one Rank call per cell, ties to the earliest.
  {
    const auto best = store.idle_list(cfg.id).FindMinPositional(
        [&](EntryRef e, std::size_t position) {
          return static_cast<long long>(
              Rank(store.node(e.node), position, store.node_count()));
        },
        store.meter(), StepKind::kSchedulingSearch);
    if (best) return finish(*best, 0, PlacementKind::kAllocation);
  }

  // Class B: configure cfg into spare area (blank or operative node).
  {
    std::optional<NodeId> best;
    bool best_blank = false;
    if (heuristic_ == Heuristic::kFirstFit ||
        heuristic_ == Heuristic::kBestFit ||
        heuristic_ == Heuristic::kWorstFit) {
      // The stateless ranks route through the store's (indexable) host
      // search; the eligibility filter and tie-breaks match the scan below.
      const auto rank = heuristic_ == Heuristic::kFirstFit
                            ? resource::HostRank::kFirstFit
                        : heuristic_ == Heuristic::kBestFit
                            ? resource::HostRank::kBestFit
                            : resource::HostRank::kWorstFit;
      best = store.FindRankedHostNode(cfg.required_area, rank, cfg.family);
      if (best) best_blank = store.node(*best).blank();
    } else {
      // Stateful/randomized ranks depend on scan position or policy state,
      // so they keep the literal counted scan.
      std::int64_t best_rank = 0;
      std::size_t position = 0;
      for (const Node& n : store.nodes()) {
        store.meter().Add(StepKind::kSchedulingSearch);
        ++position;
        if (!cfg.CompatibleWith(n.family())) continue;
        if (!n.CanHost(cfg.required_area)) continue;
        const std::int64_t rank = Rank(n, position - 1, store.node_count());
        if (!best || rank < best_rank) {
          best = n.id();
          best_blank = n.blank();
          best_rank = rank;
        }
      }
    }
    if (best) {
      const EntryRef entry = store.Configure(*best, cfg.id);
      return finish(entry, cfg.config_time,
                    best_blank ? PlacementKind::kConfiguration
                               : PlacementKind::kPartialConfiguration);
    }
  }

  // Class C: reclaim idle entries (Algorithm 1), first feasible plan.
  if (const auto plan = store.FindAnyIdleNode(cfg.required_area, cfg.family)) {
    for (const resource::SlotIndex slot : plan->removable_entries) {
      store.ReclaimSlot(EntryRef{plan->node, slot});
    }
    const EntryRef entry = store.Configure(plan->node, cfg.id);
    return finish(entry, cfg.config_time,
                  PlacementKind::kPartialReconfiguration);
  }

  Decision d;
  d.config = cfg.id;
  d.used_closest_match = resolved->used_closest_match;
  d.outcome = store.AnyBusyNodeCouldFit(cfg.required_area, cfg.family) ? Outcome::kSuspend
                                                           : Outcome::kDiscard;
  return d;
}

}  // namespace dreamsim::sched
