#include "sched/dreamsim_policy.hpp"

#include <optional>

#include "obs/profiler.hpp"

namespace dreamsim::sched {
namespace {

using resource::EntryRef;
using resource::ResourceStore;

Decision Placed(EntryRef entry, ConfigId config, Tick config_time,
                PlacementKind kind, bool closest) {
  Decision d;
  d.outcome = Outcome::kPlaced;
  d.entry = entry;
  d.config = config;
  d.config_time = config_time;
  d.kind = kind;
  d.used_closest_match = closest;
  return d;
}

Decision SuspendOrDiscard(const resource::Configuration& cfg,
                          ResourceStore& store, bool closest) {
  Decision d;
  d.config = cfg.id;
  d.used_closest_match = closest;
  // "it explores the list of all busy nodes to search at least one
  // currently busy node with sufficient TotalArea ... If one such node is
  // found, the task is put in a suspension queue."
  d.outcome = store.AnyBusyNodeCouldFit(cfg.required_area, cfg.family)
                  ? Outcome::kSuspend
                  : Outcome::kDiscard;
  return d;
}

}  // namespace

Decision DreamSimPolicy::Schedule(const resource::Task& task,
                                  resource::ResourceStore& store) {
  const auto resolved = ResolveConfig(task, store);
  if (!resolved) {
    // Neither C_pref nor any closest match exists: discard immediately.
    Decision d;
    d.outcome = Outcome::kDiscard;
    d.used_closest_match = !task.preferred_config.valid();
    return d;
  }
  return mode_ == ReconfigMode::kPartial
             ? SchedulePartial(task, store, *resolved)
             : ScheduleFull(task, store, *resolved);
}

Decision DreamSimPolicy::SchedulePartial(const resource::Task& task,
                                         resource::ResourceStore& store,
                                         const ResolvedConfig& resolved) {
  const resource::Configuration& cfg = store.configs().Get(resolved.config);

  // Phase 1 — Allocation: "the task is directly allocated to one of the
  // idle nodes already configured with the C_pref ... best-match is the
  // node which possesses the minimum AvailableArea".
  {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kAllocation);
    if (const auto entry = store.FindBestIdleEntry(cfg.id)) {
      store.AssignTask(*entry, task.id);
      return Placed(*entry, cfg.id, 0, PlacementKind::kAllocation,
                    resolved.used_closest_match);
    }
  }

  // Phase 2 — Configuration: "one of the blank nodes is configured".
  {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kConfiguration);
    if (const auto node_id =
            store.FindBestBlankNode(cfg.required_area, cfg.family)) {
      const EntryRef entry = store.Configure(*node_id, cfg.id);
      store.AssignTask(entry, task.id);
      return Placed(entry, cfg.id, cfg.config_time,
                    PlacementKind::kConfiguration,
                    resolved.used_closest_match);
    }
  }

  // Phase 3 — Partial configuration: "a node which contains a
  // reconfigurable region with sufficient area ... chooses a node with
  // minimum sufficient region".
  {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kPartialConfiguration);
    if (const auto node_id =
            store.FindBestPartiallyBlankNode(cfg.required_area, cfg.family)) {
      const EntryRef entry = store.Configure(*node_id, cfg.id);
      store.AssignTask(entry, task.id);
      return Placed(entry, cfg.id, cfg.config_time,
                    PlacementKind::kPartialConfiguration,
                    resolved.used_closest_match);
    }
  }

  // Phase 4 — Partial re-configuration (Algorithm 1): reclaim idle entries
  // on some node until the new region fits, then configure it.
  {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kPartialReconfiguration);
    if (const auto plan = store.FindAnyIdleNode(cfg.required_area, cfg.family)) {
      for (const resource::SlotIndex slot : plan->removable_entries) {
        store.ReclaimSlot(EntryRef{plan->node, slot});
      }
      const EntryRef entry = store.Configure(plan->node, cfg.id);
      store.AssignTask(entry, task.id);
      return Placed(entry, cfg.id, cfg.config_time,
                    PlacementKind::kPartialReconfiguration,
                    resolved.used_closest_match);
    }
  }

  return SuspendOrDiscard(cfg, store,
                          resolved.used_closest_match);
}

Decision DreamSimPolicy::ScheduleFull(const resource::Task& task,
                                      resource::ResourceStore& store,
                                      const ResolvedConfig& resolved) {
  const resource::Configuration& cfg = store.configs().Get(resolved.config);

  // Phase 1 — Allocation to an idle node already holding the configuration
  // (in full mode a node has at most one configuration).
  {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kAllocation);
    if (const auto entry = store.FindBestIdleEntry(cfg.id)) {
      store.AssignTask(*entry, task.id);
      return Placed(*entry, cfg.id, 0, PlacementKind::kAllocation,
                    resolved.used_closest_match);
    }
  }

  // Phase 2 — Configuration of a blank node.
  {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kConfiguration);
    if (const auto node_id =
            store.FindBestBlankNode(cfg.required_area, cfg.family)) {
      const EntryRef entry = store.Configure(*node_id, cfg.id);
      store.AssignTask(entry, task.id);
      return Placed(entry, cfg.id, cfg.config_time,
                    PlacementKind::kConfiguration,
                    resolved.used_closest_match);
    }
  }

  // Phase 3 — Full re-configuration: wipe the tightest idle, non-blank node
  // whose whole fabric fits the configuration, then configure it for this
  // task.
  {
    const obs::ScopedPhaseTimer timer(obs::ProfPhase::kFullReconfiguration);
    if (const auto node_id =
            store.FindBestIdleConfiguredNode(cfg.required_area, cfg.family)) {
      store.BlankNode(*node_id);
      const EntryRef entry = store.Configure(*node_id, cfg.id);
      store.AssignTask(entry, task.id);
      return Placed(entry, cfg.id, cfg.config_time,
                    PlacementKind::kFullReconfiguration,
                    resolved.used_closest_match);
    }
  }

  return SuspendOrDiscard(cfg, store,
                          resolved.used_closest_match);
}

}  // namespace dreamsim::sched
