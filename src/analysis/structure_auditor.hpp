// StructureAuditor: from-first-principles validation of every intrusive
// scheduler structure (DESIGN.md §12).
//
// The paper's Fig. 3 lists and their shadow representations (StoreIndex,
// SusQueueIndex, fault visibility) are all *derived* state: the nodes'
// config-task-pair slots and the suspension FIFO are the ground truth.
// Every past bug class in this repo — double-armed fault chains, stacked
// renewal events, index/scan divergence — was a silent divergence between
// the two that only a differential test happened to catch. The auditor
// closes that gap: it walks the primary state, independently reconstructs
// what every derived structure *must* contain, and diffs that against the
// live structures, reporting each divergence with a human-readable path
// (node id, config, family, list position).
//
// It is the one structure checker: the resource structures carry no
// self-validators of their own, and the membership rules here are restated
// from the documented invariants rather than from the code that maintains
// the structures. Only leaf checks with no derived twin stay next to their
// code: FabricLayout::Validate (which the fabric.layout pass reuses).
//
// Read-only by construction: every entry point takes const references and
// never charges the WorkloadMeter (an audit is tooling, not scheduler
// effort the paper's Table I would count).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "resource/index_primitives.hpp"
#include "resource/store.hpp"
#include "resource/suspension_queue.hpp"
#include "resource/task.hpp"
#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace dreamsim::analysis {

/// One divergence between a live structure and reconstructed ground truth.
struct Violation {
  /// Invariant slug from the DESIGN.md §12 catalogue (e.g. "fig3.idle-list",
  /// "fault.visibility", "susidx.bucket").
  std::string invariant;
  /// Human-readable location: node id, config, family, list position.
  std::string path;
  /// What diverged (expected vs actual).
  std::string detail;
};

/// The outcome of one audit pass. Violations appear in structure-walk
/// order, so the first entry is the divergence closest to the ground truth
/// (the most useful one to debug from).
struct AuditReport {
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }

  /// Multi-line rendering: one "[slug] path: detail" line per violation,
  /// capped at `max_lines` (docs/formats.md "Auditor violation report").
  [[nodiscard]] std::string Render(std::size_t max_lines = 8) const;
};

/// Stateless audit passes over the scheduler structures. All entry points
/// are static; the class exists to be befriended by the audited structures.
class StructureAuditor {
 public:
  /// Audits the Fig. 3 lists, the Eq. 4 area accounting, the contiguous
  /// fabric layouts, the blank list, the fault-visibility rules, the
  /// fleet-wide aggregates, and (when enabled) the StoreIndex mirror.
  [[nodiscard]] static AuditReport AuditStore(
      const resource::ResourceStore& store);

  /// Audits the suspension FIFO (cell array, head, live bits and their
  /// word counts, queued bits; "sus.attrs" for a live cell whose task or
  /// config the tables lack) and (when enabled) the SusQueueIndex buckets
  /// (the forward orders in FIFO order) and groups of its drain order.
  [[nodiscard]] static AuditReport AuditSuspensionQueue(
      const resource::SuspensionQueue& queue);

  /// Checks each queued cell's config against the one resolution picks
  /// for its task from `tasks` and `configs` (C_pref, else the closest
  /// match) ("sus.attrs").
  [[nodiscard]] static AuditReport AuditSusAttrs(
      const resource::SuspensionQueue& queue,
      const resource::TaskStore& tasks,
      const resource::ConfigCatalogue& configs);

  /// Re-derives each task's state from the structures that hold it
  /// ("task.state"): every live queue slot holds a suspended task, every
  /// busy store slot a running task and its ready tick, and the table counts
  /// exactly as many suspended tasks as the queue holds and running tasks
  /// as there are busy slots (the store's running-task total).
  [[nodiscard]] static AuditReport AuditTaskStates(
      const resource::ResourceStore& store,
      const resource::SuspensionQueue& queue,
      const resource::TaskStore& tasks);

  /// Audits the pending-event set: heap order, sequence bounds and
  /// uniqueness (heap and arrival cursor), the cursor's position and tick
  /// order, size() against a recount of the done bitset, and that no live
  /// event lies before `now`.
  [[nodiscard]] static AuditReport AuditEventQueue(
      const sim::EventQueue& queue, Tick now);

  /// All five passes, concatenated in the order above.
  [[nodiscard]] static AuditReport AuditAll(
      const resource::ResourceStore& store,
      const resource::SuspensionQueue& queue,
      const resource::TaskStore& tasks, const sim::EventQueue& events,
      Tick now);

  /// Cross-checks the live metrics registry against the structures it
  /// observes ("metrics.conservation"): event-queue flow conservation,
  /// suspension-queue depth, fault-gauge vs failed nodes, and terminal task
  /// counters vs TaskStore states. Valid only while the registry covers
  /// exactly the current run (enabled before the run, Reset() at its
  /// start); returns an empty report when the registry is disabled.
  [[nodiscard]] static AuditReport AuditMetrics(
      const resource::ResourceStore& store,
      const resource::SuspensionQueue& queue, const sim::EventQueue& events,
      const resource::TaskStore& tasks);

 private:
  static void AuditEntryLists(const resource::ResourceStore& store,
                              AuditReport& report);
  static void AuditAreaAccounting(const resource::ResourceStore& store,
                                  AuditReport& report);
  static void AuditFabricLayout(const resource::ResourceStore& store,
                                AuditReport& report);
  static void AuditBlankList(const resource::ResourceStore& store,
                             AuditReport& report);
  static void AuditFaultVisibility(const resource::ResourceStore& store,
                                   AuditReport& report);
  static void AuditFleetTotals(const resource::ResourceStore& store,
                               AuditReport& report);
  static void AuditStoreIndex(const resource::ResourceStore& store,
                              AuditReport& report);
  /// `queued` is the ground truth: (seq, attrs) of every live cell, in
  /// FIFO order.
  static void AuditSusIndex(
      const resource::SuspensionQueue& queue,
      const std::vector<std::pair<std::uint64_t, resource::SusEntryAttrs>>&
          queued,
      AuditReport& report);
  /// Recomputes every summary cell of `tree` from the level below and
  /// checks the level shapes and the padding past its size; describes the
  /// first divergence, empty when there is none.
  [[nodiscard]] static std::string StaleMaxSummary(
      const resource::MaxSegTree& tree);
  /// Recomputes every Fenwick cell of `tree` from its point values;
  /// describes the first divergence, empty when there is none.
  [[nodiscard]] static std::string StaleFenwickCell(
      const resource::PrefixSumTree& tree);
};

}  // namespace dreamsim::analysis
