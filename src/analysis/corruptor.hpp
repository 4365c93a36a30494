// StructureCorruptor: deliberate invariant breakage for auditor tests.
//
// Each method injects exactly one class of structural corruption behind the
// structures' backs (via friendship), so tests/test_structure_auditor.cpp
// can prove the StructureAuditor is not vacuously green: every seeded
// corruption must surface as the matching violation slug, and nothing else.
//
// TEST SUPPORT ONLY. Nothing in the production tree may call this class;
// dreamsim_lint's mutation rules treat it like the structures' own code.
#pragma once

#include "resource/entry_list.hpp"
#include "resource/store.hpp"
#include "resource/suspension_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace dreamsim::analysis {

class StructureCorruptor {
 public:
  /// Fig. 3 orphan: appends `entry` to `config`'s idle list, keeping the
  /// position map internally consistent — only the cross-structure diff
  /// against the node slots can catch it. Expected slug: fig3.idle-list.
  static void InjectOrphanIdleEntry(resource::ResourceStore& store,
                                    ConfigId config,
                                    resource::EntryRef entry);

  /// Swaps the position-map entries of the first two cells of `config`'s
  /// idle list (requires >= 2 entries). Expected slug: fig3.positions.
  static void CorruptPositionMap(resource::ResourceStore& store,
                                 ConfigId config);

  /// Bumps the StoreIndex global view's config-count Fenwick leaf for
  /// `node` by one (requires the index to be enabled). Expected slug:
  /// idx.count.
  static void SkewIndexConfigCount(resource::ResourceStore& store,
                                   NodeId node);

  /// Raises the failed flag on `node` directly, leaving every list it
  /// appears in untouched — the "failed node still visible" class.
  /// Expected slugs: fault.visibility (plus fault.count for the stale
  /// store counter).
  static void ExposeFailedNode(resource::ResourceStore& store, NodeId node);

  /// Bumps the store's running wasted-area total by one, as a mutation
  /// path that forgot its delta would. Expected slug: fleet.totals.
  static void SkewFleetTotals(resource::ResourceStore& store);

  /// Moves a queued task's seq from its home config list to
  /// `wrong_config`'s list in the SusQueueIndex, at its seq-order spot
  /// (requires a FIFO-order drain index). Expected slug: susidx.bucket.
  static void MisplaceSusBucketEntry(resource::SuspensionQueue& queue,
                                     TaskId task,
                                     ConfigId wrong_config);

  /// Bumps the stored needed_area of queued `task` by one, and its group
  /// leaf with it when a FIFO-order drain index is on (a priority-order
  /// index is rejected), so the queue and its index still agree and only
  /// the check against the task itself can see it. Expected slug:
  /// sus.attrs.
  static void SkewSusAttrs(resource::SuspensionQueue& queue, TaskId task);

  /// Bumps the suspension queue's live-seq Fenwick leaf for seq 0 by one
  /// (requires at least one slot ever used), as an unlink that forgot the
  /// tree would. Expected slug: sus.fifo.
  static void SkewSusLive(resource::SuspensionQueue& queue);

  /// Adds one to the event queue's live count without scheduling anything,
  /// as a push or cancel that forgot the counter would. Expected slug:
  /// evq.live.
  static void SkewEventLiveCount(sim::EventQueue& queue);

  /// Points the arrival cursor at `ticks` (same number of arrivals), as a
  /// caller that reorders its workload while the kernel still reads it
  /// would. Expected slug: evq.cursor when `ticks` is out of order.
  static void RepointArrivalCursor(sim::EventQueue& queue,
                                   sim::TickView ticks);
};

}  // namespace dreamsim::analysis
