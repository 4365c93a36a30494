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
#include "resource/task.hpp"
#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace dreamsim::analysis {

class StructureCorruptor {
 public:
  /// The trees of a StoreIndex view.
  enum class IndexTree : std::uint8_t {
    kPotential,
    kBusyTotal,
    kAvailable,
    kConfigCount,
  };

  /// Fig. 3 orphan: appends `entry` to `config`'s idle list, a cell no
  /// slot records — only the cross-structure diff against the node slots
  /// can catch it. Expected slug: fig3.idle-list.
  static void InjectOrphanIdleEntry(resource::ResourceStore& store,
                                    ConfigId config,
                                    resource::EntryRef entry);

  /// The busy-list twin of InjectOrphanIdleEntry. Expected slug:
  /// fig3.busy-list.
  static void InjectOrphanBusyEntry(resource::ResourceStore& store,
                                    ConfigId config,
                                    resource::EntryRef entry);

  /// Pops the last cell of `config`'s idle list (requires one), leaving
  /// its slot live and idle: the live slot is missing from its list.
  /// Expected slug: fig3.idle-list.
  static void DropIdleCell(resource::ResourceStore& store, ConfigId config);

  /// Swaps the list positions recorded in the slots of the first two cells
  /// of `config`'s idle list (requires >= 2 entries). Expected slug:
  /// fig3.positions.
  static void CorruptPositionMap(resource::ResourceStore& store,
                                 ConfigId config);

  /// Bumps the live-slot counter of `node` (config_count()) by one, as a
  /// slot mutation that forgot the counter would. Expected slug:
  /// fig3.slot.
  static void SkewSlotCounter(resource::ResourceStore& store, NodeId node);

  /// Bumps `node`'s AvailableArea by one, breaking Eq. 4 against its live
  /// slots (requires the index to be disabled; its snapshot would diverge
  /// too). Expected slug: eq4.area.
  static void SkewAvailableArea(resource::ResourceStore& store, NodeId node);

  /// Shrinks busy `node`'s TotalArea and AvailableArea together until
  /// AvailableArea is -1: Eq. 4's identity still holds, but the live
  /// configurations over-commit the fabric. Fleet totals and the index (if
  /// enabled) are moved in step, so only the over-commit check can see it.
  /// Expected slug: eq4.area.
  static void OvercommitNode(resource::ResourceStore& store, NodeId node);

  /// Bumps the store's busy-area tally for `node` by one. Expected slug:
  /// eq4.busy-area.
  static void SkewBusyArea(resource::ResourceStore& store, NodeId node);

  /// Drops blank `node` from the blank list through the store's own
  /// removal, so the position map stays its exact inverse. Expected slug:
  /// blank.list.
  static void DropBlankEntry(resource::ResourceStore& store, NodeId node);

  /// Flips `node`'s blank-list position: a listed node claims none, an
  /// unlisted one claims slot 0. Expected slug: blank.pos.
  static void SkewBlankPos(resource::ResourceStore& store, NodeId node);

  /// Adds one to the store's failed-node count. Expected slug: fault.count.
  static void SkewFailedCount(resource::ResourceStore& store);

  /// Adds a free hole over the first live extent of contiguous `node`
  /// (keeping the hole list sorted), as a release that freed the wrong
  /// region would. Expected slug: fabric.layout.
  static void OverlapFabricHole(resource::ResourceStore& store, NodeId node);

  /// Bumps the StoreIndex global view's config-count Fenwick leaf for
  /// `node` by one (requires the index to be enabled). Expected slug:
  /// idx.count.
  static void SkewIndexConfigCount(resource::ResourceStore& store,
                                   NodeId node);

  /// Drops the StoreIndex's last cached snapshot, so the index tracks one
  /// node fewer than the store (requires the index). Expected slug:
  /// idx.size.
  static void TruncateIndexCache(resource::ResourceStore& store);

  /// Bumps the cached available area in `node`'s StoreIndex snapshot
  /// (requires the index). Expected slug: idx.snapshot.
  static void SkewIndexSnapshot(resource::ResourceStore& store, NodeId node);

  /// Bumps the StoreIndex global view's potential leaf for `node`
  /// (requires the index). Expected slug: idx.tree.
  static void SkewIndexPotential(resource::ResourceStore& store, NodeId node);

  /// Adds a stray (AvailableArea + 1, node) key to the StoreIndex global
  /// view's partially-blank set (requires the index). Expected slug:
  /// idx.set.
  static void InjectStrayIndexKey(resource::ResourceStore& store,
                                  NodeId node);

  /// Erases configured `node`'s (AvailableArea, node) key from the
  /// StoreIndex global view's partially-blank set (requires the index).
  /// Expected slug: idx.set.
  static void DropIndexKey(resource::ResourceStore& store, NodeId node);

  /// Sets the bitmap bit of an empty bucket in a StoreIndex global-view
  /// key set, in a word that already marks a non-empty bucket, so every
  /// bucket's keys and the summary word stay right (requires the index and
  /// a non-empty key set). Expected slug: idx.bitmap.
  static void SkewIndexBucketBitmap(resource::ResourceStore& store);

  /// Raises one summary cell of the StoreIndex global view's `tree`, its
  /// leaves untouched: the first cell above the leaves of a max tree, the
  /// Fenwick cell over positions 0 and 1 of the config-count tree
  /// (requires the index, and more than one group of nodes for a max
  /// tree). Expected slug: idx.tree, or idx.count for kConfigCount.
  static void SkewTreeSummary(resource::ResourceStore& store, IndexTree tree);

  /// Raises the first summary cell of the first family group's seq tree,
  /// its leaves untouched (requires a FIFO-order drain index whose group
  /// spans more than one group of seqs). Expected slug: susidx.group.
  static void SkewTreeSummary(resource::SuspensionQueue& queue);

  /// Deletes the StoreIndex view of `node`'s family (requires the index
  /// over a fleet of two or more family values). Expected slug: idx.view.
  static void DropFamilyView(resource::ResourceStore& store, NodeId node);

  /// Gives the StoreIndex a copy of the global view as the view of
  /// `node`'s family, as a one-family fleet never holds (requires the
  /// index). Expected slug: idx.view.
  static void AddFamilyView(resource::ResourceStore& store, NodeId node);

  /// Raises the failed flag on `node` directly, leaving every list it
  /// appears in untouched — the "failed node still visible" class.
  /// Expected slugs: fault.visibility (plus fault.count for the stale
  /// store counter).
  static void ExposeFailedNode(resource::ResourceStore& store, NodeId node);

  /// Bumps the store's running wasted-area total by one, as a mutation
  /// path that forgot its delta would. Expected slug: fleet.totals.
  static void SkewFleetTotals(resource::ResourceStore& store);

  /// Moves a queued task's seq from its home config's forward order to
  /// `wrong_config`'s in the SusQueueIndex, at its seq-order spot
  /// (requires a FIFO-order drain index). Expected slug: susidx.bucket.
  static void MisplaceSusBucketEntry(resource::SuspensionQueue& queue,
                                     TaskId task,
                                     ConfigId wrong_config);

  /// Points `config`'s forward-order head at `seq` in the SusQueueIndex,
  /// as a removal that forgot to step the head (a removed seq) or stepped
  /// it too far (a later live seq) would leave it (requires a FIFO-order
  /// drain index). Expected slug: susidx.bucket.
  static void RepointSusOrderHead(resource::SuspensionQueue& queue,
                                  ConfigId config, std::uint32_t seq);

  /// Lowers queued `task`'s leaf in its family group's seq tree by one (as
  /// if it needed one more unit of area), leaving its attributes alone
  /// (requires a FIFO-order drain index). Expected slug: susidx.group.
  static void SkewSusGroupLeaf(resource::SuspensionQueue& queue, TaskId task);

  /// Points queued `task`'s cell at `config`, then rebuilds the drain
  /// index (when one is on) from the cells, so the queue and its index
  /// still agree and only the check against the task's spec can see it.
  /// Expected slug: sus.attrs.
  static void SkewSusAttrs(resource::SuspensionQueue& queue, TaskId task,
                           ConfigId config);

  /// Lowers the suspension queue's capacity to `capacity`, below its size,
  /// as an Add that skipped the bound would leave it. Expected slug:
  /// sus.capacity.
  static void ShrinkSusCapacity(resource::SuspensionQueue& queue,
                                std::size_t capacity);

  /// Writes queued `task` over queued `victim`'s cell and clears
  /// `victim`'s queued bit, so the FIFO holds `task` twice and `victim`
  /// nowhere, with head, live bits, config and index untouched.
  /// Expected slug: sus.unique.
  static void DuplicateSusTask(resource::SuspensionQueue& queue, TaskId task,
                               TaskId victim);

  /// Flips `task`'s queued bit: a queued task loses it, as an Add that
  /// forgot the bit would leave it, and any other task gains one, as an
  /// unlink that forgot it would. Expected slug: sus.unique.
  static void FlipSusQueuedBit(resource::SuspensionQueue& queue, TaskId task);

  /// Sets the suspension queue's live bit of seq 0 (requires at least
  /// one cell ever used) and counts it in its word's count, as an unlink
  /// that forgot the bit would. Expected slug: sus.fifo.
  static void SkewSusLive(resource::SuspensionQueue& queue);

  /// Bumps the suspension queue's first live word count (the Fenwick cell
  /// over word 0) by one, its bits untouched (requires at least one cell
  /// ever used). Expected slug: sus.fifo.
  static void SkewSusLiveCount(resource::SuspensionQueue& queue);

  /// Moves the suspension queue's head one seq past the oldest live entry
  /// (requires a non-empty queue), as an unlink that advanced it too far
  /// would: walks and front pops then skip that entry. Expected slug:
  /// sus.fifo.
  static void SkipSusHead(resource::SuspensionQueue& queue);

  /// Overwrites `task`'s state with `state`, as a lifecycle step that
  /// forgot (or misordered) its state write would leave it. Expected slug:
  /// task.state when `state` disagrees with the structure holding the task.
  static void SetTaskState(resource::TaskStore& tasks, TaskId task,
                           resource::TaskState state);

  /// Overwrites live `entry`'s ready tick with `tick`: kNoTick on a busy
  /// entry, as a placement that forgot to record when its execution
  /// begins would leave it (expected slug: task.state), or a tick on an
  /// idle one, as a release that forgot to clear it would (expected slug:
  /// fig3.slot).
  static void SetReadyTick(resource::ResourceStore& store,
                           resource::EntryRef entry, Tick tick);

  /// Adds one to the event queue's live count without scheduling anything,
  /// as a push or cancel that forgot the counter would. Expected slug:
  /// evq.live.
  static void SkewEventLiveCount(sim::EventQueue& queue);

  /// Swaps the event heap's first two entries (requires >= 2), so the
  /// root fires after its child. Expected slug: evq.order.
  static void SwapEventHeapHead(sim::EventQueue& queue);

  /// Moves the heap root back to `tick`, which must not be later than its
  /// tick (so heap order holds): a live event behind any `now` past
  /// `tick`. Expected slug: evq.past-tick.
  static void BackdateEventHead(sim::EventQueue& queue, Tick tick);

  /// Gives the last heap entry the next sequence the queue would issue
  /// (requires a non-empty heap). The entry is a leaf and its key only
  /// grows, so heap order holds. Expected slug: evq.sequence.
  static void ReissueEventSequence(sim::EventQueue& queue);

  /// Points the arrival cursor at `ticks` (same number of arrivals), as a
  /// caller that reorders its workload while the kernel still reads it
  /// would. Expected slug: evq.cursor when `ticks` is out of order.
  static void RepointArrivalCursor(sim::EventQueue& queue,
                                   sim::TickView ticks);

 private:
  /// Raises cell 0 of `tree`'s first summary level (the max over
  /// positions [0, kFanout)); throws naming `who` when there is none.
  static void RaiseFirstSummaryCell(resource::MaxSegTree& tree,
                                    const char* who);
  static void AppendOrphan(resource::EntryList& list,
                           resource::EntryRef entry);
  /// The store's index; throws naming `who` when it is disabled.
  static resource::StoreIndex& IndexOf(resource::ResourceStore& store,
                                       const char* who);
};

}  // namespace dreamsim::analysis
