// The paper's case-study scheduling algorithm (Sec. V, Fig. 5).
//
// Four phases, tried in order for the resolved configuration (C_pref or
// C_ClosestMatch):
//
//   1. Allocation               — best idle entry already configured with it
//                                 (minimum AvailableArea node).
//   2. Configuration            — best blank node, freshly configured.
//   3. Partial configuration    — (partial mode) tightest operative node
//                                 with enough spare area.
//   4. Partial re-configuration — (partial mode) Algorithm 1: reclaim idle
//                                 entries until the region fits.
//      Full re-configuration    — (full mode) wipe the tightest idle
//                                 configured node and reconfigure it.
//
// If all phases fail: suspend when some busy node could eventually host the
// configuration ("query busy list for potential candidate"), else discard.
#pragma once

#include "sched/policy.hpp"

namespace dreamsim::sched {

class DreamSimPolicy final : public Policy {
 public:
  explicit DreamSimPolicy(ReconfigMode mode) : mode_(mode) {}

  [[nodiscard]] std::string_view name() const override {
    return mode_ == ReconfigMode::kPartial ? "dreamsim-partial"
                                           : "dreamsim-full";
  }

  [[nodiscard]] ReconfigMode mode() const { return mode_; }

  [[nodiscard]] Decision Schedule(TaskId id, const resource::TaskSpec& spec,
                                  resource::ResourceStore& store) override;

 private:
  [[nodiscard]] Decision SchedulePartial(TaskId id,
                                         resource::ResourceStore& store,
                                         const ResolvedConfig& resolved);
  [[nodiscard]] Decision ScheduleFull(TaskId id,
                                      resource::ResourceStore& store,
                                      const ResolvedConfig& resolved);

  ReconfigMode mode_;
};

}  // namespace dreamsim::sched
