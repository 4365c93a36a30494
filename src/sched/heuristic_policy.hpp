// Baseline scheduling policies.
//
// The paper positions DReAMSim as a framework "to test different scheduling
// policies"; these baselines make that claim concrete and feed the policy
// ablation bench. All operate with partial reconfiguration semantics and
// share one candidate scan; they differ only in how they pick among feasible
// placements:
//
//   kFirstFit    — first feasible node in node-list order
//   kBestFit     — minimum leftover area (the paper's own tie-break)
//   kWorstFit    — maximum leftover area (spreads load over big nodes)
//   kRandomFit   — uniformly random feasible node
//   kRoundRobin  — rotating cursor over the node list
//   kLeastLoaded — fewest running tasks (load-balancing extension; ties
//                  broken by leftover area)
#pragma once

#include <cstdint>

#include "sched/policy.hpp"
#include "util/rng.hpp"

namespace dreamsim::sched {

enum class Heuristic : std::uint8_t {
  kFirstFit,
  kBestFit,
  kWorstFit,
  kRandomFit,
  kRoundRobin,
  kLeastLoaded,
};

[[nodiscard]] std::string_view ToString(Heuristic heuristic);

/// Candidate-scan policy parameterized by a selection heuristic.
///
/// Feasibility classes are tried in cost order, mirroring Fig. 5: reuse an
/// idle entry (no configuration), configure spare area (blank or operative
/// node), then reclaim idle entries (Algorithm 1). The heuristic picks
/// within the first non-empty class.
class HeuristicPolicy final : public Policy {
 public:
  /// `seed` feeds the kRandomFit stream (ignored by other heuristics).
  explicit HeuristicPolicy(Heuristic heuristic, std::uint64_t seed = 7);

  [[nodiscard]] std::string_view name() const override {
    return ToString(heuristic_);
  }

  [[nodiscard]] Decision Schedule(TaskId id, const resource::TaskSpec& spec,
                                  resource::ResourceStore& store) override;

 private:
  /// Ranks node `n` of a fleet of `node_count` under the active heuristic;
  /// smaller wins.
  [[nodiscard]] std::int64_t Rank(const resource::Node& n,
                                  std::size_t scan_position,
                                  std::size_t node_count);

  Heuristic heuristic_;
  Rng rng_;
  std::size_t rr_cursor_ = 0;
};

}  // namespace dreamsim::sched
