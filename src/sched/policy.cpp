#include "sched/policy.hpp"

namespace dreamsim::sched {

std::string_view ToString(ReconfigMode mode) {
  switch (mode) {
    case ReconfigMode::kFull: return "full";
    case ReconfigMode::kPartial: return "partial";
  }
  return "?";
}

std::string_view ToString(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kAllocation: return "allocation";
    case PlacementKind::kConfiguration: return "configuration";
    case PlacementKind::kPartialConfiguration: return "partial-configuration";
    case PlacementKind::kPartialReconfiguration:
      return "partial-reconfiguration";
    case PlacementKind::kFullReconfiguration: return "full-reconfiguration";
  }
  return "?";
}

std::optional<ResolvedConfig> ResolveConfig(const resource::TaskSpec& spec,
                                            resource::ResourceStore& store) {
  resource::WorkloadMeter& meter = store.meter();
  Steps steps = 0;
  const auto& catalogue = store.configs();
  // Scan mode walks the catalogue as the paper does; the indexed store's
  // answers and step counts are the same without the walk.
  const bool indexed = store.indexed();

  // "Initially, the scheduler decides whether the exact-match configuration
  // (or C_pref) of the task is available in the configurations list."
  if (spec.preferred_config.valid()) {
    const auto exact =
        indexed ? catalogue.FindPreferred(spec.preferred_config, steps)
                : catalogue.ScanPreferred(spec.preferred_config, steps);
    meter.Add(resource::StepKind::kSchedulingSearch, steps);
    if (exact) return ResolvedConfig{*exact, false};
  } else {
    // Unknown C_pref still costs a full (failed) catalogue scan.
    meter.Add(resource::StepKind::kSchedulingSearch, catalogue.size());
  }

  // "If the C_pref of the task is not available, then the algorithm
  // searches for a closest-match configuration."
  steps = 0;
  const auto closest =
      indexed ? catalogue.FindClosestMatch(spec.needed_area, steps)
              : catalogue.ScanClosestMatch(spec.needed_area, steps);
  meter.Add(resource::StepKind::kSchedulingSearch, steps);
  if (closest) return ResolvedConfig{*closest, true};
  return std::nullopt;  // "if CClosestMatch is also not available, discard"
}

}  // namespace dreamsim::sched
