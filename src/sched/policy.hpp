// Scheduling-policy interface (the task scheduling manager of Sec. III "can
// implement different scheduling policies").
//
// A policy is invoked once per scheduling attempt. It searches the
// ResourceStore (counted traversals), performs any (re)configuration it
// decides on, assigns the task to an entry on success, and reports what it
// did so the simulator can derive timing (configuration delay) and metrics
// (closest-match usage, reconfiguration kind).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "resource/store.hpp"
#include "resource/task.hpp"
#include "util/types.hpp"

namespace dreamsim::sched {

/// Whether nodes support multiple simultaneous configurations. The paper's
/// evaluation compares exactly these two scenarios.
enum class ReconfigMode : std::uint8_t {
  kFull,     // "without partial configuration": one node - one task
  kPartial,  // "with partial configuration": one node - many tasks
};

[[nodiscard]] std::string_view ToString(ReconfigMode mode);

/// Which phase of the Fig. 5 flow placed the task (diagnostics/ablation).
enum class PlacementKind : std::uint8_t {
  kAllocation,            // idle entry with the wanted configuration
  kConfiguration,         // blank node newly configured
  kPartialConfiguration,  // spare area on an operative node configured
  kPartialReconfiguration,// idle entries reclaimed, region reconfigured
  kFullReconfiguration,   // whole node wiped and reconfigured (full mode)
};

[[nodiscard]] std::string_view ToString(PlacementKind kind);

/// What the policy decided for one attempt.
enum class Outcome : std::uint8_t {
  kPlaced,
  kSuspend,  // park in the suspension queue (busy candidate exists)
  kDiscard,  // infeasible now and later
};

struct Decision {
  Outcome outcome = Outcome::kDiscard;
  /// Filled when outcome == kPlaced.
  resource::EntryRef entry{};
  /// The resolved configuration (C_pref or closest match). Set whenever
  /// resolution succeeded — including on kSuspend, so the caller can queue
  /// the task with it; invalid only when the task was discarded for lack of
  /// any match.
  ConfigId config;
  /// Ticks of configuration delay incurred before execution starts
  /// (0 when the task reused an already-loaded configuration).
  Tick config_time = 0;
  PlacementKind kind = PlacementKind::kAllocation;
  /// True when C_pref was absent and the closest match was used.
  bool used_closest_match = false;
};

/// Abstract policy. Implementations mutate the store on success: after a
/// kPlaced decision the chosen entry is busy with the task's id.
class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// One scheduling attempt for task `id`, described by `spec`. Must call
  /// store.meter().BeginTask() exactly never — the caller resets the
  /// per-task counter so that retries from the suspension queue accumulate
  /// into the same task's step count.
  [[nodiscard]] virtual Decision Schedule(TaskId id,
                                          const resource::TaskSpec& spec,
                                          resource::ResourceStore& store) = 0;
};

/// Resolves the configuration a task should use: the preferred one when the
/// catalogue has it, otherwise the closest match by area (counted searches).
/// Returns nullopt when no configuration can serve the task (=> discard).
struct ResolvedConfig {
  ConfigId config;
  bool used_closest_match = false;
};
[[nodiscard]] std::optional<ResolvedConfig> ResolveConfig(
    const resource::TaskSpec& spec, resource::ResourceStore& store);

}  // namespace dreamsim::sched
