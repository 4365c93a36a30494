// Synthetic task generation (the input subsystem of Sec. III).
//
// "It generates synthetic tasks which may require a particular processor
// configuration (C_pref) and required estimated time for the execution of
// tasks. ... A user can specify the task arrival rate and arrival
// distribution functions."
//
// Table II drives the defaults: arrival interval uniform in [1, 50] ticks,
// t_required uniform in [100, 100000], and 15% of tasks carry a C_pref that
// is *not* in the catalogue (the closest-match experiments); those tasks are
// generated with an area drawn from the configuration area range instead.
#pragma once

#include <cstdint>
#include <vector>

#include "resource/config.hpp"
#include "resource/task.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dreamsim::workload {

/// How inter-arrival gaps are drawn.
enum class ArrivalProcess : std::uint8_t {
  /// Uniform integer gap in [min_interval, max_interval] (Table II).
  kUniform,
  /// Poisson process: exponential gaps with mean
  /// (min_interval + max_interval) / 2, rounded up to >= 1 tick.
  kPoisson,
  /// Fixed gap of max_interval ticks (deterministic stress workloads).
  kConstant,
};

/// Generation parameters (Table II defaults).
struct TaskGenParams {
  int total_tasks = 1000;
  ArrivalProcess arrivals = ArrivalProcess::kUniform;
  /// "Next task generation interval [1...50]".
  Tick min_interval = 1;
  Tick max_interval = 50;
  /// "Task t_required range [100...100,000]".
  Tick min_required_time = 100;
  Tick max_required_time = 100000;
  /// "C_ClosestMatch percentage 15%": fraction of tasks whose preferred
  /// configuration is absent from the catalogue.
  double closest_match_fraction = 0.15;
  /// Area range used for the absent-C_pref tasks (matches the catalogue's
  /// configuration area range by default).
  Area unknown_min_area = 200;
  Area unknown_max_area = 2000;
  /// Input data volume per task, uniform in [min, max] bytes.
  Bytes min_data_size = 0;
  Bytes max_data_size = 0;
};

/// One generated task before it enters the simulator: creation tick plus
/// the Eq. 3 tuple (resource::TaskSpec, which the task store reads in
/// place).
using GeneratedTask = resource::TaskSpec;

/// A fully materialized workload: tasks ordered by non-decreasing
/// create_time.
using Workload = std::vector<GeneratedTask>;

/// Generates a synthetic workload against a configuration catalogue.
/// Known-C_pref tasks sample a configuration uniformly and inherit its
/// ReqArea; unknown-C_pref tasks draw an area from the unknown range.
[[nodiscard]] Workload GenerateWorkload(const TaskGenParams& params,
                                        const resource::ConfigCatalogue& configs,
                                        Rng& rng);

/// One inter-arrival gap under `params.arrivals` (the draw GenerateWorkload
/// makes between consecutive tasks; exposed for the multi-class generator).
[[nodiscard]] Tick DrawArrivalGap(const TaskGenParams& params, Rng& rng);

/// Sanity checks a workload (ordering, positive times/areas). Returns a
/// description per violation; empty means valid.
[[nodiscard]] std::vector<std::string> ValidateWorkload(const Workload& workload);

}  // namespace dreamsim::workload
