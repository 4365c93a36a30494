#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/fmt.hpp"

namespace dreamsim::workload {

Tick DrawArrivalGap(const TaskGenParams& p, Rng& rng) {
  switch (p.arrivals) {
    case ArrivalProcess::kUniform:
      return rng.uniform_int(p.min_interval, p.max_interval);
    case ArrivalProcess::kPoisson: {
      const double mean =
          0.5 * static_cast<double>(p.min_interval + p.max_interval);
      const double gap = rng.exponential(1.0 / std::max(1.0, mean));
      return std::max<Tick>(1, static_cast<Tick>(std::llround(gap)));
    }
    case ArrivalProcess::kConstant:
      return p.max_interval;
  }
  return 1;
}

Workload GenerateWorkload(const TaskGenParams& params,
                          const resource::ConfigCatalogue& configs, Rng& rng) {
  if (params.total_tasks < 0) {
    throw std::invalid_argument("total_tasks must be non-negative");
  }
  if (params.min_interval < 0 || params.min_interval > params.max_interval) {
    throw std::invalid_argument("invalid arrival interval range");
  }
  if (params.min_required_time <= 0 ||
      params.min_required_time > params.max_required_time) {
    throw std::invalid_argument("invalid required-time range");
  }
  if (!(0.0 <= params.closest_match_fraction &&
        params.closest_match_fraction <= 1.0)) {  // NaN fails too
    throw std::invalid_argument("closest_match_fraction must be in [0,1]");
  }
  if (configs.empty() && params.closest_match_fraction < 1.0) {
    throw std::invalid_argument(
        "known-C_pref tasks require a non-empty configuration catalogue");
  }

  Workload workload;
  workload.reserve(static_cast<std::size_t>(params.total_tasks));
  Tick now = 0;
  for (int i = 0; i < params.total_tasks; ++i) {
    now += DrawArrivalGap(params, rng);
    GeneratedTask t;
    t.create_time = now;
    t.required_time =
        rng.uniform_int(params.min_required_time, params.max_required_time);
    if (params.max_data_size > 0) {
      t.data_size = rng.uniform_int(params.min_data_size, params.max_data_size);
    }
    const bool unknown_pref =
        rng.uniform() < params.closest_match_fraction;
    if (unknown_pref) {
      t.preferred_config = ConfigId::invalid();
      t.needed_area =
          rng.uniform_int(params.unknown_min_area, params.unknown_max_area);
    } else {
      const auto index = static_cast<std::uint32_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(configs.size()) - 1));
      const resource::Configuration& c = configs.Get(ConfigId{index});
      t.preferred_config = c.id;
      t.needed_area = c.required_area;
    }
    workload.push_back(t);
  }
  return workload;
}

std::vector<std::string> ValidateWorkload(const Workload& workload) {
  std::vector<std::string> violations;
  Tick last = 0;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const GeneratedTask& t = workload[i];
    if (t.create_time < last) {
      violations.push_back(
          Format("task {}: create_time decreases ({} < {})", i,
                 t.create_time, last));
    }
    last = t.create_time;
    if (t.required_time <= 0) {
      violations.push_back(Format("task {}: non-positive required_time", i));
    }
    if (t.needed_area <= 0) {
      violations.push_back(Format("task {}: non-positive needed_area", i));
    }
    if (t.data_size < 0) {
      violations.push_back(Format("task {}: negative data_size", i));
    }
  }
  return violations;
}

}  // namespace dreamsim::workload
