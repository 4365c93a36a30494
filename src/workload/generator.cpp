#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/fmt.hpp"

namespace dreamsim::workload {
namespace {

/// Appends `value` to the side column `column` of a workload that now
/// holds `tasks` specs (this one included), creating the column, zeros
/// first, on its first non-zero value.
template <typename T>
void PushColumn(std::vector<T>& column, T value, std::size_t tasks,
                std::size_t capacity) {
  if (column.empty()) {
    if (value == T{}) return;
    column.reserve(capacity);
    column.resize(tasks - 1, T{});
  }
  column.push_back(value);
}

}  // namespace

std::string_view ToString(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kUniform: return "uniform";
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kConstant: return "constant";
  }
  return "?";
}

Workload::Workload(std::initializer_list<GeneratedTask> tasks)
    : Workload(std::span<const GeneratedTask>(tasks.begin(), tasks.size())) {}

Workload::Workload(std::span<const GeneratedTask> tasks) {
  reserve(tasks.size());
  for (const GeneratedTask& t : tasks) push_back(t);
}

Workload::Workload(std::vector<resource::TaskSpec> specs,
                   std::vector<Bytes> data_size, std::vector<double> priority)
    : specs_(std::move(specs)),
      data_size_(std::move(data_size)),
      priority_(std::move(priority)) {
  if ((!data_size_.empty() && data_size_.size() != specs_.size()) ||
      (!priority_.empty() && priority_.size() != specs_.size())) {
    throw std::invalid_argument(
        "workload side column size differs from the spec count");
  }
}

void Workload::push_back(const GeneratedTask& task) {
  specs_.push_back(task);
  PushColumn(data_size_, task.data_size, specs_.size(), specs_.capacity());
  PushColumn(priority_, task.priority, specs_.size(), specs_.capacity());
}

void Workload::reserve(std::size_t tasks) {
  specs_.reserve(tasks);
  if (!data_size_.empty()) data_size_.reserve(tasks);
  if (!priority_.empty()) priority_.reserve(tasks);
}

GeneratedTask Workload::operator[](std::size_t i) const {
  GeneratedTask t;
  static_cast<resource::TaskSpec&>(t) = specs_[i];
  if (!data_size_.empty()) t.data_size = data_size_[i];
  if (!priority_.empty()) t.priority = priority_[i];
  return t;
}

std::size_t Workload::heap_bytes() const {
  return specs_.capacity() * sizeof(resource::TaskSpec) +
         data_size_.capacity() * sizeof(Bytes) +
         priority_.capacity() * sizeof(double);
}

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
    const resource::TaskSpec& t = workload.spec(i);
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
    if (!workload.data_sizes().empty() && workload.data_sizes()[i] < 0) {
      violations.push_back(Format("task {}: negative data_size", i));
    }
    if (!workload.priorities().empty() &&
        !std::isfinite(workload.priorities()[i])) {
      violations.push_back(Format("task {}: non-finite priority", i));
    }
  }
  return violations;
}

}  // namespace dreamsim::workload
