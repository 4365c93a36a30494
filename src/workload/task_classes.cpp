#include "workload/task_classes.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/fmt.hpp"

namespace dreamsim::workload {
namespace {

// Per-class generation result before the merge (head indices are local).
struct ClassStream {
  Workload arrivals;
  std::vector<TaskChain> chains;
};

std::uint64_t ClassSeed(std::uint64_t base_seed, std::size_t index,
                        const TaskClassParams& p) {
  if (p.seed != 0) {
    return DeriveSeed(DeriveSeed(base_seed, 0x7C1A55E5u), p.seed);
  }
  // Class 0 consumes the run's workload stream itself so a lone plain class
  // reproduces the single-stream generator bit for bit.
  if (index == 0) return base_seed;
  return DeriveSeed(base_seed, 0x7C1A55E5u + std::uint64_t{index});
}

/// One Eq. 3 tuple, mirroring the draw order of GenerateWorkload()
/// (required time, data size, closest-match split) plus the class
/// extensions (priority).
GeneratedTask DrawTask(const TaskClassParams& p,
                       const resource::ConfigCatalogue& configs, Rng& rng) {
  GeneratedTask t;
  t.required_time =
      rng.uniform_int(p.base.min_required_time, p.base.max_required_time);
  if (p.base.max_data_size > 0) {
    t.data_size = rng.uniform_int(p.base.min_data_size, p.base.max_data_size);
  }
  const bool unknown_pref = rng.uniform() < p.base.closest_match_fraction;
  if (unknown_pref) {
    t.preferred_config = ConfigId::invalid();
    t.needed_area =
        rng.uniform_int(p.base.unknown_min_area, p.base.unknown_max_area);
  } else {
    const auto index = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(configs.size()) - 1));
    const resource::Configuration& c = configs.Get(ConfigId{index});
    t.preferred_config = c.id;
    t.needed_area = c.required_area;
  }
  if (p.min_priority < p.max_priority) {
    t.priority = rng.uniform_real(p.min_priority, p.max_priority);
  } else {
    t.priority = p.min_priority;
  }
  return t;
}

ClassStream GenerateClass(const TaskClassParams& p,
                          const resource::ConfigCatalogue& configs, Rng& rng) {
  ClassStream stream;
  if (IsPlainSteady(p)) {
    stream.arrivals = GenerateWorkload(p.base, configs, rng);
    return stream;
  }

  const bool count_budget = p.base.total_tasks > 0;
  const bool time_budget = p.end_time > 0;
  const auto count_cap = count_budget
                             ? static_cast<std::size_t>(p.base.total_tasks)
                             : static_cast<std::size_t>(-1);
  if (count_budget) {
    stream.arrivals.reserve(static_cast<std::size_t>(p.base.total_tasks));
  }

  Tick now = p.start_time;
  // Emits one arrival at `now`; false once a budget is exhausted.
  const auto emit = [&](Tick at) {
    if (stream.arrivals.size() >= count_cap) return false;
    if (time_budget && at > p.end_time) return false;
    GeneratedTask t = DrawTask(p, configs, rng);
    t.create_time = at;
    const std::size_t index = stream.arrivals.size();
    stream.arrivals.push_back(t);
    if (p.graph_fraction > 0.0 && rng.uniform() < p.graph_fraction) {
      const auto length = static_cast<int>(
          rng.uniform_int(p.min_chain, p.max_chain));
      TaskChain chain;
      chain.head_index = index;
      chain.links.reserve(static_cast<std::size_t>(length - 1));
      for (int l = 1; l < length; ++l) {
        // Successor create_time is assigned at release (predecessor
        // completion); the draw here fixes its Eq. 3 tuple.
        chain.links.push_back(DrawTask(p, configs, rng));
      }
      stream.chains.push_back(std::move(chain));
    }
    return stream.arrivals.size() < count_cap;
  };

  if (p.shape == ArrivalShape::kBursty) {
    for (;;) {
      now += rng.uniform_int(p.min_burst_gap, p.max_burst_gap);
      const auto burst = static_cast<int>(
          rng.uniform_int(p.min_burst, p.max_burst));
      bool more = true;
      for (int b = 0; b < burst && more; ++b) {
        if (b > 0) now += DrawArrivalGap(p.base, rng);
        if (time_budget && now > p.end_time) return stream;
        more = emit(now);
      }
      if (!more) return stream;
    }
  }

  // kSteady with a window/offset, and kWindowed: one gap-driven stream.
  for (;;) {
    now += DrawArrivalGap(p.base, rng);
    if (!emit(now)) return stream;
  }
}

}  // namespace

std::string_view ToString(ArrivalShape shape) {
  switch (shape) {
    case ArrivalShape::kSteady: return "steady";
    case ArrivalShape::kBursty: return "bursty";
    case ArrivalShape::kWindowed: return "windowed";
  }
  return "?";
}

std::size_t MultiClassWorkload::TotalTasks() const {
  std::size_t total = tasks.size();
  for (const TaskChain& chain : chains) total += chain.links.size();
  return total;
}

bool IsPlainSteady(const TaskClassParams& p) {
  return p.shape == ArrivalShape::kSteady && p.start_time == 0 &&
         p.end_time == 0 && p.graph_fraction == 0.0 &&
         p.min_priority == 0.0 && p.max_priority == 0.0;
}

std::vector<std::string> ValidateTaskClass(const TaskClassParams& p) {
  std::vector<std::string> violations;
  const auto bad = [&](std::string message) {
    violations.push_back(Format("task class '{}': {}", p.name, message));
  };
  const bool count_budget = p.base.total_tasks > 0;
  const bool time_budget = p.end_time > 0;
  if (!count_budget && !time_budget) {
    bad("needs a budget (a positive count or end time)");
  }
  if (p.base.total_tasks < 0) bad("negative count");
  if (p.start_time < 0) bad("negative start time");
  if (time_budget && p.end_time <= p.start_time) {
    bad(Format("end time {} must exceed start time {}", p.end_time,
               p.start_time));
  }
  if (p.shape == ArrivalShape::kWindowed && !time_budget) {
    bad("windowed arrivals need an end time");
  }
  if (p.base.min_interval < 0 || p.base.min_interval > p.base.max_interval) {
    bad("invalid arrival interval range");
  }
  if (p.base.min_required_time <= 0 ||
      p.base.min_required_time > p.base.max_required_time) {
    bad("invalid required-time range");
  }
  if (!(0.0 <= p.base.closest_match_fraction &&
        p.base.closest_match_fraction <= 1.0)) {  // NaN fails too
    bad("closest-match fraction must be in [0,1]");
  }
  if (p.shape == ArrivalShape::kBursty) {
    if (p.min_burst < 1 || p.min_burst > p.max_burst) {
      bad("invalid burst size range (need 1 <= min <= max)");
    }
    if (p.min_burst_gap < 0 || p.min_burst_gap > p.max_burst_gap) {
      bad("invalid burst gap range");
    }
    if (!time_budget && p.min_burst_gap == 0 && p.max_burst_gap == 0 &&
        p.base.max_interval == 0 && !count_budget) {
      bad("bursty class can never terminate");
    }
  }
  if (p.graph_fraction < 0.0 || p.graph_fraction > 1.0) {
    bad("graph fraction must be in [0,1]");
  }
  if (p.graph_fraction > 0.0 &&
      (p.min_chain < 2 || p.min_chain > p.max_chain)) {
    bad("invalid chain length range (need 2 <= min <= max)");
  }
  // `min > max` alone lets a NaN bound through; the task store rejects a
  // non-finite priority.
  if (!std::isfinite(p.min_priority) || !std::isfinite(p.max_priority)) {
    bad("priority range must be finite");
  } else if (p.min_priority > p.max_priority) {
    bad("invalid priority range");
  }
  // A time-budgeted stream whose every gap can be zero would never pass
  // end_time: require some forward progress.
  if (time_budget && !count_budget && p.base.max_interval <= 0 &&
      p.base.arrivals != ArrivalProcess::kPoisson) {
    bad("time-budgeted class needs a positive arrival interval");
  }
  return violations;
}

MultiClassWorkload GenerateMultiClassWorkload(
    std::span<const TaskClassParams> classes,
    const resource::ConfigCatalogue& configs, std::uint64_t base_seed) {
  if (classes.empty()) {
    throw std::invalid_argument("need at least one task class");
  }
  for (const TaskClassParams& p : classes) {
    const auto violations = ValidateTaskClass(p);
    if (!violations.empty()) {
      throw std::invalid_argument(violations.front());
    }
  }

  std::vector<ClassStream> streams;
  streams.reserve(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    Rng rng(ClassSeed(base_seed, c, classes[c]));
    streams.push_back(GenerateClass(classes[c], configs, rng));
  }

  MultiClassWorkload merged;
  std::size_t total = 0;
  for (const ClassStream& s : streams) total += s.arrivals.size();
  merged.tasks.reserve(total);
  merged.class_of.reserve(total);

  // K-way merge on (create_time, class index, per-class order). Streams are
  // individually non-decreasing, so one cursor per class suffices.
  std::vector<std::size_t> cursor(streams.size(), 0);
  std::vector<std::vector<std::size_t>> global_index(streams.size());
  for (std::size_t c = 0; c < streams.size(); ++c) {
    global_index[c].resize(streams[c].arrivals.size());
  }
  for (std::size_t emitted = 0; emitted < total; ++emitted) {
    std::size_t best = streams.size();
    for (std::size_t c = 0; c < streams.size(); ++c) {
      if (cursor[c] >= streams[c].arrivals.size()) continue;
      if (best == streams.size() ||
          streams[c].arrivals.spec(cursor[c]).create_time <
              streams[best].arrivals.spec(cursor[best]).create_time) {
        best = c;
      }
    }
    global_index[best][cursor[best]] = merged.tasks.size();
    merged.tasks.push_back(streams[best].arrivals[cursor[best]]);
    merged.class_of.push_back(static_cast<std::uint32_t>(best));
    ++cursor[best];
  }

  for (std::size_t c = 0; c < streams.size(); ++c) {
    for (TaskChain& chain : streams[c].chains) {
      chain.head_index = global_index[c][chain.head_index];
      merged.chains.push_back(std::move(chain));
    }
  }
  std::sort(merged.chains.begin(), merged.chains.end(),
            [](const TaskChain& a, const TaskChain& b) {
              return a.head_index < b.head_index;
            });
  return merged;
}

}  // namespace dreamsim::workload
