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
//
// A Workload keeps the tuples column-wise: one 32-byte resource::TaskSpec
// per task, which the task store reads in place, and two side columns,
// data sizes and priorities. A column is allocated only once some task
// has a non-zero value in it, and a missing column reads 0, so a Table II
// workload is its specs alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
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

[[nodiscard]] std::string_view ToString(ArrivalProcess process);

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

/// One generated task, the full producer-side tuple: its TaskSpec plus
/// Eq. 3's `data` size and the scheduling priority, which a Workload keeps
/// in its side columns.
struct GeneratedTask : resource::TaskSpec {
  /// Size of the task's input `data` (shipped over the network model).
  Bytes data_size = 0;
  /// Scheduling priority; only consulted when the simulation runs with
  /// priority_scheduling (the task-graph critical-path extension). Higher
  /// wins; ties fall back to FIFO. The task-graph session sets this to the
  /// vertex's upward rank.
  double priority = 0.0;
};

/// A fully materialized workload: tasks ordered by non-decreasing
/// create_time, held as the spec array plus the two optional columns.
class Workload {
 public:
  /// Reads the tasks in order, each composed from its spec and columns.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = GeneratedTask;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    [[nodiscard]] GeneratedTask operator*() const { return (*owner_)[at_]; }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++at_;
      return before;
    }
    [[nodiscard]] bool operator==(const const_iterator& other) const {
      return at_ == other.at_;
    }

   private:
    friend class Workload;
    const_iterator(const Workload* owner, std::size_t at)
        : owner_(owner), at_(at) {}

    const Workload* owner_ = nullptr;
    std::size_t at_ = 0;
  };

  Workload() = default;
  Workload(std::initializer_list<GeneratedTask> tasks);
  explicit Workload(std::span<const GeneratedTask> tasks);
  /// Adopts the columns as they are: `data_size` and `priority` are each
  /// empty (every value 0) or hold one value per spec; throws
  /// std::invalid_argument otherwise.
  Workload(std::vector<resource::TaskSpec> specs, std::vector<Bytes> data_size,
           std::vector<double> priority);

  /// Appends `task`: its spec to the array, its data size and priority to
  /// their columns. The first non-zero value creates its column, filled
  /// with zeros for the earlier tasks.
  void push_back(const GeneratedTask& task);
  /// Reserves room for `tasks` specs (and in each existing column).
  void reserve(std::size_t tasks);

  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] bool empty() const { return specs_.empty(); }
  /// Task `i`, composed from its spec and its columns.
  [[nodiscard]] GeneratedTask operator[](std::size_t i) const;
  [[nodiscard]] GeneratedTask front() const { return (*this)[0]; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size()}; }

  /// The spec of task `i`, in place.
  [[nodiscard]] resource::TaskSpec& spec(std::size_t i) { return specs_[i]; }
  [[nodiscard]] const resource::TaskSpec& spec(std::size_t i) const {
    return specs_[i];
  }
  [[nodiscard]] std::span<const resource::TaskSpec> specs() const {
    return specs_;
  }
  /// The data-size column: empty when every task's size is 0.
  [[nodiscard]] std::span<const Bytes> data_sizes() const {
    return data_size_;
  }
  /// The priority column: empty when every task's priority is 0.
  [[nodiscard]] std::span<const double> priorities() const {
    return priority_;
  }
  /// Heap bytes the spec array and the columns hold (their capacities).
  [[nodiscard]] std::size_t heap_bytes() const;

 private:
  std::vector<resource::TaskSpec> specs_;
  std::vector<Bytes> data_size_;  // empty, or one value per spec
  std::vector<double> priority_;  // empty, or one value per spec
};

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
