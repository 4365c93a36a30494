// Tests for obs::TimeSeriesSampler: left-hold resampling semantics, grid
// anchoring, CSV shape, and convergence of recomputed averages to the
// MonitoringModule's UtilizationReport (ISSUE satellite d).
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "util/csv.hpp"

namespace dreamsim::obs {
namespace {

core::StateSample At(Tick tick, std::size_t busy) {
  core::StateSample sample;
  sample.tick = tick;
  sample.busy_nodes = busy;
  return sample;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> TickBusyPairs(
    const std::string& csv) {
  std::istringstream in(csv);
  const CsvTable table = CsvRead(in);
  const std::size_t tick_col = table.ColumnIndex("tick");
  const std::size_t busy_col = table.ColumnIndex("busy_nodes");
  EXPECT_NE(tick_col, CsvTable::npos);
  EXPECT_NE(busy_col, CsvTable::npos);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& row : table.rows) {
    out.emplace_back(std::stoull(row[tick_col]), std::stoull(row[busy_col]));
  }
  return out;
}

TEST(TimeSeriesSampler, LeftHoldResamplesOntoGrid) {
  std::ostringstream out;
  TimeSeriesSampler sampler(out, 10);
  sampler.Observe(At(10, 1));  // anchors the grid at tick 10
  sampler.Observe(At(25, 3));  // grid points 10, 20 now final (value 1)
  sampler.Finish(40);          // 30, 40 hold value 3
  const auto rows = TickBusyPairs(out.str());
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {10, 1}, {20, 1}, {30, 3}, {40, 3}};
  EXPECT_EQ(rows, expected);
  EXPECT_EQ(sampler.rows_written(), 4u);
  EXPECT_EQ(sampler.observations(), 2u);
}

TEST(TimeSeriesSampler, SameTickObservationLastWins) {
  std::ostringstream out;
  TimeSeriesSampler sampler(out, 10);
  sampler.Observe(At(10, 1));
  sampler.Observe(At(10, 5));  // same tick: supersedes, no row emitted yet
  sampler.Observe(At(15, 2));
  sampler.Finish(20);
  const auto rows = TickBusyPairs(out.str());
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {10, 5}, {20, 2}};
  EXPECT_EQ(rows, expected);
}

TEST(TimeSeriesSampler, IntervalZeroIsCoercedToOne) {
  std::ostringstream out;
  TimeSeriesSampler sampler(out, 0);
  sampler.Observe(At(0, 2));
  sampler.Observe(At(3, 4));
  sampler.Finish(3);
  const auto rows = TickBusyPairs(out.str());
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {
      {0, 2}, {1, 2}, {2, 2}, {3, 4}};
  EXPECT_EQ(rows, expected);
}

TEST(TimeSeriesSampler, NegativeIntervalThrows) {
  std::ostringstream out;
  EXPECT_THROW(TimeSeriesSampler(out, -1), std::invalid_argument);
  EXPECT_TRUE(out.str().empty());
  // The file variant rejects the interval before creating the file.
  const std::string path = ::testing::TempDir() + "negative-interval.csv";
  std::filesystem::remove(path);
  EXPECT_THROW(TimeSeriesSampler(path, -5), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TimeSeriesSampler, FinishIsIdempotentAndDtorSafe) {
  std::ostringstream out;
  {
    TimeSeriesSampler sampler(out, 5);
    sampler.Observe(At(0, 1));
    sampler.Finish(10);
    const std::size_t rows = sampler.rows_written();
    sampler.Finish(50);  // no-op
    EXPECT_EQ(sampler.rows_written(), rows);
  }  // destructor must not double-finish
  EXPECT_EQ(TickBusyPairs(out.str()).size(), 3u);  // ticks 0, 5, 10
}

TEST(TimeSeriesSampler, ThrowsOnUnwritablePath) {
  EXPECT_THROW(TimeSeriesSampler("/nonexistent-dir/timeline.csv", 100),
               std::runtime_error);
}

// --- Against a real simulation ---

core::SimulationConfig SimConfig(std::uint64_t seed) {
  core::SimulationConfig config;
  config.nodes.count = 10;
  config.configs.count = 6;
  config.tasks.total_tasks = 120;
  config.seed = seed;
  return config;
}

struct SampledRun {
  std::string csv;
  rms::UtilizationReport utilization;
  Tick end = 0;
};

SampledRun RunSampled(std::uint64_t seed, Tick interval) {
  SampledRun result;
  std::ostringstream out;
  core::Simulator sim(SimConfig(seed));
  TimeSeriesSampler sampler(out, interval);
  sim.SetStateObserver(
      [&sampler](const core::StateSample& s) { sampler.Observe(s); });
  (void)sim.Run();
  result.utilization = sim.utilization();
  result.end = result.utilization.observed_until;
  sampler.Finish(result.end);
  result.csv = out.str();
  return result;
}

TEST(TimeSeriesSampler, GridTicksAreEvenlySpaced) {
  const SampledRun run = RunSampled(9, 250);
  const auto rows = TickBusyPairs(run.csv);
  ASSERT_GT(rows.size(), 2u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first - rows[i - 1].first, 250u) << "row " << i;
  }
  EXPECT_LE(rows.back().first, static_cast<std::uint64_t>(run.end));
}

/// Time-weighted average of a column recomputed from the emitted grid rows:
/// each row's value holds for one interval; the last row (at the end tick)
/// has zero width.
double RecomputedAverage(const std::string& csv, std::string_view column) {
  std::istringstream in(csv);
  const CsvTable table = CsvRead(in);
  const std::size_t tick_col = table.ColumnIndex("tick");
  const std::size_t val_col = table.ColumnIndex(std::string(column));
  EXPECT_NE(val_col, CsvTable::npos);
  if (table.rows.size() < 2) return 0.0;
  const double t0 = std::stod(table.rows.front()[tick_col]);
  const double t1 = std::stod(table.rows.back()[tick_col]);
  double weighted = 0.0;
  for (std::size_t i = 0; i + 1 < table.rows.size(); ++i) {
    const double width = std::stod(table.rows[i + 1][tick_col]) -
                         std::stod(table.rows[i][tick_col]);
    weighted += std::stod(table.rows[i][val_col]) * width;
  }
  return weighted / (t1 - t0);
}

double RelErr(double got, double want) {
  const double scale = std::abs(want) > 1e-12 ? std::abs(want) : 1.0;
  return std::abs(got - want) / scale;
}

TEST(TimeSeriesSampler, RecomputedAveragesConvergeToUtilizationReport) {
  const SampledRun fine = RunSampled(42, 1);
  const SampledRun coarse = RunSampled(42, 1000);
  // Identical runs, different sampling grids.
  EXPECT_EQ(fine.utilization.avg_busy_nodes,
            coarse.utilization.avg_busy_nodes);

  const struct {
    const char* column;
    double want;
  } signals[] = {
      {"busy_nodes", fine.utilization.avg_busy_nodes},
      {"running_tasks", fine.utilization.avg_running_tasks},
      {"wasted_area", fine.utilization.avg_wasted_area},
  };
  for (const auto& signal : signals) {
    const double err_fine =
        RelErr(RecomputedAverage(fine.csv, signal.column), signal.want);
    const double err_coarse =
        RelErr(RecomputedAverage(coarse.csv, signal.column), signal.want);
    // Interval 1 reproduces the integral exactly (modulo double rounding);
    // a coarse grid may only do worse.
    EXPECT_LT(err_fine, 1e-9) << signal.column;
    EXPECT_LE(err_fine, err_coarse + 1e-9) << signal.column;
  }
}

}  // namespace
}  // namespace dreamsim::obs
