// Tests for Standard Workload Format parsing and the SWF -> DReAMSim
// mapping.
#include "workload/swf.hpp"

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <vector>

#include "core/simulator.hpp"

namespace dreamsim::workload {
namespace {

constexpr const char* kSampleSwf =
    "; Version: 2.2\n"
    "; Computer: Example Cluster\n"
    ";\n"
    "1 0 5 100 4 -1 2048 4 120 -1 1 3 1 1 1 1 -1 -1\n"
    "2 30 0 600 8 -1 4096 8 900 -1 1 3 1 1 1 1 -1 -1\n"
    "3 60 2 -1 -1 -1 -1 16 300 -1 5 4 1 2 1 1 -1 -1\n"   // cancelled: req only
    "4 90 0 0 2 -1 1024 2 0 -1 0 4 1 2 1 1 -1 -1\n";      // zero runtime: skip

TEST(SwfParser, ParsesDataLinesAndSkipsComments) {
  std::istringstream in(kSampleSwf);
  const auto jobs = ParseSwf(in);
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].job_id, 1);
  EXPECT_EQ(jobs[0].submit_time, 0);
  EXPECT_EQ(jobs[0].run_time, 100);
  EXPECT_EQ(jobs[0].requested_procs, 4);
  EXPECT_EQ(jobs[0].used_memory_kb, 2048);
  EXPECT_EQ(jobs[1].submit_time, 30);
  EXPECT_EQ(jobs[2].run_time, -1);
  EXPECT_EQ(jobs[2].requested_time, 300);
}

TEST(SwfParser, RejectsShortLines) {
  std::istringstream in("1 2 3\n");
  EXPECT_THROW((void)ParseSwf(in), std::runtime_error);
}

TEST(SwfParser, EmptyAndCommentOnlyInput) {
  std::istringstream in("; just a header\n\n   \n");
  EXPECT_TRUE(ParseSwf(in).empty());
}

TEST(SwfConvert, MapsFieldsPerTheDocumentedRules) {
  std::istringstream in(kSampleSwf);
  const auto jobs = ParseSwf(in);
  SwfMapping mapping;
  mapping.ticks_per_second = 2.0;
  mapping.area_per_processor = 50;
  mapping.min_area = 100;
  mapping.max_area = 2000;
  const SwfConversion converted = ConvertSwf(jobs, mapping);

  EXPECT_EQ(converted.jobs_parsed, 4u);
  EXPECT_EQ(converted.jobs_skipped, 1u);  // job 4 (zero runtime)
  ASSERT_EQ(converted.workload.size(), 3u);

  const GeneratedTask& first = converted.workload[0];
  EXPECT_EQ(first.create_time, 0);
  EXPECT_EQ(first.required_time, 200);    // 100 s * 2 ticks/s
  EXPECT_EQ(first.needed_area, 200);      // 4 procs * 50
  EXPECT_EQ(first.data_size, 2048 * 1024);
  EXPECT_FALSE(first.preferred_config.valid());

  // Job 3 falls back to requested_time (runtime missing).
  const GeneratedTask& third = converted.workload[2];
  EXPECT_EQ(third.create_time, 120);
  EXPECT_EQ(third.required_time, 600);    // 300 s * 2
  EXPECT_EQ(third.needed_area, 800);      // 16 * 50
}

TEST(SwfConvert, ClampsAreaToConfigurableRange) {
  SwfJob big;
  big.submit_time = 0;
  big.run_time = 10;
  big.requested_procs = 1000;
  SwfJob tiny = big;
  tiny.requested_procs = 1;
  SwfMapping mapping;
  mapping.area_per_processor = 100;
  mapping.min_area = 200;
  mapping.max_area = 2000;
  const auto converted = ConvertSwf({big, tiny}, mapping);
  ASSERT_EQ(converted.workload.size(), 2u);
  EXPECT_EQ(converted.workload[0].needed_area, 2000);
  EXPECT_EQ(converted.workload[1].needed_area, 200);
}

// Records whose fields overflow the simulator's units. Job 1 asks for
// 2^62 processors, so procs * area_per_processor would overflow (UBSan
// aborts there): it must clamp to max_area instead. Jobs 2-4 carry a used
// memory (KB), run time and submit time that do not fit a Bytes or a Tick
// once scaled: they are skipped and counted.
constexpr const char* kOverflowingSwf =
    "1 0 0 10 -1 -1 -1 4611686018427387904 -1 -1 1 1 1 1 1 1 -1 -1\n"
    "2 0 0 10 -1 -1 4611686018427387904 1 -1 -1 1 1 1 1 1 1 -1 -1\n"
    "3 0 0 4611686018427387904 -1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n"
    "4 4611686018427387904 0 10 -1 -1 -1 1 -1 -1 1 1 1 1 1 1 -1 -1\n";

TEST(SwfConvert, OverflowingFieldsClampOrSkip) {
  std::istringstream in(kOverflowingSwf);
  SwfMapping mapping;
  mapping.ticks_per_second = 1000.0;
  const SwfConversion converted = ConvertSwf(ParseSwf(in), mapping);
  EXPECT_EQ(converted.jobs_parsed, 4u);
  EXPECT_EQ(converted.jobs_skipped, 3u);
  ASSERT_EQ(converted.workload.size(), 1u);
  EXPECT_EQ(converted.workload[0].needed_area, mapping.max_area);
  EXPECT_EQ(converted.workload[0].required_time, 10'000);
  EXPECT_EQ(converted.workload[0].data_size, 0);
}

TEST(SwfConvert, SortsByArrivalTime) {
  SwfJob late;
  late.submit_time = 100;
  late.run_time = 10;
  late.requested_procs = 1;
  SwfJob early = late;
  early.submit_time = 5;
  const auto converted = ConvertSwf({late, early}, SwfMapping{});
  ASSERT_EQ(converted.workload.size(), 2u);
  EXPECT_LE(converted.workload[0].create_time,
            converted.workload[1].create_time);
}

// Used memory becomes the workload's data-size column, which follows the
// stable arrival sort; a trace without memory figures has no column.
TEST(SwfConvert, UsedMemoryLandsInTheDataSizeColumn) {
  SwfJob late;
  late.submit_time = 100;
  late.run_time = 10;
  late.requested_procs = 1;
  late.used_memory_kb = 4;
  SwfJob early = late;
  early.submit_time = 5;
  early.used_memory_kb = -1;  // unknown
  SwfJob early_twin = early;
  early_twin.used_memory_kb = 2;
  const SwfConversion converted =
      ConvertSwf({late, early, early_twin}, SwfMapping{});
  ASSERT_EQ(converted.workload.size(), 3u);
  const std::vector<Bytes> want = {0, 2 * 1024, 4 * 1024};
  const std::span<const Bytes> column = converted.workload.data_sizes();
  EXPECT_EQ(std::vector<Bytes>(column.begin(), column.end()), want);
  EXPECT_TRUE(converted.workload.priorities().empty());

  late.used_memory_kb = -1;
  const SwfConversion no_memory = ConvertSwf({late}, SwfMapping{});
  ASSERT_EQ(no_memory.workload.size(), 1u);
  EXPECT_TRUE(no_memory.workload.data_sizes().empty());
}

TEST(SwfConvert, RejectsBadMapping) {
  SwfMapping bad;
  bad.ticks_per_second = 0.0;
  EXPECT_THROW((void)ConvertSwf({}, bad), std::invalid_argument);
  bad = SwfMapping{};
  bad.min_area = 5000;
  bad.max_area = 2000;
  EXPECT_THROW((void)ConvertSwf({}, bad), std::invalid_argument);
}

TEST(SwfRoundTrip, WriteParseConvert) {
  std::vector<SwfJob> jobs;
  for (int i = 0; i < 20; ++i) {
    SwfJob job;
    job.job_id = i + 1;
    job.submit_time = i * 25;
    job.run_time = 100 + i * 10;
    job.allocated_procs = 1 + i % 8;
    job.requested_procs = 1 + i % 8;
    job.used_memory_kb = 1024;
    jobs.push_back(job);
  }
  std::stringstream buffer;
  WriteSwf(buffer, jobs, "round-trip test");
  const auto parsed = ParseSwf(buffer);
  ASSERT_EQ(parsed.size(), jobs.size());
  EXPECT_EQ(parsed[7].submit_time, jobs[7].submit_time);
  EXPECT_EQ(parsed[7].requested_procs, jobs[7].requested_procs);

  const auto converted = ConvertSwf(parsed, SwfMapping{});
  EXPECT_EQ(converted.workload.size(), jobs.size());
  EXPECT_TRUE(ValidateWorkload(converted.workload).empty());
}

TEST(SwfRoundTrip, ReplaysThroughTheSimulator) {
  // A fabricated SWF trace drives a complete simulation end to end.
  std::vector<SwfJob> jobs;
  for (int i = 0; i < 300; ++i) {
    SwfJob job;
    job.job_id = i + 1;
    job.submit_time = i * 8;
    job.run_time = 200 + (i * 37) % 2000;
    job.requested_procs = 2 + i % 12;
    jobs.push_back(job);
  }
  SwfMapping mapping;
  mapping.area_per_processor = 150;
  const auto converted = ConvertSwf(jobs, mapping);

  core::SimulationConfig config;
  config.nodes.count = 30;
  config.configs.count = 10;
  config.seed = 3;
  core::Simulator sim(std::move(config));
  const core::MetricsReport report = sim.RunWithWorkload(converted.workload);
  EXPECT_EQ(report.total_tasks, 300u);
  EXPECT_EQ(report.completed_tasks + report.discarded_tasks, 300u);
  EXPECT_GT(report.completed_tasks, 250u);  // most SWF jobs should run
}

TEST(SwfFile, MissingFileThrows) {
  EXPECT_THROW((void)ReadSwfFile("/nonexistent/trace.swf", SwfMapping{}),
               std::runtime_error);
}

}  // namespace
}  // namespace dreamsim::workload
