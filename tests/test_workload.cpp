// Tests for synthetic workload generation (input subsystem, Table II) and
// trace round-trips.
#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ptype/catalogue.hpp"
#include "workload/trace.hpp"

namespace dreamsim::workload {
namespace {

resource::ConfigCatalogue MakeConfigs(int count, Rng& rng) {
  resource::ConfigGenParams params;
  params.count = count;
  return resource::ConfigCatalogue::Generate(
      params, ptype::Catalogue::Default(), rng);
}

TEST(Generator, HonoursTableIIRanges) {
  Rng rng(1);
  const auto configs = MakeConfigs(50, rng);
  TaskGenParams params;
  params.total_tasks = 5000;
  const Workload wl = GenerateWorkload(params, configs, rng);
  ASSERT_EQ(wl.size(), 5000u);
  EXPECT_TRUE(ValidateWorkload(wl).empty());

  Tick prev = 0;
  int unknown = 0;
  for (const GeneratedTask& t : wl) {
    EXPECT_GE(t.create_time - prev, 1);
    EXPECT_LE(t.create_time - prev, 50);
    prev = t.create_time;
    EXPECT_GE(t.required_time, 100);
    EXPECT_LE(t.required_time, 100000);
    if (!t.preferred_config.valid()) {
      ++unknown;
      EXPECT_GE(t.needed_area, 200);
      EXPECT_LE(t.needed_area, 2000);
    } else {
      EXPECT_EQ(t.needed_area,
                configs.Get(t.preferred_config).required_area);
    }
  }
  // 15% +- sampling noise.
  EXPECT_NEAR(unknown, 750, 120);
}

// Table II draws no data sizes or priorities, so a generated workload is
// its 32-byte specs alone: neither side column is allocated.
TEST(Generator, TableIIWorkloadAllocatesNoColumns) {
  Rng rng(4);
  const auto configs = MakeConfigs(50, rng);
  TaskGenParams params;
  params.total_tasks = 3000;
  const Workload wl = GenerateWorkload(params, configs, rng);
  ASSERT_EQ(wl.size(), 3000u);
  EXPECT_TRUE(wl.data_sizes().empty());
  EXPECT_TRUE(wl.priorities().empty());
  EXPECT_EQ(wl.heap_bytes(), 3000 * sizeof(resource::TaskSpec));
  EXPECT_EQ(wl[17].data_size, 0);
  EXPECT_EQ(wl[17].priority, 0.0);

  params.min_data_size = 1;
  params.max_data_size = 9;
  Rng again(4);
  const auto same_configs = MakeConfigs(50, again);
  const Workload with_data = GenerateWorkload(params, same_configs, again);
  EXPECT_EQ(with_data.data_sizes().size(), 3000u);
  EXPECT_TRUE(with_data.priorities().empty());
}

TEST(Workload, FirstNonZeroValueCreatesAZeroFilledColumn) {
  Workload wl;
  GeneratedTask t;
  t.needed_area = 100;
  t.required_time = 10;
  wl.push_back(t);
  wl.push_back(t);
  EXPECT_TRUE(wl.data_sizes().empty());
  EXPECT_TRUE(wl.priorities().empty());
  t.priority = 2.5;
  wl.push_back(t);
  t.priority = 0.0;
  t.data_size = 64;
  wl.push_back(t);
  t.data_size = 0;
  wl.push_back(t);
  const std::vector<double> want_priority = {0, 0, 2.5, 0, 0};
  const std::vector<Bytes> want_size = {0, 0, 0, 64, 0};
  EXPECT_EQ(std::vector<double>(wl.priorities().begin(),
                                wl.priorities().end()),
            want_priority);
  EXPECT_EQ(std::vector<Bytes>(wl.data_sizes().begin(), wl.data_sizes().end()),
            want_size);
  for (std::size_t i = 0; i < wl.size(); ++i) {
    EXPECT_EQ(wl[i].priority, want_priority[i]) << "task " << i;
    EXPECT_EQ(wl[i].data_size, want_size[i]) << "task " << i;
    EXPECT_EQ(wl[i].needed_area, 100) << "task " << i;
  }
}

TEST(Workload, ColumnWiseConstructionChecksSizes) {
  const std::vector<resource::TaskSpec> specs(3);
  EXPECT_NO_THROW(Workload(specs, {}, {}));
  EXPECT_NO_THROW(Workload(specs, {1, 2, 3}, {}));
  EXPECT_THROW(Workload(specs, {1, 2}, {}), std::invalid_argument);
  EXPECT_THROW(Workload(specs, {}, {1.0, 2.0, 3.0, 4.0}),
               std::invalid_argument);
}

TEST(Generator, ZeroClosestMatchFraction) {
  Rng rng(2);
  const auto configs = MakeConfigs(10, rng);
  TaskGenParams params;
  params.total_tasks = 500;
  params.closest_match_fraction = 0.0;
  const Workload wl = GenerateWorkload(params, configs, rng);
  for (const GeneratedTask& t : wl) {
    EXPECT_TRUE(t.preferred_config.valid());
  }
}

TEST(Generator, AllClosestMatchWorksWithEmptyCatalogue) {
  Rng rng(3);
  resource::ConfigCatalogue empty;
  TaskGenParams params;
  params.total_tasks = 100;
  params.closest_match_fraction = 1.0;
  const Workload wl = GenerateWorkload(params, empty, rng);
  for (const GeneratedTask& t : wl) {
    EXPECT_FALSE(t.preferred_config.valid());
  }
}

TEST(Generator, KnownPrefRequiresCatalogue) {
  Rng rng(4);
  resource::ConfigCatalogue empty;
  TaskGenParams params;
  params.closest_match_fraction = 0.5;
  EXPECT_THROW((void)GenerateWorkload(params, empty, rng),
               std::invalid_argument);
}

TEST(Generator, PoissonArrivalsArepositive) {
  Rng rng(5);
  const auto configs = MakeConfigs(5, rng);
  TaskGenParams params;
  params.total_tasks = 2000;
  params.arrivals = ArrivalProcess::kPoisson;
  const Workload wl = GenerateWorkload(params, configs, rng);
  Tick prev = 0;
  double mean_gap = 0.0;
  for (const GeneratedTask& t : wl) {
    EXPECT_GE(t.create_time - prev, 1);
    mean_gap += static_cast<double>(t.create_time - prev);
    prev = t.create_time;
  }
  mean_gap /= static_cast<double>(wl.size());
  EXPECT_NEAR(mean_gap, 25.5, 3.0);  // mean of [1, 50]
}

TEST(Generator, ConstantArrivals) {
  Rng rng(6);
  const auto configs = MakeConfigs(5, rng);
  TaskGenParams params;
  params.total_tasks = 10;
  params.arrivals = ArrivalProcess::kConstant;
  params.max_interval = 7;
  const Workload wl = GenerateWorkload(params, configs, rng);
  for (std::size_t i = 0; i < wl.size(); ++i) {
    EXPECT_EQ(wl[i].create_time, static_cast<Tick>(7 * (i + 1)));
  }
}

TEST(Generator, DataSizeRange) {
  Rng rng(7);
  const auto configs = MakeConfigs(5, rng);
  TaskGenParams params;
  params.total_tasks = 200;
  params.min_data_size = 100;
  params.max_data_size = 1000;
  const Workload wl = GenerateWorkload(params, configs, rng);
  for (const GeneratedTask& t : wl) {
    EXPECT_GE(t.data_size, 100);
    EXPECT_LE(t.data_size, 1000);
  }
}

TEST(Generator, RejectsBadParams) {
  Rng rng(8);
  const auto configs = MakeConfigs(5, rng);
  TaskGenParams params;
  params.total_tasks = -1;
  EXPECT_THROW((void)GenerateWorkload(params, configs, rng),
               std::invalid_argument);
  params = TaskGenParams{};
  params.min_interval = 10;
  params.max_interval = 5;
  EXPECT_THROW((void)GenerateWorkload(params, configs, rng),
               std::invalid_argument);
  for (const double fraction :
       {1.5, std::numeric_limits<double>::quiet_NaN()}) {
    params = TaskGenParams{};
    params.closest_match_fraction = fraction;
    EXPECT_THROW((void)GenerateWorkload(params, configs, rng),
                 std::invalid_argument);
  }
  params = TaskGenParams{};
  params.min_required_time = 0;
  EXPECT_THROW((void)GenerateWorkload(params, configs, rng),
               std::invalid_argument);
}

TEST(Generator, DeterministicPerSeed) {
  Rng rng_cfg(9);
  const auto configs = MakeConfigs(20, rng_cfg);
  TaskGenParams params;
  params.total_tasks = 300;
  Rng a(77);
  Rng b(77);
  const Workload wa = GenerateWorkload(params, configs, a);
  const Workload wb = GenerateWorkload(params, configs, b);
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].create_time, wb[i].create_time);
    EXPECT_EQ(wa[i].preferred_config, wb[i].preferred_config);
    EXPECT_EQ(wa[i].required_time, wb[i].required_time);
  }
}

TEST(ValidateWorkload, CatchesViolations) {
  Workload wl;
  GeneratedTask t;
  t.create_time = 10;
  t.needed_area = 100;
  t.required_time = 100;
  wl.push_back(t);
  t.create_time = 5;  // decreasing
  wl.push_back(t);
  t.create_time = 20;
  t.required_time = 0;  // non-positive
  wl.push_back(t);
  const auto violations = ValidateWorkload(wl);
  EXPECT_EQ(violations.size(), 2u);
}

TEST(ValidateWorkload, CatchesBadSideColumns) {
  std::vector<resource::TaskSpec> specs(2);
  for (resource::TaskSpec& spec : specs) {
    spec.needed_area = 100;
    spec.required_time = 10;
  }
  const Workload wl(specs, {0, -5},
                    {std::numeric_limits<double>::quiet_NaN(), 0.0});
  const auto violations = ValidateWorkload(wl);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0], "task 0: non-finite priority");
  EXPECT_EQ(violations[1], "task 1: negative data_size");
}

TEST(Trace, RoundTripPreservesEverything) {
  Rng rng(10);
  const auto configs = MakeConfigs(20, rng);
  TaskGenParams params;
  params.total_tasks = 250;
  params.min_data_size = 1;
  params.max_data_size = 500;
  const Workload original = GenerateWorkload(params, configs, rng);

  std::stringstream buffer;
  WriteTrace(buffer, original);
  const Workload replayed = ReadTrace(buffer);

  ASSERT_EQ(replayed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(replayed[i].create_time, original[i].create_time);
    EXPECT_EQ(replayed[i].preferred_config, original[i].preferred_config);
    EXPECT_EQ(replayed[i].needed_area, original[i].needed_area);
    EXPECT_EQ(replayed[i].required_time, original[i].required_time);
    EXPECT_EQ(replayed[i].data_size, original[i].data_size);
  }
}

// The data sizes travel through the trace's data_size column into the
// workload's data-size column; an all-zero trace column reads back as no
// column at all.
TEST(Trace, RoundTripKeepsTheDataSizeColumn) {
  Rng rng(12);
  const auto configs = MakeConfigs(20, rng);
  TaskGenParams params;
  params.total_tasks = 200;
  params.min_data_size = 0;
  params.max_data_size = 3;
  const Workload original = GenerateWorkload(params, configs, rng);
  ASSERT_EQ(original.data_sizes().size(), original.size());

  std::stringstream buffer;
  WriteTrace(buffer, original);
  const Workload replayed = ReadTrace(buffer);
  EXPECT_EQ(std::vector<Bytes>(replayed.data_sizes().begin(),
                               replayed.data_sizes().end()),
            std::vector<Bytes>(original.data_sizes().begin(),
                               original.data_sizes().end()));

  params.max_data_size = 0;
  const Workload plain = GenerateWorkload(params, configs, rng);
  std::stringstream plain_buffer;
  WriteTrace(plain_buffer, plain);
  const Workload plain_replayed = ReadTrace(plain_buffer);
  ASSERT_EQ(plain_replayed.size(), plain.size());
  EXPECT_TRUE(plain_replayed.data_sizes().empty());
}

TEST(Trace, UnknownPrefEncodedAsMinusOne) {
  Workload wl;
  GeneratedTask t;
  t.create_time = 1;
  t.preferred_config = ConfigId::invalid();
  t.needed_area = 300;
  t.required_time = 100;
  wl.push_back(t);
  std::stringstream buffer;
  WriteTrace(buffer, wl);
  EXPECT_NE(buffer.str().find("-1"), std::string::npos);
  const Workload replayed = ReadTrace(buffer);
  EXPECT_FALSE(replayed[0].preferred_config.valid());
}

TEST(Trace, RejectsMissingColumns) {
  std::istringstream in("create_time,needed_area\n1,2\n");
  EXPECT_THROW((void)ReadTrace(in), std::runtime_error);
}

TEST(Trace, RejectsMalformedNumbers) {
  std::istringstream in(
      "create_time,preferred_config,needed_area,required_time,data_size\n"
      "1,0,abc,100,0\n");
  EXPECT_THROW((void)ReadTrace(in), std::runtime_error);
}

// preferred_config must be -1 or a representable configuration id: a
// larger value must not wrap onto config 0 or onto "no preference", and
// no other negative value means "no preference".
TEST(Trace, RejectsOutOfRangePreferredConfig) {
  for (const char* pref : {"4294967296", "4294967295", "-2"}) {
    std::istringstream in(
        std::string(
            "create_time,preferred_config,needed_area,required_time,"
            "data_size\n1,") +
        pref + ",300,100,0\n");
    try {
      (void)ReadTrace(in);
      ADD_FAILURE() << pref << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("trace line 2: column 'preferred_config' is not "
                            "a configuration id or -1: '") +
                    pref + "'");
    }
  }
  // The largest representable id still reads back as itself.
  std::istringstream in(
      "create_time,preferred_config,needed_area,required_time,data_size\n"
      "1,4294967294,300,100,0\n");
  EXPECT_EQ(ReadTrace(in)[0].preferred_config, ConfigId{4294967294u});
}

TEST(Trace, RejectsInvalidOrdering) {
  std::istringstream in(
      "create_time,preferred_config,needed_area,required_time,data_size\n"
      "10,0,300,100,0\n"
      "5,0,300,100,0\n");
  EXPECT_THROW((void)ReadTrace(in), std::runtime_error);
}

TEST(Trace, FileRoundTrip) {
  Rng rng(11);
  const auto configs = MakeConfigs(5, rng);
  TaskGenParams params;
  params.total_tasks = 50;
  const Workload original = GenerateWorkload(params, configs, rng);
  const std::string path = ::testing::TempDir() + "/dreamsim_trace_test.csv";
  WriteTraceFile(path, original);
  const Workload replayed = ReadTraceFile(path);
  EXPECT_EQ(replayed.size(), original.size());
}

TEST(Trace, MissingFileThrows) {
  EXPECT_THROW((void)ReadTraceFile("/nonexistent/path/trace.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace dreamsim::workload
