// MetricsRegistry unit tests (DESIGN.md §16): catalogue well-formedness,
// the log2 binning, the per-kind update rules (sum / last write / max /
// bin-wise sum), the enabled gate on the hot-path hooks, and the three
// expositions (JSONL snapshot object, Prometheus text 0.0.4, report block).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/metrics_export.hpp"

namespace dreamsim::obs {
namespace {

/// Every test owns the global registry for its duration and hands it back
/// disabled and zeroed (the process-wide default).
struct ScopedRegistry {
  ScopedRegistry() {
    MetricsRegistry::SetEnabled(true);
    MetricsRegistry::Instance().Reset();
  }
  ~ScopedRegistry() {
    MetricsRegistry::SetEnabled(false);
    MetricsRegistry::Instance().Reset();
  }
};

std::size_t Index(MetricId id) { return static_cast<std::size_t>(id); }

// --- Catalogue --------------------------------------------------------------

TEST(MetricCatalogue, NamesAreUniqueAndDocumented) {
  std::set<std::string_view> names;
  for (const MetricInfo& info : kMetricInfo) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.help.empty()) << info.name;
    EXPECT_TRUE(names.insert(info.name).second)
        << "duplicate exposition name: " << info.name;
  }
  EXPECT_EQ(names.size(), kMetricCount);
}

TEST(MetricCatalogue, CountersFollowPromNamingConvention) {
  for (const MetricInfo& info : kMetricInfo) {
    if (info.kind != MetricKind::kCounter) continue;
    EXPECT_TRUE(info.name.ends_with("_total"))
        << "counter missing _total suffix: " << info.name;
  }
}

TEST(MetricCatalogue, HistSlotsAreDenseAndExclusive) {
  std::set<std::size_t> slots;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    if (kMetricInfo[m].kind == MetricKind::kHistogram) {
      EXPECT_LT(kHistSlotOf[m], kHistMetricCount);
      EXPECT_TRUE(slots.insert(kHistSlotOf[m]).second);
    } else {
      EXPECT_EQ(kHistSlotOf[m], kHistMetricCount);
    }
  }
  EXPECT_EQ(slots.size(), kHistMetricCount);
}

// --- Binning ----------------------------------------------------------------

TEST(MetricsRegistryTest, BinOfMatchesLog2Spacing) {
  EXPECT_EQ(MetricsRegistry::BinOf(0), 0u);
  EXPECT_EQ(MetricsRegistry::BinOf(1), 1u);
  EXPECT_EQ(MetricsRegistry::BinOf(2), 2u);
  EXPECT_EQ(MetricsRegistry::BinOf(3), 2u);
  EXPECT_EQ(MetricsRegistry::BinOf(4), 3u);
  EXPECT_EQ(MetricsRegistry::BinOf(1023), 10u);
  EXPECT_EQ(MetricsRegistry::BinOf(1024), 11u);
  // The last bin saturates.
  EXPECT_EQ(MetricsRegistry::BinOf(~std::uint64_t{0}),
            MetricsRegistry::kBins - 1);
}

// --- Update rules -----------------------------------------------------------

TEST(MetricsRegistryTest, CountersAccumulateAndGaugesKeepLastWrite) {
  const ScopedRegistry scoped;
  auto& reg = MetricsRegistry::Instance();
  reg.Add(MetricId::kEvqPushed, 3);
  reg.Add(MetricId::kEvqPushed, 5);
  reg.GaugeSet(MetricId::kEvqDepth, 9);
  reg.GaugeSet(MetricId::kEvqDepth, 4);  // a level, not a sum
  const MetricsSnapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.value[Index(MetricId::kEvqPushed)], 8u);
  EXPECT_EQ(snap.value[Index(MetricId::kEvqDepth)], 4u);
}

TEST(MetricsRegistryTest, GaugeMaxMergesByMax) {
  const ScopedRegistry scoped;
  auto& reg = MetricsRegistry::Instance();
  reg.GaugeMax(MetricId::kEvqDepthPeak, 10);
  reg.GaugeMax(MetricId::kEvqDepthPeak, 4);  // lower write must not win
  const MetricsSnapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.value[Index(MetricId::kEvqDepthPeak)], 10u);
}

TEST(MetricsRegistryTest, HistogramMergesBinWise) {
  const ScopedRegistry scoped;
  auto& reg = MetricsRegistry::Instance();
  reg.Observe(MetricId::kEventGapTicks, 0);
  reg.Observe(MetricId::kEventGapTicks, 3);
  reg.Observe(MetricId::kEventGapTicks, 3);
  reg.Observe(MetricId::kEventGapTicks, 100);
  const MetricsSnapshot snap = reg.TakeSnapshot();
  const MetricsSnapshot::Hist& h =
      snap.hist[kHistSlotOf[Index(MetricId::kEventGapTicks)]];
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 106u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_EQ(h.bins[MetricsRegistry::BinOf(0)], 1u);
  EXPECT_EQ(h.bins[MetricsRegistry::BinOf(3)], 2u);
  EXPECT_EQ(h.bins[MetricsRegistry::BinOf(100)], 1u);
  // Histograms surface their sample count as the scalar value.
  EXPECT_EQ(snap.value[Index(MetricId::kEventGapTicks)], 4u);
}

TEST(MetricsRegistryTest, ResetZeroesEverySlot) {
  const ScopedRegistry scoped;
  auto& reg = MetricsRegistry::Instance();
  reg.Add(MetricId::kEvqPushed, 9);
  reg.Observe(MetricId::kEventGapTicks, 42);
  reg.Reset();
  const MetricsSnapshot snap = reg.TakeSnapshot();
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    EXPECT_EQ(snap.value[m], 0u) << kMetricInfo[m].name;
  }
}

// --- Hook gate --------------------------------------------------------------

TEST(MetricsRegistryTest, DisabledHooksAreInert) {
  MetricsRegistry::SetEnabled(false);
  MetricsRegistry::Instance().Reset();
  MetricInc(MetricId::kEvqPushed);
  MetricGaugeSet(MetricId::kEvqDepth, 5);
  MetricGaugeMax(MetricId::kEvqDepthPeak, 5);
  MetricObserve(MetricId::kEventGapTicks, 5);
  const MetricsSnapshot snap = MetricsRegistry::Instance().TakeSnapshot();
  EXPECT_EQ(snap.value[Index(MetricId::kEvqPushed)], 0u);
  EXPECT_EQ(snap.value[Index(MetricId::kEvqDepth)], 0u);
  EXPECT_EQ(snap.value[Index(MetricId::kEvqDepthPeak)], 0u);
  EXPECT_EQ(snap.value[Index(MetricId::kEventGapTicks)], 0u);
}

TEST(MetricsRegistryTest, EnabledHooksRecord) {
  const ScopedRegistry scoped;
  MetricInc(MetricId::kEvqPushed, 2);
  MetricGaugeSet(MetricId::kEvqDepth, 5);
  MetricGaugeMax(MetricId::kEvqDepthPeak, 6);
  MetricObserve(MetricId::kEventGapTicks, 7);
  const MetricsSnapshot snap = MetricsRegistry::Instance().TakeSnapshot();
  EXPECT_EQ(snap.value[Index(MetricId::kEvqPushed)], 2u);
  EXPECT_EQ(snap.value[Index(MetricId::kEvqDepth)], 5u);
  EXPECT_EQ(snap.value[Index(MetricId::kEvqDepthPeak)], 6u);
  EXPECT_EQ(snap.value[Index(MetricId::kEventGapTicks)], 1u);
}

// --- Exposition -------------------------------------------------------------

TEST(MetricsExport, FormatNamesRoundTrip) {
  EXPECT_EQ(ParseMetricsFormat("json"), MetricsFormat::kJson);
  EXPECT_EQ(ParseMetricsFormat("prom"), MetricsFormat::kProm);
  EXPECT_EQ(ParseMetricsFormat("xml"), std::nullopt);
  EXPECT_EQ(ToString(MetricsFormat::kJson), "json");
  EXPECT_EQ(ToString(MetricsFormat::kProm), "prom");
}

TEST(MetricsExport, JsonSnapshotCarriesLabelsAndValues) {
  const ScopedRegistry scoped;
  auto& reg = MetricsRegistry::Instance();
  reg.Add(MetricId::kEvqPushed, 11);
  reg.Observe(MetricId::kEventGapTicks, 3);
  const std::string json =
      RenderMetricsJson(reg.TakeSnapshot(), Tick{120}, 7, /*final=*/true);
  EXPECT_NE(json.find("\"type\":\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"tick\":120"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(json.find("\"final\":true"), std::string::npos);
  EXPECT_NE(json.find("\"dreamsim_evq_pushed_total\":11"), std::string::npos);
  EXPECT_NE(json.find("\"dreamsim_event_gap_ticks\":{\"count\":1,\"sum\":3"),
            std::string::npos);
}

TEST(MetricsExport, JsonModelPlaneExcludesHostMetrics) {
  const ScopedRegistry scoped;
  const std::string json =
      RenderMetricsJson(MetricsRegistry::Instance().TakeSnapshot(), Tick{0},
                        0, /*final=*/false);
  // Every row of the catalogue is rendered.
  for (const MetricInfo& info : kMetricInfo) {
    const std::string key = "\"dreamsim_" + std::string(info.name) + "\":";
    EXPECT_NE(json.find(key), std::string::npos) << info.name;
  }
}

TEST(MetricsExport, PromExpositionIsWellFormed) {
  const ScopedRegistry scoped;
  auto& reg = MetricsRegistry::Instance();
  reg.Add(MetricId::kEvqPushed, 11);
  reg.Observe(MetricId::kEventGapTicks, 3);
  reg.Observe(MetricId::kEventGapTicks, 3);
  const std::string prom = RenderMetricsProm(reg.TakeSnapshot());
  EXPECT_NE(prom.find("# HELP dreamsim_evq_pushed_total"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE dreamsim_evq_pushed_total counter\n"),
            std::string::npos);
  EXPECT_NE(prom.find("dreamsim_evq_pushed_total 11\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE dreamsim_event_gap_ticks histogram\n"),
            std::string::npos);
  // v=3 lands in the le="3" bucket ([2, 4)); buckets are cumulative.
  EXPECT_NE(prom.find("dreamsim_event_gap_ticks_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("dreamsim_event_gap_ticks_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("dreamsim_event_gap_ticks_sum 6\n"), std::string::npos);
  EXPECT_NE(prom.find("dreamsim_event_gap_ticks_count 2\n"),
            std::string::npos);
}

TEST(MetricsExport, ReportBlockListsOnlyNonZeroMetrics) {
  const ScopedRegistry scoped;
  auto& reg = MetricsRegistry::Instance();
  reg.Add(MetricId::kTasksCompleted, 42);
  const std::string block = RenderMetricsBlock(reg.TakeSnapshot());
  EXPECT_NE(block.find("-- live metrics (final snapshot, non-zero) --"),
            std::string::npos);
  EXPECT_NE(block.find("tasks_completed_total"), std::string::npos);
  EXPECT_EQ(block.find("tasks_discarded_total"), std::string::npos);
}

TEST(MetricsSnapshotWriter, NegativeIntervalThrows) {
  // A negative step once clamped to 1: a snapshot line per event tick.
  // Rejected before the file is created, as the timeline sampler does.
  const std::string path = ::testing::TempDir() + "negative-interval.jsonl";
  std::filesystem::remove(path);
  EXPECT_THROW(MetricsSnapshotWriter(path, MetricsFormat::kJson, -5),
               std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace dreamsim::obs
