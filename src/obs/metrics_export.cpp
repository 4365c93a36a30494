#include "obs/metrics_export.hpp"

#include <charconv>
#include <stdexcept>

#include "util/fmt.hpp"

namespace dreamsim::obs {
namespace {

/// Every exposed name carries the subsystem prefix. This is the one place
/// product code spells it; everything else goes through the catalogue.
constexpr std::string_view kPrefix = "dreamsim_";  // lint: allow(metric-catalogue)

void AppendU64(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, static_cast<std::size_t>(result.ptr - buf));
}

void AppendName(std::string& out, const MetricInfo& info) {
  out += kPrefix;
  out += info.name;
}

[[nodiscard]] std::string_view PromType(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge:
    case MetricKind::kGaugeMax: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

/// Inclusive upper bound of histogram bin i under the log2 spacing: bin 0
/// holds v = 0, bin i holds v in [2^(i-1), 2^i). The last bin saturates and
/// maps to +Inf.
[[nodiscard]] std::uint64_t BinUpperBound(std::size_t bin) {
  return bin == 0 ? 0 : (std::uint64_t{1} << bin) - 1;
}

/// The snapshot step: 0 means 1; a negative step would put every event
/// past the next boundary, so it is rejected.
Tick CheckedInterval(Tick interval) {
  if (interval < 0) {
    throw std::invalid_argument(Format(
        "metrics snapshot interval must be non-negative (got {})", interval));
  }
  return interval == 0 ? 1 : interval;
}

}  // namespace

std::string_view ToString(MetricsFormat format) {
  switch (format) {
    case MetricsFormat::kJson: return "json";
    case MetricsFormat::kProm: return "prom";
  }
  return "?";
}

std::optional<MetricsFormat> ParseMetricsFormat(std::string_view name) {
  if (name == "json") return MetricsFormat::kJson;
  if (name == "prom") return MetricsFormat::kProm;
  return std::nullopt;
}

std::string RenderMetricsJson(const MetricsSnapshot& snap, Tick tick,
                              std::uint64_t seq, bool final) {
  std::string out;
  out.reserve(2048);
  out += "{\"type\":\"metrics\",\"version\":1,\"tick\":";
  AppendU64(out, static_cast<std::uint64_t>(tick));
  out += ",\"seq\":";
  AppendU64(out, seq);
  if (final) out += ",\"final\":true";
  out += ",\"values\":{";
  bool first = true;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const MetricInfo& info = kMetricInfo[m];
    if (info.kind == MetricKind::kHistogram) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendName(out, info);
    out += "\":";
    AppendU64(out, snap.value[m]);
  }
  out += "},\"histograms\":{";
  first = true;
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const MetricInfo& info = kMetricInfo[m];
    if (info.kind != MetricKind::kHistogram) continue;
    const MetricsSnapshot::Hist& hist = snap.hist[kHistSlotOf[m]];
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendName(out, info);
    out += "\":{\"count\":";
    AppendU64(out, hist.count);
    out += ",\"sum\":";
    AppendU64(out, hist.sum);
    out += ",\"max\":";
    AppendU64(out, hist.max);
    out += ",\"bins\":[";
    // Trailing zero bins are trimmed; bin i spans [2^(i-1), 2^i).
    std::size_t used = MetricsSnapshot::kBins;
    while (used > 0 && hist.bins[used - 1] == 0) --used;
    for (std::size_t b = 0; b < used; ++b) {
      if (b > 0) out += ',';
      AppendU64(out, hist.bins[b]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string RenderMetricsProm(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const MetricInfo& info = kMetricInfo[m];
    out += "# HELP ";
    AppendName(out, info);
    out += ' ';
    out += info.help;
    out += "\n# TYPE ";
    AppendName(out, info);
    out += ' ';
    out += PromType(info.kind);
    out += '\n';
    if (info.kind == MetricKind::kHistogram) {
      const MetricsSnapshot::Hist& hist = snap.hist[kHistSlotOf[m]];
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b + 1 < MetricsSnapshot::kBins; ++b) {
        cumulative += hist.bins[b];
        AppendName(out, info);
        out += "_bucket{le=\"";
        AppendU64(out, BinUpperBound(b));
        out += "\"} ";
        AppendU64(out, cumulative);
        out += '\n';
      }
      AppendName(out, info);
      out += "_bucket{le=\"+Inf\"} ";
      AppendU64(out, hist.count);
      out += '\n';
      AppendName(out, info);
      out += "_sum ";
      AppendU64(out, hist.sum);
      out += '\n';
      AppendName(out, info);
      out += "_count ";
      AppendU64(out, hist.count);
      out += '\n';
      continue;
    }
    AppendName(out, info);
    out += ' ';
    AppendU64(out, snap.value[m]);
    out += '\n';
  }
  return out;
}

std::string RenderMetricsBlock(const MetricsSnapshot& snap) {
  std::string out = "  -- live metrics (final snapshot, non-zero) --\n";
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const MetricInfo& info = kMetricInfo[m];
    if (info.kind == MetricKind::kHistogram) {
      const MetricsSnapshot::Hist& hist = snap.hist[kHistSlotOf[m]];
      if (hist.count == 0) continue;
      const double mean = static_cast<double>(hist.sum) /
                          static_cast<double>(hist.count);
      out += Format("  {:<42}count={} mean={} max={}\n", info.name,
                    hist.count, mean, hist.max);
      continue;
    }
    if (snap.value[m] == 0) continue;
    out += Format("  {:<42}{}\n", info.name, snap.value[m]);
  }
  return out;
}

MetricsSnapshotWriter::MetricsSnapshotWriter(const std::string& path,
                                             MetricsFormat format,
                                             Tick interval)
    : format_(format), interval_(CheckedInterval(interval)) {
  // Opened only once the interval is known good, so a rejected interval
  // leaves no file behind.
  out_.open(path);
  if (!out_.is_open()) {
    throw std::runtime_error(
        Format("cannot open metrics-out file '{}'", path));
  }
  next_boundary_ = interval_;
}

MetricsSnapshotWriter::~MetricsSnapshotWriter() {
  if (!finished_) Finish(last_tick_);
}

void MetricsSnapshotWriter::OnEvent(const core::SimEvent& event) {
  last_tick_ = event.tick;
  if (format_ != MetricsFormat::kJson || event.tick < next_boundary_) return;
  next_boundary_ = (event.tick / interval_ + 1) * interval_;
  std::string line = RenderMetricsJson(
      MetricsRegistry::Instance().TakeSnapshot(), event.tick, seq_++,
      /*final=*/false);
  line += '\n';
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  ++snapshots_;
}

void MetricsSnapshotWriter::Finish(Tick end) {
  if (finished_) return;
  finished_ = true;
  const MetricsSnapshot snap = MetricsRegistry::Instance().TakeSnapshot();
  if (format_ == MetricsFormat::kJson) {
    std::string line = RenderMetricsJson(snap, end, seq_++, /*final=*/true);
    line += '\n';
    out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  } else {
    const std::string doc = RenderMetricsProm(snap);
    out_.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  }
  ++snapshots_;
  out_.flush();
}

}  // namespace dreamsim::obs
