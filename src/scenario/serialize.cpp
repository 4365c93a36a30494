#include "scenario/scenario.hpp"

#include <charconv>
#include <cstdint>

#include "util/fmt.hpp"

namespace dreamsim::scenario {
namespace {

/// Shortest round-trip rendering (std::to_chars), so parse -> serialize is
/// a fixed point for every representable value.
std::string Real(double v) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

}  // namespace

std::string CanonicalScenario(const ScenarioSpec& spec) {
  const core::SimulationConfig& c = spec.config;
  std::string out;
  out += "simulation: {\n";
  out += Format("  name: {}\n", spec.name.empty() ? "scenario" : spec.name);
  out += Format("  seed: {}\n", c.seed);
  out += Format("  mode: {}\n", sched::ToString(c.mode));
  out += Format("  policy: {}\n", core::ToString(c.policy));
  out += Format("  ship bitstreams: {}\n", c.ship_bitstreams ? "on" : "off");
  out += Format("  bitstream cache: {}\n", c.bitstream_cache_capacity);
  out += Format("  closest match slowdown: {}\n",
                Real(c.closest_match_slowdown));
  out += "}\n";
  out += "configurations: {\n";
  out += Format("  count: {}\n", c.configs.count);
  out += Format("  area: [{}, {}]\n", c.configs.min_area, c.configs.max_area);
  out += Format("  config time: [{}, {}]\n", c.configs.min_config_time,
                c.configs.max_config_time);
  if (c.configs.ptypes.empty()) {
    out += "  ptypes: all\n";
  } else {
    out += "  ptypes:";
    for (const std::string& name : c.configs.ptypes) {
      out += ' ';
      out += name;
    }
    out += '\n';
  }
  out += "}\n";
  for (const resource::DeviceClassParams& d : c.device_classes) {
    out += "device class: {\n";
    out += Format("  name: {}\n", d.name);
    out += Format("  count: {}\n", d.count);
    out += Format("  area: [{}, {}]\n", d.min_area, d.max_area);
    out += Format("  config bandwidth: {}\n", d.config_bandwidth);
    out += Format("  network delay: [{}, {}]\n", d.min_network_delay,
                  d.max_network_delay);
    out += d.bitstream_store < 0
               ? std::string("  bitstream store: inherit\n")
               : Format("  bitstream store: {}\n", d.bitstream_store);
    out += Format("  placement: {}\n",
                  d.contiguous_placement ? resource::ToString(d.placement)
                                         : "scalar");
    out += "}\n";
  }
  for (const workload::TaskClassParams& t : c.task_classes) {
    out += "task class: {\n";
    out += Format("  name: {}\n", t.name);
    out += Format("  count: {}\n", t.base.total_tasks);
    out += Format("  arrivals: {}\n", workload::ToString(t.shape));
    out += Format("  process: {}\n", workload::ToString(t.base.arrivals));
    out += Format("  interval: [{}, {}]\n", t.base.min_interval,
                  t.base.max_interval);
    out += Format("  required time: [{}, {}]\n", t.base.min_required_time,
                  t.base.max_required_time);
    out += Format("  closest match: {}\n",
                  Real(t.base.closest_match_fraction));
    out += Format("  unknown area: [{}, {}]\n", t.base.unknown_min_area,
                  t.base.unknown_max_area);
    out += Format("  data size: [{}, {}]\n", t.base.min_data_size,
                  t.base.max_data_size);
    out += Format("  start time: {}\n", t.start_time);
    out += Format("  end time: {}\n", t.end_time);
    out += Format("  burst size: [{}, {}]\n", t.min_burst, t.max_burst);
    out += Format("  burst gap: [{}, {}]\n", t.min_burst_gap, t.max_burst_gap);
    out += Format("  priority: [{}, {}]\n", Real(t.min_priority),
                  Real(t.max_priority));
    out += Format("  graph fraction: {}\n", Real(t.graph_fraction));
    out += Format("  chain length: [{}, {}]\n", t.min_chain, t.max_chain);
    // An explicit class seed of 0 means "derive from the class index", and
    // the parser rejects a literal 0, so the default is expressed by
    // omission.
    if (t.seed != 0) out += Format("  seed: {}\n", t.seed);
    out += "}\n";
  }
  return out;
}

std::string ScenarioHash(const ScenarioSpec& spec) {
  const std::string canonical = CanonicalScenario(spec);
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a 64 offset basis
  for (const char ch : canonical) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = "0123456789abcdef"[hash & 0xF];
    hash >>= 4;
  }
  return hex;
}

}  // namespace dreamsim::scenario
