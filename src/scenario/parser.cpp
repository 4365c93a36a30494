#include "scenario/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>

#include "ptype/catalogue.hpp"
#include "util/fmt.hpp"

namespace dreamsim::scenario {
namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool ParseI64(std::string_view s, std::int64_t& out) {
  s = Trim(s);
  if (s.empty()) return false;
  const auto result = std::from_chars(s.data(), s.data() + s.size(), out);
  return result.ec == std::errc() && result.ptr == s.data() + s.size();
}

bool ParseU64(std::string_view s, std::uint64_t& out) {
  s = Trim(s);
  if (s.empty()) return false;
  const auto result = std::from_chars(s.data(), s.data() + s.size(), out);
  return result.ec == std::errc() && result.ptr == s.data() + s.size();
}

/// A finite real: "nan", "inf" and out-of-range literals are rejected.
bool ParseReal(std::string_view s, double& out) {
  s = Trim(s);
  if (s.empty()) return false;
  const auto result = std::from_chars(s.data(), s.data() + s.size(), out);
  return result.ec == std::errc() && result.ptr == s.data() + s.size() &&
         std::isfinite(out);
}

/// `[lo, hi]` with integer endpoints.
bool ParseRange(std::string_view s, std::int64_t& lo, std::int64_t& hi) {
  s = Trim(s);
  if (s.size() < 2 || s.front() != '[' || s.back() != ']') return false;
  s = s.substr(1, s.size() - 2);
  const std::size_t comma = s.find(',');
  if (comma == std::string_view::npos) return false;
  return ParseI64(s.substr(0, comma), lo) && ParseI64(s.substr(comma + 1), hi);
}

/// `[lo, hi]` with real endpoints.
bool ParseRealRange(std::string_view s, double& lo, double& hi) {
  s = Trim(s);
  if (s.size() < 2 || s.front() != '[' || s.back() != ']') return false;
  s = s.substr(1, s.size() - 2);
  const std::size_t comma = s.find(',');
  if (comma == std::string_view::npos) return false;
  return ParseReal(s.substr(0, comma), lo) &&
         ParseReal(s.substr(comma + 1), hi);
}

bool ParseBool(std::string_view s, bool& out) {
  s = Trim(s);
  if (s == "on" || s == "true" || s == "yes") return out = true, true;
  if (s == "off" || s == "false" || s == "no") return out = false, true;
  return false;
}

/// Names are single tokens so the canonical form needs no quoting.
bool ValidName(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

enum class BlockKind : std::uint8_t {
  kSimulation,
  kConfigurations,
  kDeviceClass,
  kTaskClass,
  kUnknown,  // error already reported; body consumed for recovery
};

struct ParsedDeviceClass {
  resource::DeviceClassParams params;
  int line = 0;  // header line, for semantic diagnostics
};

struct ParsedTaskClass {
  workload::TaskClassParams params;
  int line = 0;
};

class Parser {
 public:
  ParseResult Parse(std::string_view text) {
    int line_no = 0;
    while (!text.empty()) {
      const std::size_t eol = text.find('\n');
      std::string_view line = eol == std::string_view::npos
                                  ? text
                                  : text.substr(0, eol);
      text = eol == std::string_view::npos ? std::string_view{}
                                           : text.substr(eol + 1);
      ++line_no;
      const std::size_t hash = line.find('#');
      if (hash != std::string_view::npos) line = line.substr(0, hash);
      line = Trim(line);
      if (line.empty()) continue;
      HandleLine(line, line_no);
    }
    if (in_block_) {
      Error(block_line_,
            Format("'{}' block is never closed ('}}' missing before end of "
                   "input)",
                   BlockName(block_)));
    } else if (pending_open_) {
      Error(block_line_,
            Format("'{}' header is never opened ('{{' missing before end of "
                   "input)",
                   BlockName(block_)));
    }
    Finish();
    if (!errors_.empty()) return Err(std::move(errors_));
    return Compile();
  }

 private:
  void Error(int line, std::string message) {
    errors_.push_back(ScenarioError{line, std::move(message)});
  }

  static std::string_view BlockName(BlockKind kind) {
    switch (kind) {
      case BlockKind::kSimulation: return "simulation";
      case BlockKind::kConfigurations: return "configurations";
      case BlockKind::kDeviceClass: return "device class";
      case BlockKind::kTaskClass: return "task class";
      case BlockKind::kUnknown: return "?";
    }
    return "?";
  }

  void HandleLine(std::string_view line, int line_no) {
    if (pending_open_) {
      pending_open_ = false;
      if (line == "{") {
        EnterBlock(line_no);
        return;
      }
      Error(line_no, Format("expected '{{' to open the '{}:' block",
                            BlockName(block_)));
      // Fall through: maybe this line is already an entry or a new header.
      in_block_ = true;
      EnterBlock(block_line_);
    }
    if (in_block_) {
      if (line == "}") {
        CloseBlock(line_no);
        return;
      }
      if (line.back() == '{' && line.find(':') == std::string_view::npos) {
        Error(line_no, "unexpected '{' inside a block");
        return;
      }
      HandleEntry(line, line_no);
      return;
    }
    // Outside any block: expect `header:` or `header: {`.
    bool open_now = false;
    std::string_view header = line;
    if (header.back() == '{') {
      header = Trim(header.substr(0, header.size() - 1));
      open_now = true;
    }
    if (header.empty() || header.back() != ':') {
      Error(line_no,
            Format("expected a block header ('simulation:', "
                   "'configurations:', 'device class:' or 'task class:'), "
                   "got '{}'",
                   line));
      return;
    }
    header = Trim(header.substr(0, header.size() - 1));
    block_line_ = line_no;
    if (header == "simulation") {
      block_ = BlockKind::kSimulation;
      if (seen_simulation_) {
        Error(line_no, "duplicate 'simulation:' block");
        block_ = BlockKind::kUnknown;
      }
      seen_simulation_ = true;
    } else if (header == "configurations") {
      block_ = BlockKind::kConfigurations;
      if (seen_configurations_) {
        Error(line_no, "duplicate 'configurations:' block");
        block_ = BlockKind::kUnknown;
      }
      seen_configurations_ = true;
    } else if (header == "device class") {
      block_ = BlockKind::kDeviceClass;
    } else if (header == "task class") {
      block_ = BlockKind::kTaskClass;
    } else {
      Error(line_no, Format("unknown block '{}:'", header));
      block_ = BlockKind::kUnknown;
    }
    if (open_now) {
      EnterBlock(line_no);
    } else {
      pending_open_ = true;
    }
  }

  void EnterBlock(int line_no) {
    in_block_ = true;
    pending_open_ = false;
    seen_keys_.clear();
    if (block_ == BlockKind::kDeviceClass) {
      device_ = ParsedDeviceClass{};
      device_.line = block_line_ == 0 ? line_no : block_line_;
    } else if (block_ == BlockKind::kTaskClass) {
      task_ = ParsedTaskClass{};
      task_.line = block_line_ == 0 ? line_no : block_line_;
    }
  }

  void CloseBlock(int line_no) {
    in_block_ = false;
    if (block_ == BlockKind::kDeviceClass) {
      CommitDeviceClass(line_no);
    } else if (block_ == BlockKind::kTaskClass) {
      CommitTaskClass(line_no);
    }
  }

  void CommitDeviceClass(int line_no) {
    const int at = device_.line;
    resource::DeviceClassParams& p = device_.params;
    if (p.name.empty()) {
      Error(at, "device class needs a 'name:'");
      p.name = Format("device-class-{}", device_classes_.size());
    } else if (!device_names_.insert(p.name).second) {
      Error(at, Format("duplicate device class name '{}'", p.name));
    }
    if (!seen_keys_.contains("count")) {
      Error(at, Format("device class '{}' needs a 'count:'", p.name));
    } else if (p.count <= 0) {
      Error(at, Format("device class '{}' has a non-positive count", p.name));
    }
    if (p.min_area <= 0 || p.min_area > p.max_area) {
      Error(at, Format("device class '{}' has an invalid area range [{}, {}]",
                       p.name, p.min_area, p.max_area));
    }
    if (p.config_bandwidth <= 0) {
      Error(at, Format("device class '{}' needs a positive config bandwidth",
                       p.name));
    }
    if (p.min_network_delay < 0 || p.min_network_delay > p.max_network_delay) {
      Error(at, Format("device class '{}' has an invalid network delay range",
                       p.name));
    }
    (void)line_no;
    device_classes_.push_back(std::move(device_));
  }

  void CommitTaskClass(int line_no) {
    const int at = task_.line;
    workload::TaskClassParams& p = task_.params;
    if (p.name.empty()) {
      Error(at, "task class needs a 'name:'");
      p.name = Format("task-class-{}", task_classes_.size());
    } else if (!task_names_.insert(p.name).second) {
      Error(at, Format("duplicate task class name '{}'", p.name));
    }
    for (const std::string& violation : workload::ValidateTaskClass(p)) {
      Error(at, violation);
    }
    (void)line_no;
    task_classes_.push_back(std::move(task_));
  }

  void HandleEntry(std::string_view line, int line_no) {
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      Error(line_no,
            Format("expected 'key: value' or '}', got '{}'", line));
      return;
    }
    const std::string key{Trim(line.substr(0, colon))};
    const std::string_view value = Trim(line.substr(colon + 1));
    if (key.empty()) {
      Error(line_no, "empty key");
      return;
    }
    if (value.empty()) {
      Error(line_no, Format("key '{}' has no value", key));
      return;
    }
    if (!seen_keys_.insert(key).second) {
      Error(line_no, Format("duplicate key '{}' in '{}:' block", key,
                            BlockName(block_)));
      return;
    }
    switch (block_) {
      case BlockKind::kSimulation:
        SimulationEntry(key, value, line_no);
        break;
      case BlockKind::kConfigurations:
        ConfigurationsEntry(key, value, line_no);
        break;
      case BlockKind::kDeviceClass:
        DeviceClassEntry(key, value, line_no);
        break;
      case BlockKind::kTaskClass:
        TaskClassEntry(key, value, line_no);
        break;
      case BlockKind::kUnknown:
        break;  // recovery: consume silently, the header already errored
    }
  }

  // --- typed value helpers (each reports its own diagnostic) ---

  bool WantI64(const std::string& key, std::string_view value, int line_no,
               std::int64_t& out) {
    if (ParseI64(value, out)) return true;
    Error(line_no,
          Format("key '{}': expected an integer, got '{}'", key, value));
    return false;
  }

  bool WantU64(const std::string& key, std::string_view value, int line_no,
               std::uint64_t& out) {
    if (ParseU64(value, out)) return true;
    Error(line_no, Format("key '{}': expected a non-negative integer, got "
                          "'{}'",
                          key, value));
    return false;
  }

  bool WantReal(const std::string& key, std::string_view value, int line_no,
                double& out) {
    if (ParseReal(value, out)) return true;
    Error(line_no,
          Format("key '{}': expected a finite number, got '{}'", key,
                 value));
    return false;
  }

  bool WantRange(const std::string& key, std::string_view value, int line_no,
                 std::int64_t& lo, std::int64_t& hi) {
    if (ParseRange(value, lo, hi)) return true;
    Error(line_no,
          Format("key '{}': expected a range '[lo, hi]', got '{}'", key,
                 value));
    return false;
  }

  bool WantRealRange(const std::string& key, std::string_view value,
                     int line_no, double& lo, double& hi) {
    if (ParseRealRange(value, lo, hi)) return true;
    Error(line_no,
          Format("key '{}': expected a range '[lo, hi]', got '{}'", key,
                 value));
    return false;
  }

  bool WantBool(const std::string& key, std::string_view value, int line_no,
                bool& out) {
    if (ParseBool(value, out)) return true;
    Error(line_no,
          Format("key '{}': expected on/off, got '{}'", key, value));
    return false;
  }

  bool WantName(const std::string& key, std::string_view value, int line_no,
                std::string& out) {
    if (ValidName(value)) {
      out = std::string(value);
      return true;
    }
    Error(line_no,
          Format("key '{}': names are single tokens of [A-Za-z0-9_.-], got "
                 "'{}'",
                 key, value));
    return false;
  }

  void UnknownKey(const std::string& key, int line_no) {
    Error(line_no, Format("unknown key '{}' in '{}:' block", key,
                          BlockName(block_)));
  }

  // --- block entry dispatch ---

  void SimulationEntry(const std::string& key, std::string_view value,
                       int line_no) {
    std::int64_t i = 0;
    double d = 0.0;
    if (key == "name") {
      (void)WantName(key, value, line_no, name_);
    } else if (key == "seed") {
      (void)WantU64(key, value, line_no, config_.seed);
    } else if (key == "mode") {
      if (value == "full") {
        config_.mode = sched::ReconfigMode::kFull;
      } else if (value == "partial") {
        config_.mode = sched::ReconfigMode::kPartial;
      } else {
        Error(line_no,
              Format("key 'mode': expected full or partial, got '{}'", value));
      }
    } else if (key == "policy") {
      if (value == "dreamsim") {
        config_.policy = core::PolicyChoice::kDreamSim;
      } else if (value == "first-fit") {
        config_.policy = core::PolicyChoice::kFirstFit;
      } else if (value == "best-fit") {
        config_.policy = core::PolicyChoice::kBestFit;
      } else if (value == "worst-fit") {
        config_.policy = core::PolicyChoice::kWorstFit;
      } else if (value == "random-fit") {
        config_.policy = core::PolicyChoice::kRandomFit;
      } else if (value == "round-robin") {
        config_.policy = core::PolicyChoice::kRoundRobin;
      } else if (value == "least-loaded") {
        config_.policy = core::PolicyChoice::kLeastLoaded;
      } else {
        Error(line_no, Format("key 'policy': unknown policy '{}'", value));
      }
    } else if (key == "ship bitstreams") {
      (void)WantBool(key, value, line_no, config_.ship_bitstreams);
    } else if (key == "bitstream cache") {
      if (WantI64(key, value, line_no, i)) {
        if (i < 0) {
          Error(line_no, "key 'bitstream cache': capacity must be >= 0");
        } else {
          config_.bitstream_cache_capacity = i;
        }
      }
    } else if (key == "closest match slowdown") {
      if (WantReal(key, value, line_no, d)) {
        if (d < 1.0 || d > core::kMaxClosestMatchSlowdown) {
          Error(line_no,
                Format("key 'closest match slowdown': must be in [1, {}]",
                       core::kMaxClosestMatchSlowdown));
        } else {
          config_.closest_match_slowdown = d;
        }
      }
    } else {
      UnknownKey(key, line_no);
    }
  }

  void ConfigurationsEntry(const std::string& key, std::string_view value,
                           int line_no) {
    std::int64_t i = 0, lo = 0, hi = 0;
    if (key == "count") {
      if (WantI64(key, value, line_no, i)) {
        if (i <= 0 || i > (1 << 20)) {
          Error(line_no, "key 'count': configuration count must be in "
                         "[1, 1048576]");
        } else {
          config_.configs.count = static_cast<int>(i);
        }
      }
    } else if (key == "area") {
      if (WantRange(key, value, line_no, lo, hi)) {
        if (lo <= 0 || lo > hi) {
          Error(line_no, "key 'area': need 0 < lo <= hi");
        } else {
          config_.configs.min_area = lo;
          config_.configs.max_area = hi;
        }
      }
    } else if (key == "config time") {
      if (WantRange(key, value, line_no, lo, hi)) {
        if (lo <= 0 || lo > hi) {
          Error(line_no, "key 'config time': need 0 < lo <= hi");
        } else {
          config_.configs.min_config_time = lo;
          config_.configs.max_config_time = hi;
        }
      }
    } else if (key == "ptypes") {
      PtypesEntry(value, line_no);
    } else {
      UnknownKey(key, line_no);
    }
  }

  /// `ptypes: all` or a space-separated list of processor-type names from
  /// the default catalogue ("ptypes: mult32 systolic8x8"). Selection order
  /// is semantic (it is the Sample() order), so it is preserved.
  void PtypesEntry(std::string_view value, int line_no) {
    if (value == "all") {
      config_.configs.ptypes.clear();
      return;
    }
    const ptype::Catalogue all = ptype::Catalogue::Default();
    std::vector<std::string> names;
    std::string_view rest = value;
    while (!rest.empty()) {
      const std::size_t gap = rest.find_first_of(" \t");
      const std::string_view token = Trim(rest.substr(0, gap));
      rest = gap == std::string_view::npos ? std::string_view{}
                                           : Trim(rest.substr(gap + 1));
      if (token.empty()) continue;
      if (!all.FindByName(token).has_value()) {
        Error(line_no,
              Format("key 'ptypes': unknown processor type '{}'", token));
        return;
      }
      if (std::find(names.begin(), names.end(), token) != names.end()) {
        Error(line_no,
              Format("key 'ptypes': duplicate processor type '{}'", token));
        return;
      }
      names.emplace_back(token);
    }
    if (names.empty()) {
      Error(line_no, "key 'ptypes': expected 'all' or a list of type names");
      return;
    }
    config_.configs.ptypes = std::move(names);
  }

  void DeviceClassEntry(const std::string& key, std::string_view value,
                        int line_no) {
    resource::DeviceClassParams& p = device_.params;
    std::int64_t i = 0, lo = 0, hi = 0;
    if (key == "name") {
      (void)WantName(key, value, line_no, p.name);
    } else if (key == "count") {
      if (WantI64(key, value, line_no, i)) {
        if (i <= 0 || i > (1 << 24)) {
          Error(line_no,
                Format("key 'count': device count must be in [1, {}], got {}",
                       1 << 24, i));
        } else {
          p.count = static_cast<int>(i);
        }
      }
    } else if (key == "area") {
      if (WantRange(key, value, line_no, lo, hi)) {
        p.min_area = lo;
        p.max_area = hi;
      }
    } else if (key == "config bandwidth") {
      if (WantI64(key, value, line_no, i)) p.config_bandwidth = i;
    } else if (key == "network delay") {
      if (WantRange(key, value, line_no, lo, hi)) {
        p.min_network_delay = lo;
        p.max_network_delay = hi;
      }
    } else if (key == "bitstream store") {
      if (value == "inherit") {
        p.bitstream_store = -1;
      } else if (WantI64(key, value, line_no, i)) {
        if (i < 0) {
          Error(line_no,
                "key 'bitstream store': expected a capacity >= 0 or "
                "'inherit'");
        } else {
          p.bitstream_store = i;
        }
      }
    } else if (key == "placement") {
      if (value == "scalar") {
        p.contiguous_placement = false;
      } else if (value == "first-fit") {
        p.contiguous_placement = true;
        p.placement = resource::Placement::kFirstFit;
      } else if (value == "best-fit") {
        p.contiguous_placement = true;
        p.placement = resource::Placement::kBestFit;
      } else if (value == "worst-fit") {
        p.contiguous_placement = true;
        p.placement = resource::Placement::kWorstFit;
      } else {
        Error(line_no,
              Format("key 'placement': expected scalar, first-fit, best-fit "
                     "or worst-fit, got '{}'",
                     value));
      }
    } else {
      UnknownKey(key, line_no);
    }
  }

  void TaskClassEntry(const std::string& key, std::string_view value,
                      int line_no) {
    workload::TaskClassParams& p = task_.params;
    std::int64_t i = 0, lo = 0, hi = 0;
    double d = 0.0, dlo = 0.0, dhi = 0.0;
    if (key == "name") {
      (void)WantName(key, value, line_no, p.name);
    } else if (key == "count") {
      if (WantI64(key, value, line_no, i)) {
        if (i < 0 || i > (1 << 30)) {
          Error(line_no, "key 'count': task count must be in [0, 2^30]");
        } else {
          p.base.total_tasks = static_cast<int>(i);
        }
      }
    } else if (key == "arrivals") {
      if (value == "steady") {
        p.shape = workload::ArrivalShape::kSteady;
      } else if (value == "bursty") {
        p.shape = workload::ArrivalShape::kBursty;
      } else if (value == "windowed") {
        p.shape = workload::ArrivalShape::kWindowed;
      } else {
        Error(line_no,
              Format("key 'arrivals': expected steady, bursty or windowed, "
                     "got '{}'",
                     value));
      }
    } else if (key == "process") {
      if (value == "uniform") {
        p.base.arrivals = workload::ArrivalProcess::kUniform;
      } else if (value == "poisson") {
        p.base.arrivals = workload::ArrivalProcess::kPoisson;
      } else if (value == "constant") {
        p.base.arrivals = workload::ArrivalProcess::kConstant;
      } else {
        Error(line_no,
              Format("key 'process': expected uniform, poisson or constant, "
                     "got '{}'",
                     value));
      }
    } else if (key == "interval") {
      if (WantRange(key, value, line_no, lo, hi)) {
        p.base.min_interval = lo;
        p.base.max_interval = hi;
      }
    } else if (key == "required time") {
      if (WantRange(key, value, line_no, lo, hi)) {
        p.base.min_required_time = lo;
        p.base.max_required_time = hi;
      }
    } else if (key == "closest match") {
      if (WantReal(key, value, line_no, d)) p.base.closest_match_fraction = d;
    } else if (key == "unknown area") {
      if (WantRange(key, value, line_no, lo, hi)) {
        p.base.unknown_min_area = lo;
        p.base.unknown_max_area = hi;
      }
    } else if (key == "data size") {
      if (WantRange(key, value, line_no, lo, hi)) {
        p.base.min_data_size = lo;
        p.base.max_data_size = hi;
      }
    } else if (key == "start time") {
      if (WantI64(key, value, line_no, i)) p.start_time = i;
    } else if (key == "end time") {
      if (WantI64(key, value, line_no, i)) p.end_time = i;
    } else if (key == "burst size") {
      if (WantRange(key, value, line_no, lo, hi)) {
        if (lo < 0 || lo > (1 << 24) || hi < 0 || hi > (1 << 24)) {
          Error(line_no, "key 'burst size': endpoints must be in [0, 2^24]");
        } else {
          p.min_burst = static_cast<int>(lo);
          p.max_burst = static_cast<int>(hi);
        }
      }
    } else if (key == "burst gap") {
      if (WantRange(key, value, line_no, lo, hi)) {
        p.min_burst_gap = lo;
        p.max_burst_gap = hi;
      }
    } else if (key == "priority") {
      if (WantRealRange(key, value, line_no, dlo, dhi)) {
        p.min_priority = dlo;
        p.max_priority = dhi;
      }
    } else if (key == "graph fraction") {
      if (WantReal(key, value, line_no, d)) p.graph_fraction = d;
    } else if (key == "chain length") {
      if (WantRange(key, value, line_no, lo, hi)) {
        if (lo < 0 || lo > (1 << 20) || hi < 0 || hi > (1 << 20)) {
          Error(line_no, "key 'chain length': endpoints must be in [0, 2^20]");
        } else {
          p.min_chain = static_cast<int>(lo);
          p.max_chain = static_cast<int>(hi);
        }
      }
    } else if (key == "seed") {
      if (WantU64(key, value, line_no, p.seed)) {
        if (p.seed == 0) {
          Error(line_no,
                "key 'seed': explicit class seeds must be non-zero (0 means "
                "'derive from the class index')");
        }
      }
    } else {
      UnknownKey(key, line_no);
    }
  }

  void Finish() {
    // Cross-block semantic checks that need the full picture.
    std::int64_t total_nodes = 0;
    for (const ParsedDeviceClass& c : device_classes_) {
      total_nodes += c.params.count;
    }
    if (!device_classes_.empty() && total_nodes > (1 << 24)) {
      Error(device_classes_.front().line,
            Format("device classes declare {} nodes in total (max {})",
                   total_nodes, 1 << 24));
    }
  }

  ParseResult Compile() {
    ScenarioSpec spec;
    spec.name = name_.empty() ? "scenario" : name_;
    spec.config = std::move(config_);
    spec.config.device_classes.reserve(device_classes_.size());
    for (ParsedDeviceClass& c : device_classes_) {
      spec.config.device_classes.push_back(std::move(c.params));
    }
    spec.config.task_classes.reserve(task_classes_.size());
    for (ParsedTaskClass& c : task_classes_) {
      spec.config.task_classes.push_back(std::move(c.params));
    }
    // Heterogeneous families: configurations are synthesized round-robin
    // over the device classes (class index == FamilyId).
    if (!spec.config.device_classes.empty()) {
      spec.config.configs.family_count =
          static_cast<int>(spec.config.device_classes.size());
    }
    spec.config.label = spec.name;
    spec.config.scenario_name = spec.name;
    spec.config.scenario_hash = ScenarioHash(spec);
    return spec;
  }

  // Parse state.
  bool in_block_ = false;
  bool pending_open_ = false;
  BlockKind block_ = BlockKind::kUnknown;
  int block_line_ = 0;
  std::unordered_set<std::string> seen_keys_;
  bool seen_simulation_ = false;
  bool seen_configurations_ = false;

  // Accumulated results.
  std::vector<ScenarioError> errors_;
  std::string name_;
  core::SimulationConfig config_;
  ParsedDeviceClass device_;
  ParsedTaskClass task_;
  std::vector<ParsedDeviceClass> device_classes_;
  std::vector<ParsedTaskClass> task_classes_;
  std::unordered_set<std::string> device_names_;
  std::unordered_set<std::string> task_names_;
};

}  // namespace

std::string Render(const std::vector<ScenarioError>& errors) {
  std::string out;
  for (const ScenarioError& e : errors) {
    out += Format("line {}: {}\n", e.line, e.message);
  }
  return out;
}

ParseResult ParseScenario(std::string_view text) {
  Parser parser;
  return parser.Parse(text);
}

ParseResult ParseScenarioFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Err(std::vector<ScenarioError>{
        {0, Format("cannot read scenario file '{}'", path)}});
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseScenario(buffer.str());
}

}  // namespace dreamsim::scenario
