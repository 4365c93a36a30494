#include "core/fault_model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/fmt.hpp"

namespace dreamsim::core {

std::string_view ToString(FaultAction action) {
  switch (action) {
    case FaultAction::kFail:
      return "fail";
    case FaultAction::kRepair:
      return "repair";
  }
  return "?";
}

namespace {

/// One `tick:node:action` entry; `entry` has surrounding whitespace trimmed.
FaultEvent ParseEntry(std::string_view entry) {
  const auto bad = [&](const char* why) {
    throw std::invalid_argument(
        Format("fault script entry '{}': {}", std::string(entry), why));
  };
  const std::size_t first = entry.find(':');
  const std::size_t second =
      first == std::string_view::npos ? first : entry.find(':', first + 1);
  if (second == std::string_view::npos) {
    bad("expected tick:node:fail|repair");
  }
  const std::string tick_text(entry.substr(0, first));
  const std::string node_text(entry.substr(first + 1, second - first - 1));
  const std::string_view action_text = entry.substr(second + 1);
  // Only the conversions sit in the try: bad() throws invalid_argument
  // too, and the format and range checks below must keep their messages.
  long long tick = 0;
  long long node = 0;
  std::size_t tick_used = 0;
  std::size_t node_used = 0;
  try {
    tick = std::stoll(tick_text, &tick_used);
    node = std::stoll(node_text, &node_used);
  } catch (const std::invalid_argument&) {
    bad("malformed number");
  } catch (const std::out_of_range&) {
    bad("number out of range");
  }
  if (tick_used != tick_text.size()) bad("malformed tick");
  if (node_used != node_text.size() || node < 0 ||
      node >= std::numeric_limits<std::uint32_t>::max()) {
    bad("malformed node id");
  }
  if (tick < 0) bad("tick must be >= 0");
  FaultEvent event;
  event.at = tick;
  event.node = NodeId{static_cast<std::uint32_t>(node)};
  if (action_text == "fail") {
    event.action = FaultAction::kFail;
  } else if (action_text == "repair") {
    event.action = FaultAction::kRepair;
  } else {
    bad("action must be 'fail' or 'repair'");
  }
  return event;
}

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

std::vector<FaultEvent> ParseFaultScript(std::string_view spec) {
  std::vector<FaultEvent> script;
  while (!spec.empty()) {
    const std::size_t split = spec.find_first_of(",;");
    std::string_view entry = spec.substr(0, split);
    spec = split == std::string_view::npos ? std::string_view{}
                                           : spec.substr(split + 1);
    entry = Trim(entry);
    if (entry.empty()) continue;
    script.push_back(ParseEntry(entry));
  }
  return script;
}

std::string FormatFaultScript(const std::vector<FaultEvent>& script) {
  std::string text;
  for (const FaultEvent& event : script) {
    if (!text.empty()) text += ',';
    text += Format("{}:{}:{}", event.at, event.node.value(),
                   ToString(event.action));
  }
  return text;
}

Tick FaultModel::Draw(double mean) {
  if (mean <= 0.0) {
    throw std::logic_error("FaultModel: drawing from a disabled process");
  }
  const double delay = rng_.exponential(1.0 / mean);
  // Exponential tails are unbounded; cap far beyond any simulated horizon
  // so the rounding below stays in range.
  constexpr double kCap = 1e18;
  if (delay >= kCap) return static_cast<Tick>(kCap);
  return std::max<Tick>(1, static_cast<Tick>(std::llround(delay)));
}

}  // namespace dreamsim::core
