// Scenario files: a parsed plain-text description of one simulation setup.
//
// A scenario names the FPGA device families (count, Eq. 4 area range,
// reconfiguration-port bandwidth, bitstream-store capacity), the
// configuration catalogue, and the concurrent task classes — each with its
// own arrival process (steady / bursty / windowed), budget, graph mix, and
// seed stream. It compiles to a plain SimulationConfig (device_classes /
// task_classes filled), so the core never depends on this library.
//
// Format (docs/formats.md has the grammar):
//
//   # Table II, verbatim
//   simulation: {
//     name: table2-baseline
//     seed: 42
//     mode: partial
//   }
//   device class: {
//     name: uniform-fabric
//     count: 200
//     area: [1000, 4000]
//   }
//   task class: {
//     name: steady
//     count: 1000
//     interval: [1, 50]
//   }
//
// Every key has a Table II default, so minimal scenarios stay minimal.
// Runtime knobs (audit, monitoring, indexes) are deliberately NOT
// part of the grammar: they never change results, so they stay CLI-owned
// and two runs of one scenario hash identically regardless of them.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/sim_config.hpp"
#include "util/expected.hpp"

namespace dreamsim::scenario {

/// One parser diagnostic, anchored to a 1-based source line (0 = a
/// whole-file problem, e.g. a block left open at end of input).
struct ScenarioError {
  int line = 0;
  std::string message;
};

/// Renders diagnostics one per line as "line N: message".
[[nodiscard]] std::string Render(const std::vector<ScenarioError>& errors);

/// A parsed scenario: the declared name plus the SimulationConfig it
/// compiles to. `config.scenario_name` / `config.scenario_hash` carry the
/// scenario identity into reports.
struct ScenarioSpec {
  std::string name;
  core::SimulationConfig config;
};

using ParseResult = Expected<ScenarioSpec, std::vector<ScenarioError>>;

/// Parses scenario text. On failure returns every diagnostic found (the
/// parser recovers per line, so one pass reports all problems).
[[nodiscard]] ParseResult ParseScenario(std::string_view text);

/// Reads and parses a scenario file. An unreadable file reports one
/// line-0 diagnostic.
[[nodiscard]] ParseResult ParseScenarioFile(const std::string& path);

/// Canonical re-serialization: fixed block order (simulation,
/// configurations, device classes, task classes), fixed key order within
/// each block, every default filled in, comments and incidental whitespace
/// dropped. Parsing the canonical form reproduces the spec exactly (a
/// fixed point), which tests/test_scenario_roundtrip.cpp pins.
[[nodiscard]] std::string CanonicalScenario(const ScenarioSpec& spec);

/// Stable scenario identity: FNV-1a 64 over CanonicalScenario(), as 16
/// lowercase hex digits. Invariant under comments, whitespace, and key
/// order by construction; intended as a sweep/daemon cache key.
[[nodiscard]] std::string ScenarioHash(const ScenarioSpec& spec);

}  // namespace dreamsim::scenario
