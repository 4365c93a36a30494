// Audit activation levels for the structure-invariant auditor.
//
// Lives in its own header (instead of structure_auditor.hpp) so that
// SimulationConfig can carry the mode without pulling the auditor — and
// with it every audited structure — into every translation unit.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace dreamsim::analysis {

/// When the simulator runs the StructureAuditor.
enum class AuditMode : std::uint8_t {
  /// Never. Must be a true no-op: the only residue on the hot path is one
  /// enum comparison per scheduler decision (bench_overhead gates < 1%).
  kOff,
  /// Once, at the end of the run, before the metrics report is assembled.
  kEnd,
  /// After every scheduler decision (arrival attempt, queued re-attempt,
  /// completion drain, fault apply) plus the end-of-run audit. Full
  /// ground-truth reconstruction each time — Debug-scale cost.
  kStep,
};

[[nodiscard]] constexpr std::string_view ToString(AuditMode mode) {
  switch (mode) {
    case AuditMode::kOff:
      return "off";
    case AuditMode::kEnd:
      return "end";
    case AuditMode::kStep:
      return "step";
  }
  return "?";
}

[[nodiscard]] constexpr std::optional<AuditMode> ParseAuditMode(
    std::string_view text) {
  if (text == "off") return AuditMode::kOff;
  if (text == "end") return AuditMode::kEnd;
  if (text == "step") return AuditMode::kStep;
  return std::nullopt;
}

}  // namespace dreamsim::analysis
