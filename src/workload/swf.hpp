// Standard Workload Format (SWF) support ("we will test the simulation
// framework with real workloads" — future work, implemented).
//
// SWF is the de-facto trace format of the Parallel Workloads Archive:
// `;`-prefixed header comments followed by one job per line with 18
// whitespace-separated integer fields. This module parses SWF and maps
// jobs onto DReAMSim tasks so archive traces replay through the ordinary
// scheduling path:
//
//   submit time  -> create_time               (scaled by ticks_per_second)
//   run time     -> t_required                (fallback: requested time)
//   #processors  -> needed_area = procs * area_per_processor
//   used memory  -> data_size (KB -> bytes; the data-size column)
//   C_pref       -> absent (closest match by area: real cluster jobs do
//                   not name FPGA configurations)
//
// Jobs with non-positive runtimes or processor counts (cancelled /
// malformed entries), or whose data size or scaled times do not fit a
// Bytes / Tick, are skipped and counted.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/generator.hpp"

namespace dreamsim::workload {

/// One parsed SWF record (the subset of the 18 fields the mapping uses,
/// plus the raw line number for diagnostics).
struct SwfJob {
  std::int64_t job_id = 0;
  std::int64_t submit_time = 0;   // seconds since trace start
  std::int64_t wait_time = -1;    // seconds (unused by the mapping)
  std::int64_t run_time = -1;     // seconds
  std::int64_t allocated_procs = -1;
  std::int64_t used_memory_kb = -1;
  std::int64_t requested_procs = -1;
  std::int64_t requested_time = -1;  // seconds
  std::int64_t status = 1;
  std::size_t line = 0;
};

/// Mapping knobs from SWF units to simulator units.
struct SwfMapping {
  /// Simulated ticks per SWF second (arrival and runtime scaling).
  double ticks_per_second = 1.0;
  /// Area units per requested processor (the area proxy).
  Area area_per_processor = 100;
  /// Clamp for the resulting needed_area (jobs asking for more area than
  /// any configuration could ever supply would always be discarded).
  Area max_area = 2000;
  Area min_area = 100;
};

/// Result of a conversion: the workload plus skip statistics.
struct SwfConversion {
  Workload workload;
  std::size_t jobs_parsed = 0;
  std::size_t jobs_skipped = 0;
};

/// Parses SWF text into job records. Throws std::runtime_error with a
/// line-numbered message on malformed data lines; `;` comments and blank
/// lines are ignored.
[[nodiscard]] std::vector<SwfJob> ParseSwf(std::istream& in);

/// Maps SWF jobs onto a DReAMSim workload (sorted by create_time).
[[nodiscard]] SwfConversion ConvertSwf(const std::vector<SwfJob>& jobs,
                                       const SwfMapping& mapping);

/// Convenience: parse + convert a file.
[[nodiscard]] SwfConversion ReadSwfFile(const std::string& path,
                                        const SwfMapping& mapping);

/// Writes jobs in SWF form (18 fields, unknown fields as -1) with a small
/// header — used for round-trip tests and to fabricate demo traces.
void WriteSwf(std::ostream& out, const std::vector<SwfJob>& jobs,
              const std::string& header_note = "");

}  // namespace dreamsim::workload
