// Workload traces ("real workloads" input path, Sec. III / future work).
//
// The paper's evaluation uses only synthetic tasks but the input subsystem
// "can also support real workloads". This module defines a plain CSV trace
// format so externally recorded workloads replay through exactly the same
// scheduling path as synthetic ones:
//
//   create_time,preferred_config,needed_area,required_time,data_size
//
// `preferred_config` of -1 encodes the unknown-C_pref case; any other
// value outside [0, ConfigId::kInvalidValue) is rejected.
#pragma once

#include <iosfwd>
#include <string>

#include "workload/generator.hpp"

namespace dreamsim::workload {

/// Writes a workload as a trace document.
void WriteTrace(std::ostream& out, const Workload& workload);

/// Parses a trace document. Throws std::runtime_error with a line-numbered
/// message on malformed input; validates ordering and ranges like
/// ValidateWorkload().
[[nodiscard]] Workload ReadTrace(std::istream& in);

/// Convenience file-path wrappers.
void WriteTraceFile(const std::string& path, const Workload& workload);
[[nodiscard]] Workload ReadTraceFile(const std::string& path);

}  // namespace dreamsim::workload
