#include "workload/swf.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/fmt.hpp"

namespace dreamsim::workload {
namespace {

/// The 18 standard SWF fields, in order.
enum SwfField : std::size_t {
  kJobId = 0,
  kSubmitTime = 1,
  kWaitTime = 2,
  kRunTime = 3,
  kAllocatedProcs = 4,
  kAvgCpuTime = 5,
  kUsedMemory = 6,
  kRequestedProcs = 7,
  kRequestedTime = 8,
  kRequestedMemory = 9,
  kStatus = 10,
  kUserId = 11,
  kGroupId = 12,
  kExecutable = 13,
  kQueue = 14,
  kPartition = 15,
  kPrecedingJob = 16,
  kThinkTime = 17,
  kFieldCount = 18,
};

/// `seconds` scaled to ticks, or nullopt when the result does not fit a
/// Tick (2^63 is the first double past the Tick range; NaN fails too).
std::optional<Tick> ScaledTicks(std::int64_t seconds,
                                double ticks_per_second) {
  const double ticks = static_cast<double>(seconds) * ticks_per_second;
  if (!(ticks < 0x1p63)) return std::nullopt;
  return static_cast<Tick>(std::llround(ticks));
}

}  // namespace

std::vector<SwfJob> ParseSwf(std::istream& in) {
  std::vector<SwfJob> jobs;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Strip leading whitespace; skip blanks and `;` header comments.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == ';') continue;

    std::istringstream fields(line);
    std::int64_t values[kFieldCount];
    std::size_t parsed = 0;
    while (parsed < kFieldCount && (fields >> values[parsed])) ++parsed;
    if (parsed < kFieldCount) {
      throw std::runtime_error(
          Format("SWF line {}: expected {} fields, got {}", line_number,
                 static_cast<std::size_t>(kFieldCount), parsed));
    }

    SwfJob job;
    job.job_id = values[kJobId];
    job.submit_time = values[kSubmitTime];
    job.wait_time = values[kWaitTime];
    job.run_time = values[kRunTime];
    job.allocated_procs = values[kAllocatedProcs];
    job.used_memory_kb = values[kUsedMemory];
    job.requested_procs = values[kRequestedProcs];
    job.requested_time = values[kRequestedTime];
    job.status = values[kStatus];
    job.line = line_number;
    jobs.push_back(job);
  }
  return jobs;
}

SwfConversion ConvertSwf(const std::vector<SwfJob>& jobs,
                         const SwfMapping& mapping) {
  if (mapping.ticks_per_second <= 0.0 || mapping.area_per_processor <= 0 ||
      mapping.min_area <= 0 || mapping.min_area > mapping.max_area) {
    throw std::invalid_argument("invalid SWF mapping parameters");
  }
  SwfConversion result;
  std::vector<GeneratedTask> tasks;
  result.jobs_parsed = jobs.size();
  for (const SwfJob& job : jobs) {
    // Prefer measured runtime; fall back to the user's request.
    const std::int64_t seconds =
        job.run_time > 0 ? job.run_time : job.requested_time;
    const std::int64_t procs =
        job.requested_procs > 0 ? job.requested_procs : job.allocated_procs;
    if (seconds <= 0 || procs <= 0 || job.submit_time < 0) {
      ++result.jobs_skipped;
      continue;
    }
    // Jobs whose times or data size do not fit a Tick / Bytes are skipped
    // like malformed ones.
    const std::optional<Tick> create =
        ScaledTicks(job.submit_time, mapping.ticks_per_second);
    const std::optional<Tick> required =
        ScaledTicks(seconds, mapping.ticks_per_second);
    constexpr Bytes kKb = 1024;
    if (!create || !required ||
        job.used_memory_kb > std::numeric_limits<Bytes>::max() / kKb) {
      ++result.jobs_skipped;
      continue;
    }
    GeneratedTask t;
    t.create_time = *create;
    t.required_time = std::max<Tick>(1, *required);
    t.preferred_config = ConfigId::invalid();  // closest match by area
    // procs > max_area / area_per_processor exactly when the product
    // exceeds max_area, so the clamp needs no (overflowing) multiply.
    t.needed_area =
        procs > mapping.max_area / mapping.area_per_processor
            ? mapping.max_area
            : std::max(procs * mapping.area_per_processor, mapping.min_area);
    t.data_size = job.used_memory_kb > 0 ? job.used_memory_kb * kKb : 0;
    tasks.push_back(t);
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const GeneratedTask& a, const GeneratedTask& b) {
                     return a.create_time < b.create_time;
                   });
  result.workload = Workload(tasks);
  return result;
}

SwfConversion ReadSwfFile(const std::string& path, const SwfMapping& mapping) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(Format("cannot open '{}' for read", path));
  return ConvertSwf(ParseSwf(in), mapping);
}

void WriteSwf(std::ostream& out, const std::vector<SwfJob>& jobs,
              const std::string& header_note) {
  out << "; SWF trace written by DReAMSim\n";
  if (!header_note.empty()) out << "; " << header_note << "\n";
  out << "; Fields: job submit wait run procs avgcpu mem reqprocs reqtime "
         "reqmem status uid gid exe queue partition prejob think\n";
  for (const SwfJob& job : jobs) {
    out << job.job_id << ' ' << job.submit_time << ' ' << job.wait_time << ' '
        << job.run_time << ' ' << job.allocated_procs << ' ' << -1 << ' '
        << job.used_memory_kb << ' ' << job.requested_procs << ' '
        << job.requested_time << ' ' << -1 << ' ' << job.status << ' ' << -1
        << ' ' << -1 << ' ' << -1 << ' ' << -1 << ' ' << -1 << ' ' << -1
        << ' ' << -1 << '\n';
  }
}

}  // namespace dreamsim::workload
