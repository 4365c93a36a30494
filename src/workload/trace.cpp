#include "workload/trace.hpp"

#include <charconv>
#include <fstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/fmt.hpp"

namespace dreamsim::workload {
namespace {

constexpr const char* kColumns[] = {"create_time", "preferred_config",
                                    "needed_area", "required_time",
                                    "data_size"};

std::int64_t ParseField(const std::string& cell, std::size_t line,
                        const char* column) {
  std::int64_t value = 0;
  const char* first = cell.data();
  const char* last = cell.data() + cell.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    throw std::runtime_error(Format(
        "trace line {}: column '{}' is not an integer: '{}'", line, column,
        cell));
  }
  return value;
}

}  // namespace

void WriteTrace(std::ostream& out, const Workload& workload) {
  CsvWriter csv(out, {kColumns[0], kColumns[1], kColumns[2], kColumns[3],
                      kColumns[4]});
  for (const GeneratedTask& t : workload) {
    csv.BeginRow();
    csv.Field(static_cast<std::int64_t>(t.create_time));
    csv.Field(t.preferred_config.valid()
                  ? static_cast<std::int64_t>(t.preferred_config.value())
                  : std::int64_t{-1});
    csv.Field(static_cast<std::int64_t>(t.needed_area));
    csv.Field(static_cast<std::int64_t>(t.required_time));
    csv.Field(static_cast<std::int64_t>(t.data_size));
    csv.EndRow();
  }
}

Workload ReadTrace(std::istream& in) {
  const CsvTable table = CsvRead(in);
  for (const char* column : kColumns) {
    if (table.ColumnIndex(column) == CsvTable::npos) {
      throw std::runtime_error(
          Format("trace header missing column '{}'", column));
    }
  }
  const std::size_t c_create = table.ColumnIndex(kColumns[0]);
  const std::size_t c_pref = table.ColumnIndex(kColumns[1]);
  const std::size_t c_area = table.ColumnIndex(kColumns[2]);
  const std::size_t c_time = table.ColumnIndex(kColumns[3]);
  const std::size_t c_data = table.ColumnIndex(kColumns[4]);

  Workload workload;
  workload.reserve(table.rows.size());
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto& row = table.rows[i];
    const std::size_t line = i + 2;  // header is line 1
    if (row.size() != table.header.size()) {
      throw std::runtime_error(
          Format("trace line {}: expected {} cells, got {}", line,
                 table.header.size(), row.size()));
    }
    GeneratedTask t;
    t.create_time = ParseField(row[c_create], line, kColumns[0]);
    const std::int64_t pref = ParseField(row[c_pref], line, kColumns[1]);
    // -1 (what WriteTrace emits) is "no preference"; anything else must be
    // a representable configuration id, never wrap onto one.
    if (pref < -1 ||
        pref >= static_cast<std::int64_t>(ConfigId::kInvalidValue)) {
      throw std::runtime_error(Format(
          "trace line {}: column '{}' is not a configuration id or -1: '{}'",
          line, kColumns[1], row[c_pref]));
    }
    if (pref >= 0) {
      t.preferred_config = ConfigId{static_cast<std::uint32_t>(pref)};
    }
    t.needed_area = ParseField(row[c_area], line, kColumns[2]);
    t.required_time = ParseField(row[c_time], line, kColumns[3]);
    t.data_size = ParseField(row[c_data], line, kColumns[4]);
    workload.push_back(t);
  }
  const auto violations = ValidateWorkload(workload);
  if (!violations.empty()) {
    throw std::runtime_error(Format("invalid trace: {}", violations.front()));
  }
  return workload;
}

void WriteTraceFile(const std::string& path, const Workload& workload) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(Format("cannot open '{}' for write", path));
  WriteTrace(out, workload);
}

Workload ReadTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(Format("cannot open '{}' for read", path));
  return ReadTrace(in);
}

}  // namespace dreamsim::workload
