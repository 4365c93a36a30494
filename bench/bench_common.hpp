// Helpers shared by the gated benches that emit BENCH_*.json: the output
// path, timers, number rendering, the scan-vs-indexed query rows and a
// small JSON writer.
//
// Standard library only, so bench_lint links nothing but the lint engine.
// The helpers that need the dreamsim libraries (the flag parse, the
// metrics-identity check, the overhead rounds) live in bench_sim.hpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <locale>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dreamsim::bench {

/// Where a bench writes its JSON: `out_flag` when given, else `file` in the
/// directory of argv[0], so the JSON lands next to the executable
/// (build/bench/) regardless of the caller's working directory.
inline std::string OutputPath(std::string out_flag, const char* argv0,
                              std::string_view file) {
  if (!out_flag.empty()) return out_flag;
  const std::string path(argv0 != nullptr ? argv0 : "");
  const std::size_t slash = path.find_last_of("/\\");
  const std::string dir =
      slash == std::string::npos ? std::string{} : path.substr(0, slash + 1);
  return dir + std::string(file);
}

/// Fixed-point rendering (util::Format pads but has no precision specs).
inline std::string Fixed(double value, int precision) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

/// Process CPU time. The overhead gates are a few percent on a
/// single-threaded workload, and wall clock on a shared CI runner includes
/// scheduler steal that dwarfs that signal.
inline double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double OverheadPct(double base, double with) {
  return base > 0.0 ? (with - base) / base * 100.0 : 0.0;
}

/// Times `fn` until at least `min_seconds` of samples accumulate; returns
/// mean ns per call.
inline double NsPerCall(const std::function<void()>& fn, double min_seconds) {
  fn();  // warm-up
  std::uint64_t iterations = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i) fn();
    const double elapsed = SecondsSince(start);
    if (elapsed >= min_seconds || iterations >= (1ULL << 26)) {
      return elapsed * 1e9 / static_cast<double>(iterations);
    }
    const double target = min_seconds * 1.2;
    const double guess = elapsed > 0.0
                             ? static_cast<double>(iterations) * target / elapsed
                             : static_cast<double>(iterations) * 16.0;
    iterations = std::max(iterations * 2, static_cast<std::uint64_t>(guess));
  }
}

// --- JSON --------------------------------------------------------------------

/// A value already rendered as JSON text (a number in a chosen format),
/// written as is.
struct JsonRaw {
  std::string text;
};

inline JsonRaw JsonFixed(double value, int precision) {
  return {Fixed(value, precision)};
}

class JsonRow;

/// JSON text for one value. Numbers render as the classic-locale
/// `operator<<` does (six significant digits for doubles), matching
/// util::Format.
template <typename T>
std::string JsonValue(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, JsonRaw>) {
    return value.text;
  } else if constexpr (std::is_same_v<T, JsonRow>) {
    return value.text();
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    std::string out = "\"";
    for (const char c : std::string_view(value)) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  } else {
    static_assert(std::is_arithmetic_v<T>, "not a JSON value");
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << value;
    return os.str();
  }
}

/// A one-line JSON object, e.g. one row of an array: {"a": 1, "b": 2}.
class JsonRow {
 public:
  template <typename T>
  JsonRow& Add(std::string_view key, const T& value) {
    text_ += text_.empty() ? "{" : ", ";
    text_ += JsonValue(key) + ": " + JsonValue(value);
    return *this;
  }

  [[nodiscard]] std::string text() const {
    return text_.empty() ? "{}" : text_ + "}";
  }

 private:
  std::string text_;
};

/// Builds a BENCH_*.json document: one field or array element per line,
/// two spaces of indent per nesting level, commas placed automatically.
class JsonWriter {
 public:
  template <typename T>
  JsonWriter& Field(std::string_view key, const T& value) {
    Item(JsonValue(key) + ": " + JsonValue(value));
    return *this;
  }

  /// Appends an element to the innermost open array.
  template <typename T>
  JsonWriter& Element(const T& value) {
    Item(JsonValue(value));
    return *this;
  }

  JsonWriter& BeginObject(std::string_view key) { return Begin(key, '{'); }
  JsonWriter& BeginArray(std::string_view key) { return Begin(key, '['); }

  /// Closes the innermost open object or array.
  JsonWriter& End() {
    const char closer = closers_.back();
    closers_.pop_back();
    has_items_.pop_back();
    text_ += "\n" + Indent() + closer;
    return *this;
  }

  /// Writes the document to `path` and prints "wrote <path>". On a write
  /// failure prints an error and returns false; the bench then exits 1.
  [[nodiscard]] bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << text_ << "\n}\n";
    if (!out.good()) {
      std::cerr << "error: could not write " << path << "\n";
      return false;
    }
    std::cout << "\nwrote " << path << "\n";
    return true;
  }

 private:
  JsonWriter& Begin(std::string_view key, char opener) {
    Item(JsonValue(key) + ": " + opener);
    closers_.push_back(opener == '{' ? '}' : ']');
    has_items_.push_back(false);
    return *this;
  }

  void Item(const std::string& text) {
    if (has_items_.back()) text_ += ",";
    has_items_.back() = true;
    text_ += "\n" + Indent() + text;
  }

  [[nodiscard]] std::string Indent() const {
    return std::string(2 * has_items_.size(), ' ');
  }

  std::string text_ = "{";
  std::vector<bool> has_items_{false};  // one per open level
  std::vector<char> closers_;
};

// --- Scan-vs-indexed query rows ----------------------------------------------

/// One counted query timed on a scan and an indexed structure of the same
/// population.
struct QueryRow {
  std::string query;
  int size = 0;  // nodes or queue depth
  double scan_ns = 0.0;
  double indexed_ns = 0.0;
  [[nodiscard]] double Speedup() const {
    return indexed_ns > 0.0 ? scan_ns / indexed_ns : 0.0;
  }
};

/// Times `scan` and `indexed` with NsPerCall and prints the row.
inline QueryRow TimeQuery(std::string query, int size,
                          const std::function<void()>& scan,
                          const std::function<void()>& indexed,
                          double min_seconds) {
  QueryRow row{std::move(query), size, NsPerCall(scan, min_seconds),
               NsPerCall(indexed, min_seconds)};
  std::cout << std::setw(28) << row.query << std::setw(9) << row.size
            << std::setw(14) << Fixed(row.scan_ns, 1) << std::setw(14)
            << Fixed(row.indexed_ns, 1) << std::setw(10)
            << Fixed(row.Speedup(), 1) + "x" << "\n";
  return row;
}

/// The header line matching TimeQuery's rows.
inline void PrintQueryHeader(std::string_view size_label) {
  std::cout << std::setw(28) << "query" << std::setw(9) << size_label
            << std::setw(14) << "scan ns" << std::setw(14) << "indexed ns"
            << std::setw(10) << "speedup" << "\n";
}

/// The array `key` of query rows; `size_key` names QueryRow::size
/// ("nodes", "depth").
inline void WriteQueries(JsonWriter& json, std::string_view key,
                         const std::vector<QueryRow>& rows,
                         std::string_view size_key) {
  json.BeginArray(key);
  for (const QueryRow& r : rows) {
    json.Element(JsonRow()
                     .Add("query", r.query)
                     .Add(size_key, r.size)
                     .Add("scan_ns", r.scan_ns)
                     .Add("indexed_ns", r.indexed_ns)
                     .Add("speedup", r.Speedup()));
  }
  json.End();
}

}  // namespace dreamsim::bench
