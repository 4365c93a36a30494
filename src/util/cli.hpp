// Minimal declarative command-line parser for the example and benchmark
// binaries: --name=value / --name value / boolean --flag, with typed
// accessors, defaults, and generated --help text.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace dreamsim {

/// Declarative flag set. Register options, then Parse(argc, argv).
class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Registers an option with a default value (shown in --help).
  void AddString(std::string name, std::string default_value,
                 std::string help);
  void AddInt(std::string name, std::int64_t default_value, std::string help);
  void AddDouble(std::string name, double default_value, std::string help);
  void AddBool(std::string name, bool default_value, std::string help);

  /// Parses argv. Returns false (and fills error()) on unknown or malformed
  /// options (a double flag must be a finite number) and on any non-flag
  /// argument. `--help` sets help_requested() and returns true.
  [[nodiscard]] bool Parse(int argc, const char* const* argv);

  [[nodiscard]] std::string GetString(std::string_view name) const;
  [[nodiscard]] std::int64_t GetInt(std::string_view name) const;
  [[nodiscard]] double GetDouble(std::string_view name) const;
  [[nodiscard]] bool GetBool(std::string_view name) const;

  /// True when the user passed the option explicitly (any type); false for
  /// defaults. Throws std::logic_error on unregistered names.
  [[nodiscard]] bool WasSet(std::string_view name) const;

  [[nodiscard]] bool help_requested() const { return help_requested_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Renders usage text for --help.
  [[nodiscard]] std::string HelpText() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Option {
    Type type;
    std::string default_value;
    std::string value;
    std::string help;
    bool set = false;
  };

  [[nodiscard]] const Option& Require(std::string_view name, Type type) const;
  [[nodiscard]] bool Assign(const std::string& name, const std::string& value);

  std::string description_;
  std::map<std::string, Option, std::less<>> options_;
  bool help_requested_ = false;
  std::string error_;
};

/// The integer flag `name`, which must be at least `min`; otherwise throws
/// std::invalid_argument naming the flag. Read counts this way before a
/// cast to an unsigned type, where a negative value would wrap (a thread
/// count to UINT_MAX, a queue bound silently to "unbounded").
[[nodiscard]] std::int64_t IntAtLeast(const CliParser& cli,
                                      std::string_view name,
                                      std::int64_t min);

/// The integer flag `name`, which must lie in [min, max]; otherwise throws
/// std::invalid_argument naming the flag. Read counts this way before a
/// cast to a narrower type, where a value past its range would truncate
/// (a thread count of 2^32 + 1 to 1).
[[nodiscard]] std::int64_t IntInRange(const CliParser& cli,
                                      std::string_view name, std::int64_t min,
                                      std::int64_t max);

}  // namespace dreamsim
