// Name-to-enum lookup through an enum's own ToString(), so each value has
// one spelling, shared by its printers and its parsers.
#pragma once

#include <initializer_list>
#include <optional>
#include <string_view>

namespace dreamsim {

/// The value of `values` that ToString() spells `name`, or nullopt.
/// ToString is found in the enum's namespace by argument-dependent lookup.
template <typename Enum>
[[nodiscard]] std::optional<Enum> FromName(std::string_view name,
                                           std::initializer_list<Enum> values) {
  for (const Enum value : values) {
    if (ToString(value) == name) return value;
  }
  return std::nullopt;
}

}  // namespace dreamsim
