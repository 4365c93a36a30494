// Append-only tree primitives shared by the indexed fast paths
// (StoreIndex, SusQueueIndex, SuspensionQueue). Positions are dense
// [0, size); the structures only ever grow — removal is modeled by
// assigning a neutral value (0 for sums and counts, kNegInf for maxima).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace dreamsim::resource {

/// Append-only Fenwick tree over signed values with point updates and
/// prefix sums. Positions are dense [0, size).
class PrefixSumTree {
 public:
  void Append(std::int64_t value);
  /// Sets position `pos` to `value`.
  void Assign(std::size_t pos, std::int64_t value);
  /// Sum of the first `count` values.
  [[nodiscard]] std::int64_t Prefix(std::size_t count) const;
  [[nodiscard]] std::int64_t Total() const { return Prefix(values_.size()); }
  [[nodiscard]] std::int64_t Value(std::size_t pos) const {
    return values_[pos];
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }

 private:
  std::vector<std::int64_t> values_;  // current point values
  std::vector<std::int64_t> tree_;    // 1-based Fenwick array
};

/// Append-only Fenwick tree of 0/1 membership bits with rank queries.
/// Only the tree cells are stored (4 bytes per position): the owner keeps
/// the bits themselves and must only Set() a cleared bit and Clear() a set
/// one.
class CountTree {
 public:
  /// Appends one position holding `bit`.
  void Append(bool bit);
  void Set(std::size_t pos);
  void Clear(std::size_t pos);
  /// Set bits among the first `count` positions.
  [[nodiscard]] std::size_t Prefix(std::size_t count) const;
  [[nodiscard]] std::size_t Total() const { return total_; }
  [[nodiscard]] std::size_t size() const { return tree_.size(); }

 private:
  std::vector<std::uint32_t> tree_;  // 1-based Fenwick array
  std::size_t total_ = 0;
};

/// Append-only max segment tree with a "first position >= threshold"
/// descent — the ordered-scan primitive behind the O(log N) queries.
class MaxSegTree {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr std::int64_t kNegInf =
      std::numeric_limits<std::int64_t>::min();

  void Append(std::int64_t value);
  void Assign(std::size_t pos, std::int64_t value);
  [[nodiscard]] std::int64_t Value(std::size_t pos) const;
  /// Smallest position >= `from` whose value >= `threshold` (npos when
  /// none). `threshold` must exceed kNegInf.
  [[nodiscard]] std::size_t FirstAtLeast(std::size_t from,
                                         std::int64_t threshold) const;
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  [[nodiscard]] std::size_t Descend(std::size_t cell, std::size_t lo,
                                    std::size_t hi, std::size_t from,
                                    std::int64_t threshold) const;
  void Grow();

  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  std::vector<std::int64_t> tree_;  // 1-based heap layout, 2*cap_ cells
};

}  // namespace dreamsim::resource
