#include "resource/index_primitives.hpp"

#include <algorithm>

namespace dreamsim::resource {

namespace {

constexpr std::size_t LowBit(std::size_t i) { return i & (~i + 1); }

}  // namespace

// --- PrefixSumTree ---

void PrefixSumTree::Append(std::int64_t value) {
  values_.push_back(0);
  tree_.push_back(0);
  // Fenwick cell i (1-based) covers (i - lowbit(i), i]; seed the fresh
  // trailing cell with the sum of the range it covers (the new value is
  // still 0), then point-update to the real value.
  const std::size_t i = values_.size();
  std::int64_t covered = 0;
  for (std::size_t j = i - 1; j > i - LowBit(i); j -= LowBit(j)) {
    covered += tree_[j - 1];
  }
  tree_[i - 1] = covered;
  Assign(i - 1, value);
}

void PrefixSumTree::Assign(std::size_t pos, std::int64_t value) {
  const std::int64_t delta = value - values_[pos];
  if (delta == 0) return;
  values_[pos] = value;
  for (std::size_t j = pos + 1; j <= tree_.size(); j += LowBit(j)) {
    tree_[j - 1] += delta;
  }
}

std::int64_t PrefixSumTree::Prefix(std::size_t count) const {
  std::int64_t sum = 0;
  for (std::size_t j = count; j > 0; j -= LowBit(j)) sum += tree_[j - 1];
  return sum;
}

// --- CountTree ---

void CountTree::Append(bool bit) {
  // Same seeding as PrefixSumTree::Append: the fresh trailing cell covers
  // (i - lowbit(i), i], whose earlier part is the sum of the cells that
  // hop into it.
  const std::size_t i = tree_.size() + 1;
  std::uint32_t covered = bit ? 1 : 0;
  for (std::size_t j = i - 1; j > i - LowBit(i); j -= LowBit(j)) {
    covered += tree_[j - 1];
  }
  tree_.push_back(covered);
  if (bit) ++total_;
}

void CountTree::Set(std::size_t pos) {
  for (std::size_t j = pos + 1; j <= tree_.size(); j += LowBit(j)) {
    ++tree_[j - 1];
  }
  ++total_;
}

void CountTree::Clear(std::size_t pos) {
  for (std::size_t j = pos + 1; j <= tree_.size(); j += LowBit(j)) {
    --tree_[j - 1];
  }
  --total_;
}

std::size_t CountTree::Prefix(std::size_t count) const {
  std::size_t sum = 0;
  for (std::size_t j = count; j > 0; j -= LowBit(j)) sum += tree_[j - 1];
  return sum;
}

// --- MaxSegTree ---

void MaxSegTree::Grow() {
  const std::size_t new_cap = cap_ == 0 ? 1 : cap_ * 2;
  std::vector<std::int64_t> fresh(2 * new_cap, kNegInf);
  for (std::size_t i = 0; i < size_; ++i) fresh[new_cap + i] = tree_[cap_ + i];
  for (std::size_t i = new_cap - 1; i > 0; --i) {
    fresh[i] = std::max(fresh[2 * i], fresh[2 * i + 1]);
  }
  cap_ = new_cap;
  tree_ = std::move(fresh);
}

void MaxSegTree::Append(std::int64_t value) {
  if (size_ == cap_) Grow();
  ++size_;
  Assign(size_ - 1, value);
}

void MaxSegTree::Assign(std::size_t pos, std::int64_t value) {
  std::size_t i = cap_ + pos;
  tree_[i] = value;
  for (i /= 2; i >= 1; i /= 2) {
    tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
  }
}

std::int64_t MaxSegTree::Value(std::size_t pos) const {
  return tree_[cap_ + pos];
}

std::size_t MaxSegTree::FirstAtLeast(std::size_t from,
                                     std::int64_t threshold) const {
  if (from >= size_) return npos;
  return Descend(1, 0, cap_, from, threshold);
}

std::size_t MaxSegTree::Descend(std::size_t cell, std::size_t lo,
                                std::size_t hi, std::size_t from,
                                std::int64_t threshold) const {
  // Padding leaves past size_ hold kNegInf, so they can never match.
  if (hi <= from || tree_[cell] < threshold) return npos;
  if (hi - lo == 1) return lo;
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::size_t left = Descend(2 * cell, lo, mid, from, threshold);
  if (left != npos) return left;
  return Descend(2 * cell + 1, mid, hi, from, threshold);
}

}  // namespace dreamsim::resource
