// AreaBucketSet against a std::set<AreaKey> oracle: every insert, erase,
// staged batch, lower_bound and iterator step must agree, across bucket
// shifts from 0 (areas below 4096) to coarse ones (areas near 2^40). The
// trees (MaxSegTree, CountTree, PrefixSumTree) against a plain vector:
// every query after appends across capacity doublings (and reserved
// capacity) and random point updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <vector>

#include "resource/index_primitives.hpp"
#include "util/rng.hpp"

namespace dreamsim {
namespace {

using resource::AreaBucketSet;
using resource::AreaKey;
using resource::CountTree;
using resource::MaxSegTree;
using resource::PrefixSumTree;

using Oracle = std::set<AreaKey>;

/// Walks both sets front to back and back to front.
void ExpectSameOrder(const AreaBucketSet& set, const Oracle& oracle) {
  ASSERT_EQ(set.size(), oracle.size());
  ASSERT_EQ(set.empty(), oracle.empty());
  const std::vector<AreaKey> forward(set.begin(), set.end());
  ASSERT_EQ(forward, std::vector<AreaKey>(oracle.begin(), oracle.end()));
  std::vector<AreaKey> backward;
  for (auto it = set.end(); it != set.begin();) backward.push_back(*--it);
  ASSERT_EQ(backward, std::vector<AreaKey>(oracle.rbegin(), oracle.rend()));
}

/// lower_bound at `probe`, then a few steps each way from there.
void ExpectSameNeighbourhood(const AreaBucketSet& set, const Oracle& oracle,
                             const AreaKey& probe) {
  auto got = set.lower_bound(probe);
  auto want = oracle.lower_bound(probe);
  ASSERT_EQ(got == set.end(), want == oracle.end())
      << "probe (" << probe.area << ", " << probe.id << ")";
  if (want != oracle.end()) {
    ASSERT_EQ(*got, *want);
    auto up = got;
    auto up_want = want;
    for (int k = 0; k < 3 && ++up_want != oracle.end(); ++k) {
      ASSERT_EQ(*++up, *up_want);
    }
  }
  for (int k = 0; k < 3 && want != oracle.begin(); ++k) {
    ASSERT_EQ(*--got, *--want);
  }
  if (!oracle.empty()) {
    ASSERT_EQ(*std::prev(set.end()), *std::prev(oracle.end()));
  }
}

struct FuzzCase {
  std::uint64_t seed = 0;
  std::int64_t min_area = 0;
  std::int64_t max_area = 0;
  std::uint32_t max_id = 0;
};

void PrintTo(const FuzzCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " areas=[" << c.min_area << ", " << c.max_area
      << "] ids<=" << c.max_id;
}

class AreaBucketSetFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(AreaBucketSetFuzz, MatchesOrderedSetOracle) {
  const FuzzCase c = GetParam();
  Rng rng(c.seed);
  AreaBucketSet set;
  Oracle oracle;
  // Areas on bitmap word edges (buckets 63/64 and the last bucket at
  // shift 0, the first past it) and the range ends, where in range; the
  // rest uniform in [min_area, max_area].
  std::vector<std::int64_t> edges = {c.min_area, c.max_area};
  for (const std::int64_t edge : {63, 64, 4095, 4096}) {
    if (c.min_area <= edge && edge <= c.max_area) edges.push_back(edge);
  }
  const auto random_key = [&] {
    std::int64_t area = rng.uniform_int(c.min_area, c.max_area);
    if (rng.uniform_int(0, 4) == 0) {
      area = edges[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(edges.size()) - 1))];
    }
    return AreaKey{area, static_cast<std::uint32_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(c.max_id)))};
  };
  for (int op = 0; op < 4000; ++op) {
    const AreaKey key = random_key();
    const std::int64_t pick = rng.uniform_int(0, 10);
    if (pick == 10) {
      // A staged batch, small (key-by-key inserts) or large next to the
      // set (one merge pass), duplicates included. Large batches only
      // while the set is small, so erases keep its size bounded.
      const auto size = static_cast<std::int64_t>(set.size());
      const std::int64_t count =
          rng.uniform_int(0, 1) == 0 && size < 500
              ? rng.uniform_int(size / 8 + 1, size / 4 + 8)
              : rng.uniform_int(1, 4);
      for (std::int64_t k = 0; k < count; ++k) {
        const AreaKey staged = k == 0 ? key : random_key();
        set.Stage(staged);
        oracle.insert(staged);
      }
      set.Commit();
      ExpectSameOrder(set, oracle);
    } else if (pick < 5) {
      ASSERT_EQ(set.insert(key), oracle.insert(key).second) << "op " << op;
    } else if (pick < 8) {
      // Half the erases target a present key, the rest are usually absent.
      AreaKey victim = key;
      if (!oracle.empty() && rng.uniform_int(0, 1) == 0) {
        auto it = oracle.lower_bound(key);
        if (it == oracle.end()) it = oracle.begin();
        victim = *it;
      }
      ASSERT_EQ(set.erase(victim), oracle.erase(victim) == 1) << "op " << op;
    } else {
      ExpectSameNeighbourhood(set, oracle, key);
      ExpectSameNeighbourhood(set, oracle, {key.area, 0});
    }
    if (HasFatalFailure()) return;
    if (op % 500 == 0) ExpectSameOrder(set, oracle);
    if (HasFatalFailure()) return;
  }
  ExpectSameOrder(set, oracle);
  // Drain to empty: the set must come back to a clean begin() == end().
  while (!oracle.empty()) {
    ASSERT_TRUE(set.erase(*oracle.begin()));
    oracle.erase(oracle.begin());
  }
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.begin() == set.end());
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, AreaBucketSetFuzz,
    ::testing::Values(
        // Table II node areas: shift 0, one bucket per area.
        FuzzCase{1, 1000, 4000, 300},
        // Dense ties: few areas, many ids per bucket.
        FuzzCase{2, 60, 70, 5000},
        // Every area below 4096: shift 0 across all 64 words.
        FuzzCase{3, 0, 4095, 200},
        // One past: shift 1, so 4095 and 4096 share a bucket.
        FuzzCase{7, 0, 4096, 200},
        // Coarse buckets around 2^33-2^34.
        FuzzCase{4, std::int64_t{1} << 33, std::int64_t{1} << 34, 500},
        // Areas near 2^40 beside small ones: long runs of empty buckets.
        FuzzCase{5, 0, std::int64_t{1} << 40, 100},
        FuzzCase{6, (std::int64_t{1} << 40) - 4096, std::int64_t{1} << 40,
                 50}));

TEST(AreaBucketSet, ShiftFollowsTheCoveredRange) {
  AreaBucketSet set;
  set.Cover(4000);
  EXPECT_EQ(set.shift(), 0);
  set.Cover(4095);
  EXPECT_EQ(set.shift(), 0);
  set.Cover(4096);
  EXPECT_EQ(set.shift(), 1);
  set.Cover(std::int64_t{1} << 40);
  EXPECT_EQ(set.shift(), 29);
  set.Cover(100);  // never narrows
  EXPECT_EQ(set.shift(), 29);
}

TEST(AreaBucketSet, RebucketingKeepsKeysAndOrder) {
  AreaBucketSet set;
  Oracle oracle;
  for (std::uint32_t id = 0; id < 300; ++id) {
    const AreaKey key{static_cast<std::int64_t>(id % 97) * 41, id};
    set.insert(key);
    oracle.insert(key);
  }
  ASSERT_EQ(set.shift(), 0);
  // A key far past the range forces a coarser shift mid-life.
  const AreaKey far{std::int64_t{1} << 36, 7};
  set.insert(far);
  oracle.insert(far);
  EXPECT_EQ(set.shift(), 25);
  ExpectSameOrder(set, oracle);
  ExpectSameNeighbourhood(set, oracle, {41 * 50, 0});
}

TEST(AreaBucketSet, QueriesOutsideTheRange) {
  AreaBucketSet set;
  EXPECT_TRUE(set.lower_bound({5, 0}) == set.end());
  EXPECT_FALSE(set.erase({5, 0}));
  set.insert({10, 1});
  set.insert({10, 0});
  EXPECT_TRUE(set.lower_bound({11, 0}) == set.end());
  EXPECT_EQ(*set.lower_bound({-3, 0}), (AreaKey{10, 0}));
  EXPECT_FALSE(set.erase({1'000'000, 0}));
  EXPECT_FALSE(set.erase({-1, 0}));
  // A negative area (an over-committed node) sorts first, in bucket 0.
  EXPECT_TRUE(set.insert({-1, 3}));
  EXPECT_EQ(*set.begin(), (AreaKey{-1, 3}));
  EXPECT_EQ(*set.lower_bound({-3, 0}), (AreaKey{-1, 3}));
  EXPECT_EQ(*set.lower_bound({0, 0}), (AreaKey{10, 0}));
  EXPECT_TRUE(set.erase({-1, 3}));
  EXPECT_EQ(set.size(), 2U);
}

// --- Trees against a plain vector -------------------------------------------

// Sizes around the max tree's group width (8) and level boundaries (64,
// 512), where a level is added or a group is padded.
class TreeFuzz : public ::testing::TestWithParam<std::size_t> {};

/// The oracle's FirstAtLeast(from, threshold) for every from, plus from =
/// size (npos).
std::vector<std::size_t> ScanFirstAtLeast(const std::vector<std::int64_t>& v,
                                          std::int64_t threshold) {
  std::vector<std::size_t> first(v.size() + 1, MaxSegTree::npos);
  for (std::size_t i = v.size(); i-- > 0;) {
    first[i] = v[i] >= threshold ? i : first[i + 1];
  }
  return first;
}

void ExpectSameMax(const MaxSegTree& tree, const std::vector<std::int64_t>& v,
                   Rng& rng) {
  ASSERT_EQ(tree.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) ASSERT_EQ(tree.Value(i), v[i]);
  // Thresholds over the value range and just past it, and the smallest
  // legal one (every live leaf matches, no padding does).
  const std::int64_t thresholds[] = {rng.uniform_int(-12, 12),
                                     rng.uniform_int(-12, 12), 11,
                                     MaxSegTree::kNegInf + 1};
  for (const std::int64_t threshold : thresholds) {
    const std::vector<std::size_t> want = ScanFirstAtLeast(v, threshold);
    for (std::size_t from = 0; from <= v.size() + 1; ++from) {
      ASSERT_EQ(tree.FirstAtLeast(from, threshold),
                want[std::min(from, v.size())])
          << "from " << from << " threshold " << threshold;
    }
  }
}

TEST_P(TreeFuzz, MaxSegTreeMatchesVector) {
  const std::size_t size = GetParam();
  Rng rng(101 + size);
  // Few distinct values, so maxima repeat; a quarter kNegInf (removed).
  const auto random_value = [&rng] {
    return rng.uniform_int(0, 3) == 0 ? MaxSegTree::kNegInf
                                      : rng.uniform_int(-10, 10);
  };
  MaxSegTree tree;
  std::vector<std::int64_t> v;
  ExpectSameMax(tree, v, rng);
  for (std::size_t i = 0; i < size; ++i) {
    v.push_back(random_value());
    tree.Append(v.back());
    if (i < 80 || i % 37 == 0) ExpectSameMax(tree, v, rng);
    if (HasFatalFailure()) return;
  }
  ExpectSameMax(tree, v, rng);
  if (size == 0) return;
  for (int op = 0; op < 600; ++op) {
    auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    std::int64_t value = random_value();
    if (op % 3 == 0) {
      // Lower the current max holder: its ancestors must be recomputed
      // from its siblings, not kept.
      pos = static_cast<std::size_t>(
          std::max_element(v.begin(), v.end()) - v.begin());
      value = v[pos] == MaxSegTree::kNegInf ? v[pos] : v[pos] - 1;
    } else if (op % 7 == 0) {
      value = v[pos];  // unchanged
    }
    v[pos] = value;
    tree.Assign(pos, value);
    if (op % 20 == 0 || size <= 65) ExpectSameMax(tree, v, rng);
    if (HasFatalFailure()) return;
  }
  ExpectSameMax(tree, v, rng);
}

// Thresholds above the global max miss from every start (the top group
// answers them); the max itself still hits, as the live max moves down
// and back up.
TEST_P(TreeFuzz, ReservedMaxSegTreeMatchesAGrownOne) {
  // Reserving ahead, for fewer leaves or more, changes no answer.
  const std::size_t size = GetParam();
  Rng rng(404 + size);
  MaxSegTree grown;
  MaxSegTree reserved;
  reserved.Reserve(size % 2 == 0 ? size : size / 2);
  std::vector<std::int64_t> v;
  for (std::size_t i = 0; i < size; ++i) {
    v.push_back(rng.uniform_int(-50, 50));
    grown.Append(v.back());
    reserved.Append(v.back());
    if (i % 5 == 0) reserved.Reserve(size + i);
  }
  ASSERT_EQ(reserved.size(), grown.size());
  for (std::size_t from = 0; from <= size; ++from) {
    for (const std::int64_t threshold : {-50, -10, 0, 25, 50, 51}) {
      ASSERT_EQ(reserved.FirstAtLeast(from, threshold),
                grown.FirstAtLeast(from, threshold))
          << "from " << from << " threshold " << threshold;
    }
  }
}

TEST_P(TreeFuzz, MaxSegTreeMissesAboveTheGlobalMax) {
  const std::size_t size = GetParam();
  Rng rng(404 + size);
  MaxSegTree tree;
  std::vector<std::int64_t> v;
  const auto expect_edges = [&] {
    const std::int64_t max =
        v.empty() ? MaxSegTree::kNegInf : *std::max_element(v.begin(), v.end());
    // With every leaf removed, even the smallest threshold misses.
    const std::int64_t above[] = {max + 1,
                                  std::max<std::int64_t>(max, 0) + 1000,
                                  std::numeric_limits<std::int64_t>::max()};
    for (const std::int64_t threshold : above) {
      for (std::size_t from = 0; from <= v.size() + 1; ++from) {
        ASSERT_EQ(tree.FirstAtLeast(from, threshold), MaxSegTree::npos)
            << "from " << from << " threshold " << threshold;
      }
    }
    if (max == MaxSegTree::kNegInf) return;
    const std::vector<std::size_t> want = ScanFirstAtLeast(v, max);
    for (std::size_t from = 0; from <= v.size() + 1; ++from) {
      ASSERT_EQ(tree.FirstAtLeast(from, max), want[std::min(from, v.size())])
          << "from " << from << " threshold " << max;
    }
  };
  for (std::size_t i = 0; i < size; ++i) {
    v.push_back(rng.uniform_int(0, 4) == 0 ? MaxSegTree::kNegInf
                                           : rng.uniform_int(-10, 10));
    tree.Append(v.back());
  }
  expect_edges();
  if (size == 0) return;
  for (int op = 0; op < 200; ++op) {
    const auto top = static_cast<std::size_t>(
        std::max_element(v.begin(), v.end()) - v.begin());
    // Alternately remove the max holder and raise a random leaf past it.
    std::size_t pos = top;
    std::int64_t value = MaxSegTree::kNegInf;
    if (op % 2 == 1) {
      pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
      value = (v[top] == MaxSegTree::kNegInf ? 0 : v[top]) + 1;
    }
    v[pos] = value;
    tree.Assign(pos, value);
    if (op % 10 == 0 || size <= 65) expect_edges();
    if (HasFatalFailure()) return;
  }
  expect_edges();
}

TEST_P(TreeFuzz, CountTreeMatchesVector) {
  const std::size_t size = GetParam();
  Rng rng(202 + size);
  CountTree tree;
  if (size % 2 == 1) tree.Reserve(size);
  std::vector<bool> bits;
  const auto expect_same = [&] {
    ASSERT_EQ(tree.size(), bits.size());
    std::size_t prefix = 0;
    std::size_t next_set = bits.size();
    for (std::size_t count = bits.size() + 1; count-- > 0;) {
      ASSERT_EQ(tree.NextSet(count), count < bits.size() && bits[count]
                                         ? count
                                         : next_set)
          << "from " << count;
      if (count < bits.size() && bits[count]) next_set = count;
    }
    for (std::size_t count = 0; count <= bits.size(); ++count) {
      ASSERT_EQ(tree.Prefix(count), prefix) << "count " << count;
      if (count < bits.size() && bits[count]) ++prefix;
    }
    ASSERT_EQ(tree.Total(), prefix);
  };
  for (std::size_t i = 0; i < size; ++i) {
    bits.push_back(rng.uniform_int(0, 1) == 1);
    tree.Append(bits.back());
    expect_same();
    if (HasFatalFailure()) return;
  }
  if (size == 0) return;
  for (int op = 0; op < 300; ++op) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    // Setting a set bit and clearing a clear one change nothing.
    const bool set = rng.uniform_int(0, 1) == 1;
    if (set) {
      tree.Set(pos);
    } else {
      tree.Clear(pos);
    }
    bits[pos] = set;
    if (op % 10 == 0) expect_same();
    if (HasFatalFailure()) return;
  }
  expect_same();
}

TEST_P(TreeFuzz, PrefixSumTreeMatchesVector) {
  const std::size_t size = GetParam();
  Rng rng(303 + size);
  PrefixSumTree tree;
  std::vector<std::int64_t> v;
  const auto expect_same = [&] {
    ASSERT_EQ(tree.size(), v.size());
    std::int64_t prefix = 0;
    for (std::size_t count = 0; count <= v.size(); ++count) {
      ASSERT_EQ(tree.Prefix(count), prefix) << "count " << count;
      if (count < v.size()) {
        ASSERT_EQ(tree.Value(count), v[count]);
        prefix += v[count];
      }
    }
    ASSERT_EQ(tree.Total(), prefix);
  };
  for (std::size_t i = 0; i < size; ++i) {
    v.push_back(rng.uniform_int(-50, 50));
    tree.Append(v.back());
    expect_same();
    if (HasFatalFailure()) return;
  }
  if (size == 0) return;
  for (int op = 0; op < 300; ++op) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    v[pos] = op % 5 == 0 ? v[pos] : rng.uniform_int(-50, 50);
    tree.Assign(pos, v[pos]);
    if (op % 10 == 0) expect_same();
    if (HasFatalFailure()) return;
  }
  expect_same();
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeFuzz,
                         ::testing::Values(0, 1, 7, 8, 9, 63, 64, 65, 513));

}  // namespace
}  // namespace dreamsim
