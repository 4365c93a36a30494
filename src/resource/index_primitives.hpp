// Primitives shared by the indexed fast paths (StoreIndex, SusQueueIndex,
// SuspensionQueue). The trees are append-only over dense positions
// [0, size) — removal is modeled by assigning a neutral value (0 for sums
// and counts, kNegInf for maxima). AreaBucketSet is the ordered (area, id)
// key set behind StoreIndex's tightest-fit walks.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "util/run_vector.hpp"

namespace dreamsim::analysis {
class StructureAuditor;    // correctness tooling (src/analysis); read-only
class StructureCorruptor;  // test-only seeded-corruption injector
}  // namespace dreamsim::analysis

namespace dreamsim::resource {

/// (area, id), ordered by area and then id: lower_bound on {area, 0}
/// lands on the tightest fit with the smallest id.
struct AreaKey {
  std::int64_t area = 0;
  std::uint32_t id = 0;

  friend constexpr auto operator<=>(const AreaKey&, const AreaKey&) = default;
};

/// Ordered set of AreaKeys, laid out flat: keys are bucketed by
/// area >> shift (a negative area, which only a corrupted node has, shares
/// bucket 0 with the smallest areas), each non-empty bucket a run sorted by
/// (area, id) inside one shared pool (no heap node per key). The shift is
/// the smallest that maps the covered range [0, max area] onto at most
/// kMaxBuckets buckets (0 while every area is below 4096). A two-level
/// bitmap marks the non-empty buckets: a bucket's bit in its 64-bucket
/// word gives, by popcount, its slot in that word's bucket directory, and
/// the summary word's bits (one per non-empty word) give the successor and
/// predecessor words an iterator steps to. Iterators are invalidated by
/// any insert or erase.
class AreaBucketSet {
 public:
  static constexpr std::size_t kWordBits = 64;
  static constexpr std::size_t kWords = 64;
  static constexpr std::size_t kMaxBuckets = kWords * kWordBits;

  class Iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = AreaKey;
    using difference_type = std::ptrdiff_t;
    using pointer = const AreaKey*;
    using reference = const AreaKey&;

    Iterator() = default;
    [[nodiscard]] reference operator*() const {
      return set_->pool_[set_->dirs_[word_][slot_].begin + pos_];
    }
    [[nodiscard]] pointer operator->() const { return &**this; }
    Iterator& operator++();
    Iterator& operator--();
    Iterator operator++(int) {
      Iterator was = *this;
      ++*this;
      return was;
    }
    Iterator operator--(int) {
      Iterator was = *this;
      --*this;
      return was;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.word_ == b.word_ && a.slot_ == b.slot_ && a.pos_ == b.pos_;
    }

   private:
    friend class AreaBucketSet;
    Iterator(const AreaBucketSet* set, std::size_t word, std::size_t slot,
             std::uint32_t pos)
        : set_(set), word_(word), slot_(slot), pos_(pos) {}

    const AreaBucketSet* set_ = nullptr;
    std::size_t word_ = kWords;  // kWords = end()
    std::size_t slot_ = 0;       // bucket within the word's directory
    std::uint32_t pos_ = 0;      // key within the bucket
  };
  using iterator = Iterator;
  using const_iterator = Iterator;

  /// Widens the key range to [0, max_area]. Keys are kept; when the range
  /// needs a coarser shift the buckets are rebuilt (O(size), at most once
  /// per doubling of the range past 4096).
  void Cover(std::int64_t max_area);
  [[nodiscard]] int shift() const { return shift_; }

  /// Inserts `key` (the range widens to cover it). Returns false when the
  /// key is already present.
  bool insert(const AreaKey& key);
  /// Removes `key`; false when absent.
  bool erase(const AreaKey& key);

  /// Queues `key` for the next Commit(). Staged keys are invisible to
  /// every query until then.
  void Stage(const AreaKey& key) { staged_.push_back(key); }
  /// Inserts the staged keys. A batch that is large next to the set is
  /// merged in one pass that lays the pool out afresh, each bucket with no
  /// spare room, which costs less time and memory than growing buckets
  /// key by key while building a population.
  void Commit();

  /// First key not less than `key` (end() when none).
  [[nodiscard]] Iterator lower_bound(const AreaKey& key) const;
  [[nodiscard]] Iterator begin() const {
    return size_ == 0 ? end() : Iterator(this, NextWord(0), 0, 0);
  }
  [[nodiscard]] Iterator end() const { return Iterator(this, kWords, 0, 0); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  /// One non-empty bucket: keys pool_[begin, begin + size), room for cap.
  struct Bucket {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  /// Where `area`'s bucket sits: its word, bit and directory slot (the
  /// slot it has, or would take, in dirs_[word]).
  struct Place {
    std::size_t word = 0;
    std::uint64_t bit = 0;
    std::size_t slot = 0;
  };
  [[nodiscard]] std::uint64_t BucketOf(std::int64_t area) const;
  [[nodiscard]] Place Locate(std::int64_t area) const;
  /// First non-empty word >= `from` (kWords when none).
  [[nodiscard]] std::size_t NextWord(std::size_t from) const;
  /// Last non-empty word < `before`; one must exist.
  [[nodiscard]] std::size_t PrevWord(std::size_t before) const;
  /// Doubles `bucket`'s room, in place when it ends the pool, else by
  /// moving it to the pool's end (its old run becomes garbage).
  void Grow(Bucket& bucket);
  /// Turns `bucket`'s run into garbage (a one-cell run into a spare).
  void Discard(const Bucket& bucket);
  /// Rewrites the pool bucket by bucket once garbage passes half of it.
  void MaybeCompact();
  /// Replaces the contents with `keys` (ascending, distinct), each
  /// bucket's run exactly its size.
  void AssignSorted(const std::vector<AreaKey>& keys);

  int shift_ = 0;
  std::int64_t max_area_ = -1;  // covered range [0, max_area_]
  std::uint64_t summary_ = 0;   // bit w: words_[w] != 0
  std::array<std::uint64_t, kWords> words_{};  // bit per non-empty bucket
  std::array<std::vector<Bucket>, kWords> dirs_;  // non-empty buckets of
                                                  // each word, ascending
  std::vector<AreaKey> pool_;
  std::size_t size_ = 0;
  std::size_t garbage_ = 0;  // pool cells no bucket owns
  // Runs of one cell among the garbage, which a new bucket takes before
  // growing the pool: the churn of single-key buckets reuses its cells.
  std::vector<std::uint32_t> spare_;
  std::vector<AreaKey> staged_;  // awaiting Commit()
};

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
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  std::vector<std::int64_t> values_;  // current point values
  std::vector<std::int64_t> tree_;    // 1-based Fenwick array
};

/// Append-only bitset with rank queries: the bits themselves, one per
/// position, and a Fenwick tree over the set-bit count of each 64-bit word
/// (4 bytes per 64 positions), so a rank reads O(log(n / 64)) word counts
/// and one word. NextSet() steps to the next set bit by bit scan.
class CountTree {
 public:
  static constexpr std::size_t kWordBits = 64;

  /// Appends one position holding `bit`.
  void Append(bool bit);
  /// Sets (Clear: clears) the bit at `pos`; a no-op when it already is.
  void Set(std::size_t pos);
  void Clear(std::size_t pos);
  /// Set bits among the first `count` positions.
  [[nodiscard]] std::size_t Prefix(std::size_t count) const;
  /// The first set position at or after `from`, or size() when none.
  [[nodiscard]] std::size_t NextSet(std::size_t from) const;
  [[nodiscard]] std::size_t Total() const { return total_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Pre-reserves room for `positions` positions.
  void Reserve(std::size_t positions);

 private:
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  /// Adds `delta` to the count of word `word`.
  void AddToWord(std::size_t word, std::int32_t delta);

  RunVector<std::uint64_t> words_;   // bit p % 64 of word p / 64
  RunVector<std::uint32_t> counts_;  // 1-based Fenwick array over the
                                     // words' set-bit counts
  std::size_t size_ = 0;
  std::size_t total_ = 0;
};

/// Append-only max tree with a "first position >= threshold" search — the
/// ordered-scan primitive behind the O(log N) queries. It is wide and
/// flat: level 0 holds the leaves, and cell c of level k + 1 holds the max
/// of cells [kFanout * c, kFanout * (c + 1)) of level k, one cache line of
/// values. Every level is padded with kNegInf to whole groups of kFanout
/// cells and grows by whole groups (its vector doubling its capacity), and
/// the top level is one group whose max is not stored, so n leaves carry
/// about n / 7 summary cells.
class MaxSegTree {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr std::int64_t kNegInf =
      std::numeric_limits<std::int64_t>::min();
  static constexpr std::size_t kFanout = 8;

  /// Appends one leaf. Appending kNegInf changes no summary cell, so it
  /// touches none.
  void Append(std::int64_t value);
  /// Pre-reserves every level for `leaves` leaves, the levels a later
  /// append creates included, so the tree grows to that size without
  /// copying a level.
  void Reserve(std::size_t leaves);
  /// Sets leaf `pos` and its ancestors, stopping at the first whose max
  /// does not change.
  void Assign(std::size_t pos, std::int64_t value);
  [[nodiscard]] std::int64_t Value(std::size_t pos) const {
    return levels_[0][pos];
  }
  /// Smallest position >= `from` whose value >= `threshold` (npos when
  /// none). `threshold` must exceed kNegInf. Throws std::logic_error when
  /// a summary cell exceeds the max of its group (a corrupted tree).
  [[nodiscard]] std::size_t FirstAtLeast(std::size_t from,
                                         std::int64_t threshold) const;
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  /// Adds one group of kNegInf leaves, and a group to each level above
  /// that needs a cell for it (a new top level when the old top outgrows
  /// one group).
  void AddGroup();
  /// Reserves level `k` for reserved_ leaves.
  void ReserveLevel(std::size_t k);

  std::size_t size_ = 0;
  std::size_t reserved_ = 0;  // leaves Reserve() made room for
  std::vector<RunVector<std::int64_t>> levels_;  // [0] = leaves
};

}  // namespace dreamsim::resource
