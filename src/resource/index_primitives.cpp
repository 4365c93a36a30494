#include "resource/index_primitives.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dreamsim::resource {

namespace {

constexpr std::size_t LowBit(std::size_t i) { return i & (~i + 1); }

// Set bits of `x`. Without -mpopcnt (the baseline x86-64 target)
// std::popcount is a libgcc call; this SWAR sum stays inline.
constexpr std::size_t PopCount(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
}

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
  if (size_ % kWordBits == 0) {
    // Same seeding as PrefixSumTree::Append: the fresh trailing cell covers
    // words (i - lowbit(i), i], whose earlier part is the sum of the cells
    // that hop into it (the new word is still empty).
    words_.push_back(0);
    const std::size_t i = words_.size();
    std::uint32_t covered = 0;
    for (std::size_t j = i - 1; j > i - LowBit(i); j -= LowBit(j)) {
      covered += counts_[j - 1];
    }
    counts_.push_back(covered);
  }
  ++size_;
  if (bit) Set(size_ - 1);
}

void CountTree::AddToWord(std::size_t word, std::int32_t delta) {
  for (std::size_t j = word + 1; j <= counts_.size(); j += LowBit(j)) {
    counts_[j - 1] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(counts_[j - 1]) + delta);
  }
}

void CountTree::Set(std::size_t pos) {
  const std::uint64_t bit = std::uint64_t{1} << (pos % kWordBits);
  std::uint64_t& word = words_[pos / kWordBits];
  if ((word & bit) != 0) return;
  word |= bit;
  AddToWord(pos / kWordBits, 1);
  ++total_;
}

void CountTree::Clear(std::size_t pos) {
  const std::uint64_t bit = std::uint64_t{1} << (pos % kWordBits);
  std::uint64_t& word = words_[pos / kWordBits];
  if ((word & bit) == 0) return;
  word &= ~bit;
  AddToWord(pos / kWordBits, -1);
  --total_;
}

std::size_t CountTree::Prefix(std::size_t count) const {
  const std::size_t whole = count / kWordBits;
  std::size_t sum = 0;
  for (std::size_t j = whole; j > 0; j -= LowBit(j)) sum += counts_[j - 1];
  if (const std::size_t rest = count % kWordBits; rest != 0) {
    sum += PopCount(words_[whole] & ((std::uint64_t{1} << rest) - 1));
  }
  return sum;
}

std::size_t CountTree::NextSet(std::size_t from) const {
  if (from >= size_) return size_;
  std::size_t w = from / kWordBits;
  // No bit at or past size_ is ever set.
  std::uint64_t word = words_[w] & (~std::uint64_t{0} << (from % kWordBits));
  while (word == 0) {
    if (++w == words_.size()) return size_;
    word = words_[w];
  }
  return w * kWordBits + static_cast<std::size_t>(std::countr_zero(word));
}

void CountTree::Reserve(std::size_t positions) {
  const std::size_t words = (positions + kWordBits - 1) / kWordBits;
  words_.reserve(words);
  counts_.reserve(words);
}

// --- MaxSegTree ---

namespace {

using Group = const std::int64_t*;  // kFanout consecutive cells

std::int64_t GroupMax(Group group) {
  std::int64_t max = group[0];
  for (std::size_t t = 1; t < MaxSegTree::kFanout; ++t) {
    max = std::max(max, group[t]);
  }
  return max;
}

// Bit t set when group[t] >= threshold.
unsigned GroupHits(Group group, std::int64_t threshold) {
  unsigned hits = 0;
  for (unsigned t = 0; t < MaxSegTree::kFanout; ++t) {
    hits |= static_cast<unsigned>(group[t] >= threshold) << t;
  }
  return hits;
}

}  // namespace

void MaxSegTree::Reserve(std::size_t leaves) {
  reserved_ = std::max(reserved_, leaves);
  for (std::size_t k = 0; k < levels_.size(); ++k) ReserveLevel(k);
}

void MaxSegTree::ReserveLevel(std::size_t k) {
  // Level k of n leaves holds ceil(n / kFanout^k) cells, padded to whole
  // groups.
  std::size_t cells = reserved_;
  for (std::size_t level = 0; level < k; ++level) {
    cells = (cells + kFanout - 1) / kFanout;
  }
  levels_[k].reserve((cells + kFanout - 1) / kFanout * kFanout);
}

void MaxSegTree::AddGroup() {
  if (levels_.empty()) {
    levels_.emplace_back();
    ReserveLevel(0);
  }
  for (std::size_t k = 0;; ++k) {
    RunVector<std::int64_t>& level = levels_[k];
    level.resize(level.size() + kFanout, kNegInf);
    const std::size_t groups = level.size() / kFanout;
    if (groups == 1) return;  // the first group: level k is the top
    if (k + 1 == levels_.size()) {
      // The top outgrew one group: a new top summarizes its two groups.
      RunVector<std::int64_t> top(kFanout, kNegInf);
      top[0] = GroupMax(level.data());
      levels_.push_back(std::move(top));
      ReserveLevel(k + 1);
      return;
    }
    if (levels_[k + 1].size() >= groups) return;  // the cell is padding
  }
}

void MaxSegTree::Append(std::int64_t value) {
  if (levels_.empty() || size_ == levels_[0].size()) AddGroup();
  const std::size_t pos = size_++;
  if (value != kNegInf) Assign(pos, value);
}

void MaxSegTree::Assign(std::size_t pos, std::int64_t value) {
  levels_[0][pos] = value;
  for (std::size_t k = 0; k + 1 < levels_.size(); ++k) {
    const std::size_t parent = pos / kFanout;
    const std::int64_t max = GroupMax(levels_[k].data() + parent * kFanout);
    std::int64_t& cell = levels_[k + 1][parent];
    if (cell == max) return;
    cell = max;
    pos = parent;
  }
}

std::size_t MaxSegTree::FirstAtLeast(std::size_t from,
                                     std::int64_t threshold) const {
  if (from >= size_) return npos;
  // The top group summarizes every position: without a hit there, no
  // position has one, and the climb would end at the top with a miss.
  if (GroupHits(levels_.back().data(), threshold) == 0) return npos;
  std::size_t k = 0;
  std::size_t pos = from;
  // Up: the first hit at or after `pos` in its group; while the rest of
  // the group has none, on to the next cell of the level above. Padding
  // holds kNegInf, which no threshold reaches.
  for (;;) {
    const RunVector<std::int64_t>& level = levels_[k];
    if (pos < level.size()) {
      const std::size_t start = pos - pos % kFanout;
      const auto skip = static_cast<unsigned>(pos - start);
      const unsigned hits =
          GroupHits(level.data() + start, threshold) >> skip << skip;
      if (hits != 0) {
        pos = start + static_cast<std::size_t>(std::countr_zero(hits));
        break;
      }
    }
    if (k + 1 == levels_.size()) return npos;
    pos = pos / kFanout + 1;
    ++k;
  }
  // Down: the first hit in each group below. A summary cell is its
  // group's max, so the group it points into has a hit.
  for (; k > 0; --k) {
    const unsigned hits =
        GroupHits(levels_[k - 1].data() + pos * kFanout, threshold);
    if (hits == 0) {
      throw std::logic_error("MaxSegTree: a summary cell exceeds its group");
    }
    pos = pos * kFanout + static_cast<std::size_t>(std::countr_zero(hits));
  }
  return pos;
}

// --- AreaBucketSet ---

namespace {

// log2(AreaBucketSet::kMaxBuckets): areas of this many bits need no shift.
constexpr int kBucketBits = std::countr_zero(AreaBucketSet::kMaxBuckets);

}  // namespace

AreaBucketSet::Iterator& AreaBucketSet::Iterator::operator++() {
  const std::vector<Bucket>& dir = set_->dirs_[word_];
  if (++pos_ < dir[slot_].size) return *this;
  pos_ = 0;
  if (++slot_ < dir.size()) return *this;
  slot_ = 0;
  word_ = set_->NextWord(word_ + 1);
  return *this;
}

AreaBucketSet::Iterator& AreaBucketSet::Iterator::operator--() {
  if (pos_ > 0) {
    --pos_;
    return *this;
  }
  if (slot_ == 0) {  // first bucket of its word, or end()
    word_ = set_->PrevWord(word_);
    slot_ = set_->dirs_[word_].size();
  }
  --slot_;
  pos_ = set_->dirs_[word_][slot_].size - 1;
  return *this;
}

void AreaBucketSet::Cover(std::int64_t max_area) {
  if (max_area <= max_area_) return;
  max_area_ = max_area;
  const int width =
      static_cast<int>(std::bit_width(static_cast<std::uint64_t>(max_area)));
  const int shift = std::max(0, width - kBucketBits);
  if (shift == shift_) return;
  const std::vector<AreaKey> keys(begin(), end());
  shift_ = shift;
  AssignSorted(keys);
}

void AreaBucketSet::Commit() {
  if (staged_.empty()) return;
  std::sort(staged_.begin(), staged_.end());
  Cover(staged_.back().area);
  if (staged_.size() * 8 < size_) {
    for (const AreaKey& key : staged_) insert(key);
  } else {
    std::vector<AreaKey> keys;
    keys.reserve(size_ + staged_.size());
    std::merge(begin(), end(), staged_.begin(), staged_.end(),
               std::back_inserter(keys));
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    AssignSorted(keys);
  }
  staged_ = {};
}

void AreaBucketSet::AssignSorted(const std::vector<AreaKey>& keys) {
  summary_ = 0;
  words_.fill(0);
  for (std::vector<Bucket>& dir : dirs_) dir.clear();
  pool_.assign(keys.begin(), keys.end());
  size_ = keys.size();
  garbage_ = 0;
  spare_.clear();
  // One pass over the ascending keys: each starts a bucket or extends the
  // one just opened.
  std::uint64_t open = kMaxBuckets;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t bucket = BucketOf(keys[i].area);
    const auto word = static_cast<std::size_t>(bucket / kWordBits);
    if (bucket != open) {
      dirs_[word].push_back(Bucket{static_cast<std::uint32_t>(i), 0, 0});
      words_[word] |= std::uint64_t{1} << (bucket % kWordBits);
      summary_ |= std::uint64_t{1} << word;
      open = bucket;
    }
    Bucket& last = dirs_[word].back();
    ++last.size;
    ++last.cap;
  }
}

std::uint64_t AreaBucketSet::BucketOf(std::int64_t area) const {
  return area <= 0 ? 0 : static_cast<std::uint64_t>(area) >> shift_;
}

AreaBucketSet::Place AreaBucketSet::Locate(std::int64_t area) const {
  const std::uint64_t bucket = BucketOf(area);
  Place at;
  at.word = static_cast<std::size_t>(bucket / kWordBits);
  at.bit = std::uint64_t{1} << (bucket % kWordBits);
  at.slot = PopCount(words_[at.word] & (at.bit - 1));
  return at;
}

std::size_t AreaBucketSet::NextWord(std::size_t from) const {
  if (from >= kWords) return kWords;
  const std::uint64_t rest = summary_ & (~std::uint64_t{0} << from);
  return rest == 0 ? kWords : static_cast<std::size_t>(std::countr_zero(rest));
}

std::size_t AreaBucketSet::PrevWord(std::size_t before) const {
  const std::uint64_t below =
      before >= kWords ? summary_
                       : summary_ & ((std::uint64_t{1} << before) - 1);
  return kWords - 1 - static_cast<std::size_t>(std::countl_zero(below));
}

AreaBucketSet::Iterator AreaBucketSet::lower_bound(const AreaKey& key) const {
  if (size_ == 0 || key.area > max_area_) return end();
  const Place at = Locate(key.area);
  std::size_t slot = at.slot;
  if ((words_[at.word] & at.bit) != 0) {
    const Bucket& bucket = dirs_[at.word][slot];
    const AreaKey* first = pool_.data() + bucket.begin;
    const AreaKey* hit = std::lower_bound(first, first + bucket.size, key);
    if (hit != first + bucket.size) {
      return Iterator(this, at.word, slot,
                      static_cast<std::uint32_t>(hit - first));
    }
    ++slot;  // every key of the bucket is smaller: the next bucket starts
  }
  if (slot < dirs_[at.word].size()) return Iterator(this, at.word, slot, 0);
  return Iterator(this, NextWord(at.word + 1), 0, 0);
}

bool AreaBucketSet::insert(const AreaKey& key) {
  Cover(key.area);
  const Place at = Locate(key.area);
  std::vector<Bucket>& dir = dirs_[at.word];
  const auto slot = static_cast<std::ptrdiff_t>(at.slot);
  if ((words_[at.word] & at.bit) == 0) {
    auto begin = static_cast<std::uint32_t>(pool_.size());
    if (spare_.empty()) {
      pool_.push_back(key);
    } else {
      begin = spare_.back();
      spare_.pop_back();
      --garbage_;
      pool_[begin] = key;
    }
    dir.insert(dir.begin() + slot, Bucket{begin, 1, 1});
    words_[at.word] |= at.bit;
    summary_ |= std::uint64_t{1} << at.word;
    ++size_;
    return true;
  }
  Bucket& bucket = dir[at.slot];
  const AreaKey* first = pool_.data() + bucket.begin;
  const AreaKey* hit = std::lower_bound(first, first + bucket.size, key);
  if (hit != first + bucket.size && *hit == key) return false;
  const auto offset = static_cast<std::size_t>(hit - first);
  if (bucket.size == bucket.cap) Grow(bucket);
  AreaKey* run = pool_.data() + bucket.begin;
  std::copy_backward(run + offset, run + bucket.size, run + bucket.size + 1);
  run[offset] = key;
  ++bucket.size;
  ++size_;
  MaybeCompact();
  return true;
}

bool AreaBucketSet::erase(const AreaKey& key) {
  if (key.area > max_area_) return false;
  const Place at = Locate(key.area);
  if ((words_[at.word] & at.bit) == 0) return false;
  std::vector<Bucket>& dir = dirs_[at.word];
  Bucket& bucket = dir[at.slot];
  AreaKey* first = pool_.data() + bucket.begin;
  AreaKey* last = first + bucket.size;
  AreaKey* hit = std::lower_bound(first, last, key);
  if (hit == last || *hit != key) return false;
  std::copy(hit + 1, last, hit);
  --size_;
  if (--bucket.size == 0) {
    Discard(bucket);
    dir.erase(dir.begin() + static_cast<std::ptrdiff_t>(at.slot));
    words_[at.word] &= ~at.bit;
    if (words_[at.word] == 0) summary_ &= ~(std::uint64_t{1} << at.word);
  }
  MaybeCompact();
  return true;
}

void AreaBucketSet::Grow(Bucket& bucket) {
  const std::size_t end = pool_.size();
  if (bucket.begin + bucket.cap == end) {
    pool_.resize(end + bucket.cap);
  } else {
    pool_.resize(end + 2 * std::size_t{bucket.cap});
    std::copy_n(pool_.data() + bucket.begin, bucket.size, pool_.data() + end);
    Discard(bucket);
    bucket.begin = static_cast<std::uint32_t>(end);
  }
  bucket.cap *= 2;
}

void AreaBucketSet::Discard(const Bucket& bucket) {
  garbage_ += bucket.cap;
  if (bucket.cap == 1) spare_.push_back(bucket.begin);
}

void AreaBucketSet::MaybeCompact() {
  if (size_ == 0) {
    pool_.clear();
    garbage_ = 0;
    spare_.clear();
    return;
  }
  if (garbage_ < 64 || 2 * garbage_ <= pool_.size()) return;
  // Each bucket's run shrinks to its keys; a bucket that grows again
  // doubles from there.
  std::vector<AreaKey> fresh(size_);
  std::size_t end = 0;
  for (std::vector<Bucket>& dir : dirs_) {
    for (Bucket& bucket : dir) {
      std::copy_n(pool_.data() + bucket.begin, bucket.size,
                  fresh.data() + end);
      bucket.begin = static_cast<std::uint32_t>(end);
      bucket.cap = bucket.size;
      end += bucket.size;
    }
  }
  pool_.swap(fresh);
  garbage_ = 0;
  spare_.clear();
}

}  // namespace dreamsim::resource
