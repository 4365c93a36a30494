#include "resource/entry_list.hpp"

namespace dreamsim::resource {

namespace {

/// splitmix64 finalizer. Packed EntryRefs are (node << 32) | slot with
/// dense node ids and tiny slot indexes, so an identity hash would pile
/// every key onto the first few probe slots; this spreads them.
constexpr std::uint64_t MixKey(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Table grows before use exceeds 11/16 of capacity.
constexpr bool OverLoaded(std::size_t used, std::size_t capacity) {
  return used * 16 > capacity * 11;
}

}  // namespace

std::size_t EntryList::ProbeStart(std::uint64_t key) const {
  return static_cast<std::size_t>(MixKey(key)) & (table_.size() - 1);
}

std::size_t EntryList::FindSlot(std::uint64_t key) const {
  if (table_.empty()) return 0;  // == table_.size(): absent
  const std::size_t mask = table_.size() - 1;
  std::size_t i = ProbeStart(key);
  while (table_[i].key != PosSlot::kEmptyKey) {
    if (table_[i].key == key) return i;
    i = (i + 1) & mask;
  }
  return table_.size();
}

EntryList::PosSlot& EntryList::InsertSlot(std::uint64_t key) {
  if (table_.empty()) {
    Rehash(16);
  } else if (OverLoaded(table_used_ + 1, table_.size())) {
    Rehash(table_.size() * 2);
  }
  const std::size_t mask = table_.size() - 1;
  std::size_t i = ProbeStart(key);
  while (table_[i].key != PosSlot::kEmptyKey && table_[i].key != key) {
    i = (i + 1) & mask;
  }
  if (table_[i].key == PosSlot::kEmptyKey) {
    table_[i].key = key;
    ++table_used_;
  }
  return table_[i];
}

void EntryList::EraseSlot(std::size_t index) {
  // Backward-shift deletion: pull displaced probe-chain members into the
  // hole so lookups never need tombstones.
  const std::size_t mask = table_.size() - 1;
  std::size_t i = index;
  std::size_t j = index;
  while (true) {
    j = (j + 1) & mask;
    if (table_[j].key == PosSlot::kEmptyKey) break;
    const std::size_t ideal = ProbeStart(table_[j].key);
    // Leave the element where it is only when its ideal slot lies
    // cyclically within (i, j] — moving it to i would break its chain.
    const bool reaches_past_hole = i <= j ? (ideal > i && ideal <= j)
                                          : (ideal > i || ideal <= j);
    if (!reaches_past_hole) {
      table_[i] = table_[j];
      i = j;
    }
  }
  table_[i].key = PosSlot::kEmptyKey;
  --table_used_;
}

void EntryList::Rehash(std::size_t capacity) {
  std::vector<PosSlot> old = std::move(table_);
  table_.assign(capacity, PosSlot{});
  const std::size_t mask = capacity - 1;
  for (const PosSlot& slot : old) {
    if (slot.key == PosSlot::kEmptyKey) continue;
    std::size_t i = ProbeStart(slot.key);
    while (table_[i].key != PosSlot::kEmptyKey) i = (i + 1) & mask;
    table_[i] = slot;
  }
}

void EntryList::Reserve(std::size_t n) {
  cells_.reserve(n);
  std::size_t capacity = 16;
  while (OverLoaded(n, capacity)) capacity *= 2;
  if (capacity > table_.size()) Rehash(capacity);
}

void EntryList::Add(EntryRef entry, WorkloadMeter& meter) {
  meter.Add(StepKind::kHousekeeping);
  InsertSlot(PackEntryRef(entry)).pos =
      static_cast<std::uint32_t>(cells_.size());
  cells_.push_back(entry);
}

bool EntryList::Remove(EntryRef entry, WorkloadMeter& meter) {
  const std::uint64_t key = PackEntryRef(entry);
  const std::size_t found = FindSlot(key);
  if (found == table_.size()) {
    // The counted search would have walked the whole list before giving up.
    meter.Add(StepKind::kHousekeeping, cells_.size());
    return false;
  }
  const std::size_t pos = table_[found].pos;
  // The counted search visits pos + 1 cells to find the entry.
  meter.Add(StepKind::kHousekeeping, pos + 1);
  const EntryRef moved = cells_.back();
  cells_[pos] = moved;
  cells_.pop_back();
  if (pos < cells_.size()) {  // moved != entry
    table_[FindSlot(PackEntryRef(moved))].pos = static_cast<std::uint32_t>(pos);
  }
  EraseSlot(found);
  return true;
}

bool EntryList::Contains(EntryRef entry, WorkloadMeter& meter,
                         StepKind kind) const {
  for (const EntryRef& e : cells_) {
    meter.Add(kind);
    if (e == entry) return true;
  }
  return false;
}

bool EntryList::PositionsConsistent() const {
  if (table_used_ != cells_.size()) return false;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const std::size_t slot = FindSlot(PackEntryRef(cells_[i]));
    if (slot == table_.size() || table_[slot].pos != i) return false;
  }
  return true;
}

}  // namespace dreamsim::resource
