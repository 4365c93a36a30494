#include "resource/entry_list.hpp"

namespace dreamsim::resource {

std::uint32_t EntryList::Add(EntryRef entry, WorkloadMeter& meter) {
  meter.Add(StepKind::kHousekeeping);
  const auto pos = static_cast<std::uint32_t>(cells_.size());
  cells_.push_back(entry);
  return pos;
}

EntryList::Removal EntryList::Remove(EntryRef entry, std::size_t pos,
                                     WorkloadMeter& meter) {
  if (pos >= cells_.size() || cells_[pos] != entry) {
    // The counted search would have walked the whole list before giving up.
    meter.Add(StepKind::kHousekeeping, cells_.size());
    return {};
  }
  // The counted search visits pos + 1 cells to find the entry.
  meter.Add(StepKind::kHousekeeping, pos + 1);
  Removal removal{true, EntryRef{}};
  if (pos + 1 < cells_.size()) {
    removal.moved = cells_.back();
    cells_[pos] = removal.moved;
  }
  cells_.pop_back();
  return removal;
}

bool EntryList::Contains(EntryRef entry, WorkloadMeter& meter,
                         StepKind kind) const {
  for (const EntryRef& e : cells_) {
    meter.Add(kind);
    if (e == entry) return true;
  }
  return false;
}

}  // namespace dreamsim::resource
