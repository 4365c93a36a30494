// Storage for the run-sized tables: the arrays with one cell per task or
// per suspension seq, which a saturated run fills to tens of MB and frees
// all at once when its Simulator is destroyed.
//
// Blocks of kMappedBytes and more are anonymous mappings of their own,
// returned to the OS by munmap when freed; smaller blocks come from
// operator new. The reason is the malloc heap of the caller. glibc trims
// the top of its heap back to the OS once the free space there reaches
// twice the largest mapping it has freed, and repeated equal-sized
// requests land in the heap, not in mappings. A run whose tables sat in
// the heap therefore handed the whole heap back when it was destroyed,
// and the next workload the caller generated faulted every page in again
// (about 2.9k minor faults, a third of the setup time, for a 250k-task
// workload; DESIGN.md §4). Out of the heap, the tables leave it holding
// only what the caller keeps reusing.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace dreamsim {

namespace detail {
/// Maps `bytes` of zeroed, private, read-write memory; throws
/// std::bad_alloc when the mapping fails.
[[nodiscard]] void* MapBlock(std::size_t bytes);
/// Unmaps a block MapBlock returned for `bytes`.
void UnmapBlock(void* block, std::size_t bytes) noexcept;
}  // namespace detail

/// Allocator of RunVector: maps large blocks, news small ones.
template <typename T>
class MappedAllocator {
 public:
  using value_type = T;
  /// Blocks at least this large are mappings of their own.
  static constexpr std::size_t kMappedBytes = std::size_t{1} << 20;

  MappedAllocator() = default;
  template <typename U>
  explicit MappedAllocator(const MappedAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMappedBytes) {
      return static_cast<T*>(::operator new(bytes));
    }
    return static_cast<T*>(detail::MapBlock(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMappedBytes) {
      ::operator delete(p);
    } else {
      detail::UnmapBlock(p, bytes);
    }
  }

  template <typename U>
  friend bool operator==(const MappedAllocator& /*a*/,
                         const MappedAllocator<U>& /*b*/) noexcept {
    return true;
  }
};

/// A vector for a run-sized table (see the file comment).
template <typename T>
using RunVector = std::vector<T, MappedAllocator<T>>;

}  // namespace dreamsim
