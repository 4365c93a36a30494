#include "util/run_vector.hpp"

#include <sys/mman.h>

namespace dreamsim::detail {

void* MapBlock(std::size_t bytes) {
  void* block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) throw std::bad_alloc();
  return block;
}

void UnmapBlock(void* block, std::size_t bytes) noexcept {
  (void)munmap(block, bytes);
}

}  // namespace dreamsim::detail
