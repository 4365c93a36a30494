// RunVector: small blocks come from operator new, large ones are mappings
// of their own; either way the vector keeps its contents across growth.
#include "util/run_vector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

namespace dreamsim {
namespace {

TEST(RunVector, KeepsContentsAcrossTheMappingThreshold) {
  // Grows from heap blocks into mapped ones and back down by a shrink.
  RunVector<std::uint64_t> v;
  const std::size_t large =
      3 * MappedAllocator<std::uint64_t>::kMappedBytes / sizeof(std::uint64_t);
  for (std::uint64_t i = 0; i < large; ++i) v.push_back(i * 3);
  for (std::uint64_t i = 0; i < large; ++i) ASSERT_EQ(v[i], i * 3);
  v.resize(10);
  v.shrink_to_fit();
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), std::uint64_t{0}), 135u);
}

TEST(RunVector, MappedBlocksValueInitialize) {
  RunVector<std::int64_t> v(MappedAllocator<std::int64_t>::kMappedBytes, -7);
  EXPECT_EQ(v.front(), -7);
  EXPECT_EQ(v.back(), -7);
  RunVector<std::int32_t> zeros(MappedAllocator<std::int32_t>::kMappedBytes);
  EXPECT_EQ(std::accumulate(zeros.begin(), zeros.end(), 0), 0);
}

TEST(RunVector, RejectsAnImpossibleSize) {
  MappedAllocator<std::uint64_t> alloc;
  EXPECT_THROW((void)alloc.allocate(static_cast<std::size_t>(-1) / 4),
               std::bad_array_new_length);
}

}  // namespace
}  // namespace dreamsim
