// Contiguous-placement fabric model (extension).
//
// The paper treats a node's reconfigurable area as a scalar: a
// configuration fits iff ReqArea <= AvailableArea (Eq. 4). On real devices
// a partial bitstream occupies a *contiguous* region (column range), so a
// node can refuse a configuration even though the total free area would
// suffice — external fragmentation. This allocator models the fabric as a
// one-dimensional strip of area units with first/best/worst-fit placement
// and coalescing frees, enabling the fragmentation ablation bench.
//
// Node integrates it optionally (NodeGenParams::contiguous_placement);
// when disabled the simulator reproduces the paper's scalar model exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace dreamsim::analysis {
class StructureAuditor;    // correctness tooling (src/analysis); read-only
class StructureCorruptor;  // test-only seeded-corruption injector
}  // namespace dreamsim::analysis

namespace dreamsim::resource {

/// A contiguous region of fabric: [offset, offset + size).
struct Extent {
  Area offset = 0;
  Area size = 0;

  [[nodiscard]] Area end() const { return offset + size; }
  friend constexpr bool operator==(const Extent&, const Extent&) = default;
};

/// Placement heuristic for choosing among free holes.
enum class Placement : std::uint8_t {
  kFirstFit,  // lowest-offset hole that fits
  kBestFit,   // smallest hole that fits (minimizes leftover slivers)
  kWorstFit,  // largest hole (keeps big holes big... or splinters them)
};

[[nodiscard]] std::string_view ToString(Placement placement);

/// One-dimensional extent allocator over [0, total).
class FabricLayout {
 public:
  explicit FabricLayout(Area total);

  /// Carves a region of `size` units from a free hole chosen by
  /// `placement`. Returns nullopt when no single hole is large enough —
  /// even if the total free area would suffice (fragmentation).
  [[nodiscard]] std::optional<Extent> Allocate(Area size, Placement placement);

  /// Returns a region to the free list, coalescing with neighbours.
  /// Throws std::logic_error if it overlaps existing free space.
  void Free(const Extent& extent);

  /// True when some single hole can host `size` units.
  [[nodiscard]] bool CanAllocate(Area size) const;

  /// True when a hole of `size` units would exist after additionally
  /// freeing `pending` (used by Algorithm 1 under contiguity: "would
  /// reclaiming these idle regions make the new configuration fit?").
  [[nodiscard]] bool CanAllocateAfterFreeing(std::span<const Extent> pending,
                                             Area size) const;

  [[nodiscard]] Area total() const { return total_; }
  [[nodiscard]] Area free_area() const;
  [[nodiscard]] Area largest_free_extent() const;

  /// External fragmentation in [0, 1]: 1 - largest_hole / free_area
  /// (0 when free space is one hole or the fabric is full).
  [[nodiscard]] double FragmentationIndex() const;

  /// Number of disjoint free holes.
  [[nodiscard]] std::size_t hole_count() const { return free_.size(); }

  /// Resets to a fully free fabric.
  void Reset();

  /// Structural validation (holes sorted, disjoint, within bounds);
  /// empty result means consistent.
  [[nodiscard]] std::vector<std::string> Validate() const;

 private:
  // The auditor checks the holes against the node's live extents
  // ("fabric.layout"); the corruptor breaks them on purpose in tests.
  friend class ::dreamsim::analysis::StructureAuditor;
  friend class ::dreamsim::analysis::StructureCorruptor;

  Area total_;
  std::vector<Extent> free_;  // sorted by offset, pairwise disjoint
};

}  // namespace dreamsim::resource
