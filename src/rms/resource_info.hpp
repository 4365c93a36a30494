// Resource information manager (information subsystem, Sec. III).
//
// "The resource information manager maintains all sorts of information
// about the nodes ... static and dynamic information." The dynamic data
// structures themselves live in resource::ResourceStore; this manager layers
// the query/snapshot surface other modules consume: per-node state reports
// for the monitoring module and aggregate utilization for load balancing.
#pragma once

#include <cstdint>
#include <vector>

#include "resource/store.hpp"
#include "util/types.hpp"

namespace dreamsim::rms {

/// Static node facts (fixed for a simulation).
struct NodeStaticInfo {
  NodeId id;
  Area total_area = 0;
  FamilyId family;
  resource::Caps caps;
  Tick network_delay = 0;
};

/// Dynamic node state ("current set of processor configurations, the state
/// (currently idle or busy), number of currently running tasks, available
/// reconfigurable area").
struct NodeDynamicInfo {
  NodeId id;
  Area available_area = 0;
  std::size_t config_count = 0;
  std::size_t running_tasks = 0;
  bool busy = false;
  std::uint64_t reconfig_count = 0;
};

/// Aggregate system state at one instant.
struct SystemSnapshot {
  Tick at = 0;
  std::size_t total_nodes = 0;
  std::size_t blank_nodes = 0;
  std::size_t busy_nodes = 0;
  std::size_t running_tasks = 0;
  Area total_fabric_area = 0;
  Area configured_area = 0;   // area occupied by live configurations
  Area wasted_area = 0;       // Eq. 6
  double area_utilization = 0.0;  // configured / total fabric
};

/// Read-only query surface over the store.
class ResourceInformationManager {
 public:
  explicit ResourceInformationManager(const resource::ResourceStore& store)
      : store_(store) {}

  [[nodiscard]] NodeStaticInfo StaticInfo(NodeId id) const;
  [[nodiscard]] NodeDynamicInfo DynamicInfo(NodeId id) const;
  [[nodiscard]] std::vector<NodeDynamicInfo> AllDynamicInfo() const;

  /// Aggregates the whole system at tick `now`. O(1): reads the store's
  /// FleetTotals. `blank_nodes` counts failed nodes too (a failed node
  /// holds no configuration), so it equals blank_node_count() +
  /// failed_node_count().
  [[nodiscard]] SystemSnapshot Snapshot(Tick now) const;

  [[nodiscard]] const resource::ResourceStore& store() const { return store_; }

 private:
  const resource::ResourceStore& store_;
};

}  // namespace dreamsim::rms
