#include "rms/resource_info.hpp"

namespace dreamsim::rms {

NodeStaticInfo ResourceInformationManager::StaticInfo(NodeId id) const {
  const resource::Node& n = store_.node(id);
  return NodeStaticInfo{n.id(), n.total_area(), n.family(), n.caps(),
                        n.network_delay()};
}

NodeDynamicInfo ResourceInformationManager::DynamicInfo(NodeId id) const {
  const resource::Node& n = store_.node(id);
  return NodeDynamicInfo{n.id(),          n.available_area(),
                         n.config_count(), n.running_tasks(),
                         n.busy(),         n.reconfig_count()};
}

std::vector<NodeDynamicInfo> ResourceInformationManager::AllDynamicInfo()
    const {
  std::vector<NodeDynamicInfo> infos;
  infos.reserve(store_.node_count());
  for (const resource::Node& n : store_.nodes()) {
    infos.push_back(DynamicInfo(n.id()));
  }
  return infos;
}

SystemSnapshot ResourceInformationManager::Snapshot(Tick now) const {
  const resource::FleetTotals& totals = store_.fleet_totals();
  SystemSnapshot s;
  s.at = now;
  s.total_nodes = store_.node_count();
  s.blank_nodes = totals.blank_nodes;  // failed nodes count as blank
  s.busy_nodes = totals.busy_nodes;
  s.running_tasks = totals.running_tasks;
  s.total_fabric_area = totals.total_area;
  s.configured_area = totals.configured_area;
  s.wasted_area = totals.wasted_area;
  if (s.total_fabric_area > 0) {
    s.area_utilization = static_cast<double>(s.configured_area) /
                         static_cast<double>(s.total_fabric_area);
  }
  return s;
}

}  // namespace dreamsim::rms
