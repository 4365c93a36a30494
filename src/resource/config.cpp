#include "resource/config.hpp"

#include <algorithm>
#include <stdexcept>

#include "ptype/ptype.hpp"

namespace dreamsim::resource {

ConfigId ConfigCatalogue::Add(Configuration config) {
  const auto id = ConfigId{static_cast<std::uint32_t>(configs_.size())};
  config.id = id;
  if (config.required_area <= 0) {
    throw std::invalid_argument("configuration area must be positive");
  }
  max_area_ = std::max(max_area_, config.required_area);
  configs_.push_back(config);
  // Ids only grow, so an equal area's new entry goes after its peers.
  const std::pair<Area, std::uint32_t> key{config.required_area, id.value()};
  by_area_.insert(std::upper_bound(by_area_.begin(), by_area_.end(), key),
                  key);
  return id;
}

ConfigCatalogue ConfigCatalogue::Generate(const ConfigGenParams& params,
                                          const ptype::Catalogue& ptypes,
                                          Rng& rng) {
  if (params.min_area <= 0 || params.min_area > params.max_area) {
    throw std::invalid_argument("invalid configuration area range");
  }
  if (params.min_config_time <= 0 ||
      params.min_config_time > params.max_config_time) {
    throw std::invalid_argument("invalid configuration time range");
  }
  ConfigCatalogue catalogue;
  for (int i = 0; i < params.count; ++i) {
    Configuration c;
    c.required_area = rng.uniform_int(params.min_area, params.max_area);
    c.ptype = ptypes.empty() ? PtypeId::invalid() : ptypes.Sample(rng);
    c.bitstream_size = ptype::BitstreamSize(c.required_area);
    c.config_time =
        rng.uniform_int(params.min_config_time, params.max_config_time);
    if (params.family_count > 1) {
      c.family = FamilyId{static_cast<std::uint32_t>(i % params.family_count)};
    }
    catalogue.Add(c);
  }
  return catalogue;
}

void ConfigCatalogue::ThrowUnknownId() {
  throw std::out_of_range("unknown ConfigId");
}

std::optional<ConfigId> ConfigCatalogue::ScanPreferred(ConfigId preferred,
                                                       Steps& steps) const {
  // The paper keeps this a deliberate linear search ("currently, a simple
  // linear search is employed") because the metric of interest is the
  // search effort itself.
  for (const Configuration& c : configs_) {
    ++steps;
    if (c.id == preferred) return c.id;
  }
  return std::nullopt;
}

std::optional<ConfigId> ConfigCatalogue::ScanClosestMatch(Area needed_area,
                                                          Steps& steps) const {
  std::optional<ConfigId> best;
  Area best_area = 0;
  for (const Configuration& c : configs_) {
    ++steps;
    if (c.required_area < needed_area) continue;
    if (!best || c.required_area < best_area) {
      best = c.id;
      best_area = c.required_area;
    }
  }
  return best;
}

}  // namespace dreamsim::resource
