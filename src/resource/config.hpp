// Processor configurations (Eq. 2) and their catalogue.
//
//   C_i(ReqArea, Ptype, param, BSize, ConfigTime)
//
// A configuration is a synthesizable processor instance that can be loaded
// onto a node's reconfigurable fabric by sending its bitstream. The
// catalogue is the "configurations list" the scheduler searches with
// FindPreferredConfig / FindClosestConfig. The paper's searches are linear
// and their visits are the modeled effort (Table I, Fig. 9), so each comes
// in two halves with the same answer and the same step count: the literal
// counted scan (ScanPreferred / ScanClosestMatch, the oracle that scan mode
// runs) and an index answer (FindPreferred from the dense id,
// FindClosestMatch from an (area, id)-sorted array built by Add) that
// reports the scan's steps without walking.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ptype/catalogue.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dreamsim::resource {

/// One processor configuration (Eq. 2).
struct Configuration {
  ConfigId id;
  /// Reconfigurable area the instance occupies.
  Area required_area = 0;
  /// Processor type implemented by this configuration.
  PtypeId ptype;
  /// Bitstream file size (BSize).
  Bytes bitstream_size = 0;
  /// Ticks to (re)configure a region with this bitstream.
  Tick config_time = 1;
  /// Device family the bitstream was synthesized for. A configuration can
  /// only be loaded onto nodes of the same family ("a device family
  /// defines the group of compatible nodes", Eq. 1). Invalid = universal
  /// (the paper's evaluation, which uses a single implicit family).
  FamilyId family;

  /// True when this configuration can be loaded on a node of
  /// `node_family`.
  [[nodiscard]] bool CompatibleWith(FamilyId node_family) const {
    return !family.valid() || family == node_family;
  }
};

/// Parameters for synthetic configuration generation (Table II:
/// "Configurations ReqArea range [200...2000]", "t_config range [10...20]").
struct ConfigGenParams {
  int count = 50;
  Area min_area = 200;
  Area max_area = 2000;
  Tick min_config_time = 10;
  Tick max_config_time = 20;
  /// Number of device families the configurations are synthesized for
  /// (round-robin). <= 1 keeps every configuration universal, matching the
  /// paper's single-family evaluation.
  int family_count = 1;
  /// Processor-type selection: names from ptype::Catalogue::Default(),
  /// sampled uniformly in the listed order. Empty = the whole default
  /// catalogue (the flag-driven path; keeps bit-identity).
  std::vector<std::string> ptypes;
};

/// Dense catalogue of configurations, indexed by ConfigId. Every search
/// reports the step count of the paper's "simple linear search", whether
/// it walks (Scan*) or answers from the index (Find*).
class ConfigCatalogue {
 public:
  /// Registers a configuration; the stored copy receives its id.
  ConfigId Add(Configuration config);

  /// InitConfigs(): generates `params.count` configurations with uniformly
  /// distributed ReqArea and ConfigTime, processor types sampled from
  /// `ptypes`, and BSize derived from area.
  static ConfigCatalogue Generate(const ConfigGenParams& params,
                                  const ptype::Catalogue& ptypes, Rng& rng);

  [[nodiscard]] const Configuration& Get(ConfigId id) const {
    if (!Contains(id)) ThrowUnknownId();
    return configs_[id.value()];
  }
  [[nodiscard]] bool Contains(ConfigId id) const {
    return id.valid() && id.value() < configs_.size();
  }
  [[nodiscard]] std::size_t size() const { return configs_.size(); }
  [[nodiscard]] bool empty() const { return configs_.empty(); }
  [[nodiscard]] const std::vector<Configuration>& all() const {
    return configs_;
  }

  /// FindPreferredConfig(): linear scan for `preferred`; adds one step per
  /// visited entry to `steps`. Returns nullopt when absent.
  [[nodiscard]] std::optional<ConfigId> ScanPreferred(ConfigId preferred,
                                                      Steps& steps) const;
  /// ScanPreferred's answer and steps from the dense id: id + 1 steps on a
  /// hit, the catalogue size on a miss.
  [[nodiscard]] std::optional<ConfigId> FindPreferred(ConfigId preferred,
                                                      Steps& steps) const {
    // Ids are dense positions: the scan would stop at entry `preferred`.
    if (!Contains(preferred)) {
      steps += configs_.size();
      return std::nullopt;
    }
    steps += preferred.value() + Steps{1};
    return preferred;
  }

  /// FindClosestConfig(): the configuration whose ReqArea is minimal among
  /// all with ReqArea >= `needed_area` ("more than the ReqArea of the
  /// C_pref"), ties to the lowest id. Linear counted scan; nullopt when
  /// nothing is large enough.
  [[nodiscard]] std::optional<ConfigId> ScanClosestMatch(Area needed_area,
                                                         Steps& steps) const;
  /// ScanClosestMatch's answer from the (area, id)-sorted array; steps are
  /// the catalogue size, as the scan never exits early.
  [[nodiscard]] std::optional<ConfigId> FindClosestMatch(Area needed_area,
                                                         Steps& steps) const {
    steps += configs_.size();
    const auto it = std::lower_bound(
        by_area_.begin(), by_area_.end(),
        std::pair<Area, std::uint32_t>{needed_area, 0});
    if (it == by_area_.end()) return std::nullopt;
    return ConfigId{it->second};
  }

  /// Largest ReqArea in the catalogue (0 when empty); used for fast
  /// infeasibility checks.
  [[nodiscard]] Area max_required_area() const { return max_area_; }

 private:
  [[noreturn]] static void ThrowUnknownId();

  std::vector<Configuration> configs_;
  /// (ReqArea, id) of every configuration, ascending.
  std::vector<std::pair<Area, std::uint32_t>> by_area_;
  Area max_area_ = 0;
};

}  // namespace dreamsim::resource
