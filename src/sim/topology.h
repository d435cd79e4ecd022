// Deployment topologies matching the paper's evaluation setups (§7).

#ifndef HOTSTUFF1_SIM_TOPOLOGY_H_
#define HOTSTUFF1_SIM_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/network.h"

namespace hotstuff1::sim {

/// Region ids for the paper's five-region geo deployment.
enum Region : uint32_t {
  kNorthVirginia = 0,
  kHongKong = 1,
  kLondon = 2,
  kSaoPaulo = 3,
  kZurich = 4,
};

/// \brief Node placement plus inter-region latency map.
struct Topology {
  uint32_t n = 0;
  /// region_of[node] -> region index (into region_latency).
  std::vector<uint32_t> region_of;
  /// One-way latency between regions, microseconds. Diagonal = intra-region.
  std::vector<std::vector<SimTime>> region_latency;

  SimTime OneWay(NodeId a, NodeId b) const {
    return region_latency[region_of[a]][region_of[b]];
  }

  /// Installs latencies into the network (node count must match).
  void Apply(Network* net) const;

  /// All nodes in one datacenter (Fig. 8 a-d, Fig. 10). `one_way` defaults to
  /// the LAN latency used throughout.
  static Topology Lan(uint32_t n, SimTime one_way = Millis(0.4));

  /// Nodes spread uniformly (round-robin) over the first `num_regions` of the
  /// paper's five regions: North Virginia, Hong Kong, London, Sao Paulo,
  /// Zurich (Fig. 8 e-h).
  static Topology Geo(uint32_t n, uint32_t num_regions);

  /// Two-region split: `k_london` nodes in London, the rest in North
  /// Virginia (Fig. 9 e,j). Nodes [0, n-k_london) are NV.
  static Topology TwoRegion(uint32_t n, uint32_t k_london);

  /// One-way latency between two of the paper's five regions.
  static SimTime RegionOneWay(uint32_t a, uint32_t b);

  static std::string RegionName(uint32_t region);
  bool operator==(const Topology&) const = default;
};

}  // namespace hotstuff1::sim

#endif  // HOTSTUFF1_SIM_TOPOLOGY_H_
