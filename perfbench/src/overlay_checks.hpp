// Route and overlay properties more than one workload measures or checks.
#pragma once

#include <cmath>
#include <optional>
#include <span>

#include "net/rtt_oracle.hpp"
#include "overlay/ecan.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

/// Stretch of a routed path: its underlay latency over the direct latency
/// between its end hosts. Empty when undefined (fewer than two nodes, or
/// both ends on one host).
inline std::optional<double> route_stretch(
    const topo::overlay::EcanNetwork& ecan, topo::net::RttOracle& oracle,
    std::span<const topo::overlay::NodeId> path) {
  if (path.size() < 2) return std::nullopt;
  const double direct = oracle.latency_ms(ecan.node(path.front()).host,
                                          ecan.node(path.back()).host);
  if (direct <= 0.0) return std::nullopt;
  return topo::sim::path_latency_ms(ecan, oracle, path) / direct;
}

/// Live zones tile the space: their volumes sum to 1.
inline bool zones_tile(const topo::overlay::EcanNetwork& ecan) {
  double volume = 0.0;
  for (const topo::overlay::NodeId id : ecan.live_view())
    volume += ecan.node(id).zone.volume();
  return std::abs(volume - 1.0) < 1e-9;
}

}  // namespace perfbench
