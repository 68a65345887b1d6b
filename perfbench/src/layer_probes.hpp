// Per-layer timing probes on a grown facade, run by churn-ae's traced
// rounds. Each probe times the benchmark's own calls into one module's
// public functions. They run after a round's results are recorded and
// checked: a map lookup counts into MapServiceStats, a landmark
// measurement counts RTT probes and a repairing route may re-select table
// entries.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/soft_state_overlay.hpp"

namespace perfbench {

struct LayerProbes {
  double rtt_query_ns = 0.0;   // net: RttOracle::latency_ms
  double measure_us = 0.0;     // proximity: LandmarkSet::measure
  double map_lookup_us = 0.0;  // softstate: MapService::lookup_entries_into
  double route_us = 0.0;       // overlay: EcanNetwork::route_ecan_repair
};

inline LayerProbes probe_layers(topo::core::SoftStateOverlay& system,
                                std::uint64_t seed) {
  using namespace topo;
  constexpr std::size_t kRttQueries = 20'000;
  constexpr std::size_t kMeasures = 500;
  constexpr std::size_t kMapLookups = 2'000;
  constexpr std::size_t kRoutes = 5'000;

  LayerProbes p;
  util::Rng rng(seed);
  overlay::EcanNetwork& ecan = system.ecan();
  const std::vector<overlay::NodeId> nodes = ecan.live_nodes();
  const auto any_node = [&] { return nodes[rng.next_u64(nodes.size())]; };
  double sink = 0.0;

  std::vector<std::pair<net::HostId, net::HostId>> pairs;
  const std::size_t hosts = system.oracle().topology().host_count();
  for (std::size_t i = 0; i < kRttQueries; ++i)
    pairs.emplace_back(static_cast<net::HostId>(rng.next_u64(hosts)),
                       static_cast<net::HostId>(rng.next_u64(hosts)));
  Clock::time_point t = Clock::now();
  for (const auto& [a, b] : pairs) sink += system.oracle().latency_ms(a, b);
  p.rtt_query_ns = seconds_since(t) * 1e9 / kRttQueries;

  std::vector<net::HostId> measured;
  for (std::size_t i = 0; i < kMeasures; ++i)
    measured.push_back(ecan.node(any_node()).host);
  t = Clock::now();
  for (const net::HostId host : measured)
    sink += system.landmarks().measure(system.oracle(), host)[0];
  p.measure_us = seconds_since(t) * 1e6 / kMeasures;

  struct MapQuery {
    overlay::NodeId querier;
    int level;
    std::vector<std::uint32_t> cell;
  };
  std::vector<MapQuery> queries;
  for (std::size_t i = 0; i < kMapLookups; ++i) {
    const overlay::NodeId q = any_node();
    const int levels = ecan.node_level(q);
    if (levels < 1) continue;
    const int level = 1 + static_cast<int>(
                              rng.next_u64(static_cast<std::uint64_t>(levels)));
    queries.push_back({q, level, ecan.cell_of_node(q, level)});
  }
  std::vector<softstate::MapEntry> out;
  t = Clock::now();
  for (const MapQuery& q : queries)
    sink += static_cast<double>(system.maps().lookup_entries_into(
        q.querier, system.vectors().at(q.querier), q.level, q.cell,
        system.events().now(), out));
  if (!queries.empty())
    p.map_lookup_us =
        seconds_since(t) * 1e6 / static_cast<double>(queries.size());

  std::vector<std::pair<overlay::NodeId, geom::Point>> targets;
  for (std::size_t i = 0; i < kRoutes; ++i)
    targets.emplace_back(any_node(), geom::Point::random(2, rng));
  // The router of the facade's lookups (route_ecan's expressway routing
  // plus on-the-spot repair of dead table entries).
  t = Clock::now();
  for (const auto& [from, key] : targets)
    sink += ecan.route_ecan_repair(from, key, system.selector()).success
                ? 1.0
                : 0.0;
  p.route_us = seconds_since(t) * 1e6 / kRoutes;
  keep(sink);
  return p;
}

}  // namespace perfbench
