// Failure injection: soft state must absorb lost publish messages — the
// maps degrade gracefully and the periodic republish restores them, which
// is the whole point of soft (rather than hard) state.
#include <memory>

#include <gtest/gtest.h>

#include "core/soft_state_overlay.hpp"
#include "net/latency.hpp"
#include "net/transit_stub.hpp"
#include "softstate/map_service.hpp"

namespace topo {
namespace {

net::Topology make_topology(std::uint64_t seed) {
  util::Rng rng(seed);
  net::Topology t = net::generate_transit_stub(net::tsk_tiny(), rng);
  net::assign_latencies(t, net::LatencyModel::kManual, rng);
  return t;
}

/// A fault plane that loses `publish_loss` of all publish messages.
sim::FaultPlane publish_loss_plane(double publish_loss, std::uint64_t seed) {
  sim::FaultConfig config;
  config.publish_loss = publish_loss;
  config.seed = seed;
  return sim::FaultPlane(config);
}

struct Fixture {
  net::Topology topology;
  std::unique_ptr<net::RttOracle> oracle;
  std::unique_ptr<proximity::LandmarkSet> landmarks;
  std::unique_ptr<overlay::EcanNetwork> ecan;
  std::unique_ptr<softstate::MapService> maps;
  std::vector<overlay::NodeId> nodes;
  std::unordered_map<overlay::NodeId, proximity::LandmarkVector> vectors;

  explicit Fixture(std::uint64_t seed, std::size_t n = 96,
                   softstate::MapConfig map_config = {}) {
    topology = make_topology(seed);
    util::Rng rng(seed + 1);
    oracle = std::make_unique<net::RttOracle>(topology);
    landmarks = std::make_unique<proximity::LandmarkSet>(
        proximity::LandmarkSet::choose_random(topology, 8, rng, {}));
    ecan = std::make_unique<overlay::EcanNetwork>(2);
    for (std::size_t i = 0; i < n; ++i) {
      const auto host =
          static_cast<net::HostId>(rng.next_u64(topology.host_count()));
      nodes.push_back(ecan->join_random(host, rng));
    }
    maps = std::make_unique<softstate::MapService>(*ecan, *landmarks,
                                                   map_config);
    for (const auto id : nodes)
      vectors[id] = landmarks->measure(*oracle, ecan->node(id).host);
  }

  std::size_t expected_entries() const {
    std::size_t total = 0;
    for (const auto id : nodes)
      total += static_cast<std::size_t>(ecan->node_level(id));
    return total;
  }
};

TEST(FaultInjection, LossDropsSomePublishes) {
  Fixture f(1);
  sim::FaultPlane loss = publish_loss_plane(0.3, 99);
  f.maps->set_fault_plane(&loss);
  for (const auto id : f.nodes) f.maps->publish(id, f.vectors[id], 0.0);
  EXPECT_GT(f.maps->stats().lost_messages, 0u);
  EXPECT_LT(f.maps->total_entries(), f.expected_entries());
  // Roughly 30% lost (generous bounds; binomial over ~200+ messages).
  const double loss_rate =
      1.0 - static_cast<double>(f.maps->total_entries()) /
                static_cast<double>(f.expected_entries());
  EXPECT_GT(loss_rate, 0.15);
  EXPECT_LT(loss_rate, 0.45);
}

TEST(FaultInjection, RepublishRoundsConverge) {
  Fixture f(2);
  sim::FaultPlane loss = publish_loss_plane(0.3, 77);
  f.maps->set_fault_plane(&loss);
  // Round 1 loses ~30%; each further round refills independently-lost
  // slots (an entry survives if ANY round delivered it within TTL).
  for (int round = 0; round < 6; ++round)
    for (const auto id : f.nodes)
      f.maps->publish(id, f.vectors[id], /*now=*/round * 1000.0);
  // After 6 rounds the per-slot miss probability is 0.3^6 ~ 0.07%.
  EXPECT_GE(f.maps->total_entries(), f.expected_entries() - 2);
}

TEST(FaultInjection, ZeroLossIsLossless) {
  Fixture f(3);
  sim::FaultPlane loss = publish_loss_plane(0.0, 1);
  f.maps->set_fault_plane(&loss);
  for (const auto id : f.nodes) f.maps->publish(id, f.vectors[id], 0.0);
  EXPECT_EQ(f.maps->stats().lost_messages, 0u);
  EXPECT_EQ(f.maps->total_entries(), f.expected_entries());
}

TEST(FaultInjection, LookupsDegradeGracefullyUnderLoss) {
  Fixture f(4, 160);
  sim::FaultPlane loss = publish_loss_plane(0.5, 5);
  f.maps->set_fault_plane(&loss);
  for (const auto id : f.nodes) f.maps->publish(id, f.vectors[id], 0.0);
  // Even with half the records missing, lookups return candidates (ring
  // expansion widens the search) and never crash.
  int with_candidates = 0;
  int lookups = 0;
  for (const auto id : f.nodes) {
    if (f.ecan->node_level(id) < 1) continue;
    const auto cell = f.ecan->cell_of_node(id, 1);
    const auto adj = f.ecan->adjacent_cell(cell, 1, 0, 1);
    const auto result = f.maps->lookup(id, f.vectors[id], 1, adj, 0.0);
    ++lookups;
    if (!result.candidates.empty()) ++with_candidates;
    if (lookups >= 30) break;
  }
  ASSERT_GT(lookups, 0);
  EXPECT_GT(with_candidates, lookups / 2);
}

TEST(FaultInjection, EndToEndSystemSurvivesLossyNetwork) {
  const net::Topology topology = make_topology(6);
  core::SystemConfig config;
  config.landmark_count = 8;
  config.rtt_budget = 8;
  config.map.ttl_ms = 5'000.0;
  config.republish_interval_ms = 1'000.0;
  // Declared before the system so it outlives every message path.
  sim::FaultPlane loss = publish_loss_plane(0.25, 123);
  core::SoftStateOverlay system(topology, config);
  system.maps().set_fault_plane(&loss);

  util::Rng rng(60);
  std::vector<overlay::NodeId> nodes;
  for (int i = 0; i < 64; ++i)
    nodes.push_back(system.join(
        static_cast<net::HostId>(rng.next_u64(topology.host_count()))));
  system.run_for(20'000.0);
  // Lossy network: entries still present (republish wins the race against
  // TTL with margin 5:1), lookups all succeed.
  EXPECT_GT(system.maps().total_entries(), 0u);
  EXPECT_GT(system.maps().stats().lost_messages, 0u);
  for (int trial = 0; trial < 40; ++trial) {
    const auto from = nodes[rng.next_u64(nodes.size())];
    EXPECT_TRUE(system.lookup(from, geom::Point::random(2, rng)).success);
  }
}

TEST(FaultInjection, InjectFaultsShimRoutesThroughFaultPlane) {
  Fixture f(12);
  sim::FaultPlane loss = publish_loss_plane(0.3, 99);
  f.maps->set_fault_plane(&loss);
  ASSERT_EQ(f.maps->fault_plane(), &loss);
  EXPECT_TRUE(f.maps->fault_plane()->active());
  for (const auto id : f.nodes) f.maps->publish(id, f.vectors[id], 0.0);
  // Injected publish loss is the plane's own verdict: the service's loss
  // counter and the plane's are the same number.
  EXPECT_GT(f.maps->stats().lost_messages, 0u);
  EXPECT_EQ(f.maps->stats().lost_messages, f.maps->fault_plane()->stats().lost);
}

TEST(ReplicaPlacement, FailoverSurvivesCrashedOwner) {
  softstate::MapConfig map_config;
  map_config.replicas = 3;
  Fixture f(8, 160, map_config);
  sim::FaultPlane plane;  // crash-stops only, no loss
  f.maps->set_fault_plane(&plane);
  for (const auto id : f.nodes) f.maps->publish(id, f.vectors[id], 0.0);

  bool demonstrated = false;
  for (const auto querier : f.nodes) {
    if (f.ecan->node_level(querier) < 1) continue;
    const auto cell = f.ecan->cell_of_node(querier, 1);
    const auto adj = f.ecan->adjacent_cell(cell, 1, 0, 1);
    softstate::LookupResult meta;
    const auto entries =
        f.maps->lookup_entries(querier, f.vectors[querier], 1, adj, 0.0,
                               &meta);
    if (entries.empty() || meta.owner == overlay::kInvalidNode) continue;
    const net::HostId owner_host = f.ecan->node(meta.owner).host;
    if (owner_host == f.ecan->node(querier).host) continue;

    plane.crash_host(owner_host);
    softstate::LookupResult failover_meta;
    const auto failover_entries = f.maps->lookup_entries(
        querier, f.vectors[querier], 1, adj, 0.0, &failover_meta);
    plane.restart_host(owner_host);
    if (failover_entries.empty()) continue;  // all replicas on that host

    // The fetch failed over to a replica owner on a live host.
    EXPECT_NE(f.ecan->node(failover_meta.owner).host, owner_host);
    EXPECT_GT(failover_meta.replicas_tried, 1u);
    EXPECT_FALSE(failover_meta.fault_blocked);
    EXPECT_GE(f.maps->stats().lookup_failovers, 1u);
    demonstrated = true;
    break;
  }
  EXPECT_TRUE(demonstrated)
      << "no querier could demonstrate replica failover";
}

TEST(ReplicaPlacement, SingleReplicaConfigKeepsLegacyEntryCount) {
  // replicas = 1 must be the exact legacy protocol: one record per node
  // per level, nothing extra published or collapsed.
  Fixture f(13);
  for (const auto id : f.nodes) f.maps->publish(id, f.vectors[id], 0.0);
  EXPECT_EQ(f.maps->total_entries(), f.expected_entries());
  EXPECT_EQ(f.maps->stats().replica_collapses, 0u);
}

TEST(LazyRepair, DelayedDeadReportCannotEvictFresherRecord) {
  Fixture f(9);
  // Any node with a level-1 record will do.
  overlay::NodeId node = overlay::kInvalidNode;
  for (const auto id : f.nodes)
    if (f.ecan->node_level(id) >= 1) {
      node = id;
      break;
    }
  ASSERT_NE(node, overlay::kInvalidNode);
  f.maps->publish(node, f.vectors[node], 0.0);

  // The owner of the node's level-1 record.
  const auto number = f.landmarks->landmark_number(f.vectors[node]);
  const auto cell = f.ecan->cell_of_node(node, 1);
  const geom::Point position = f.maps->map_position(number, 1, cell);
  const overlay::NodeId owner = f.ecan->owner_of(position);

  // The node republishes at t=10; a report about a probe that failed at
  // t=5 arrives afterwards (delayed in flight). The fresher record must
  // survive it.
  f.maps->publish(node, f.vectors[node], 10.0);
  const std::size_t before = f.maps->total_entries();
  const auto deletions_before = f.maps->stats().lazy_deletions;
  f.maps->report_dead(owner, node, /*reported_at=*/5.0);
  EXPECT_EQ(f.maps->total_entries(), before);
  EXPECT_EQ(f.maps->stats().lazy_deletions, deletions_before);

  // The legacy unconditional report (no timestamp) still evicts.
  f.maps->report_dead(owner, node);
  EXPECT_LT(f.maps->total_entries(), before);
  EXPECT_GT(f.maps->stats().lazy_deletions, deletions_before);
}

TEST(GracefulDegradation, JoinsFallBackToLandmarkWhenMapsUnreachable) {
  const net::Topology topology = make_topology(10);
  core::SystemConfig config;
  config.landmark_count = 8;
  config.rtt_budget = 8;
  config.fault.message_loss = 1.0;  // no map message ever gets through
  config.fault.seed = 55;
  core::SoftStateOverlay system(topology, config);

  util::Rng rng(70);
  for (int i = 0; i < 48; ++i) {
    const auto id = system.join(
        static_cast<net::HostId>(rng.next_u64(topology.host_count())));
    ASSERT_NE(id, overlay::kInvalidNode);  // a join never hard-fails
  }
  // Every publish was lost, so selections could not be map-backed — but
  // the joining nodes knew their landmark vectors and degraded to
  // landmark-only pre-selection instead of failing.
  EXPECT_EQ(system.maps().total_entries(), 0u);
  const auto& fallback = system.selector().fallback_stats();
  EXPECT_GT(fallback.selections, 0u);
  EXPECT_EQ(fallback.map_backed, 0u);
  EXPECT_GT(fallback.landmark_fallbacks, 0u);
}

TEST(FaultDeterminism, SameSeedSameStatsAtAnyThreadCount) {
  const net::Topology topology = make_topology(11);
  struct Trace {
    std::uint64_t lost = 0;
    std::uint64_t retries = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t plane_messages = 0;
    std::uint64_t plane_lost = 0;
    std::size_t entries = 0;
    bool operator==(const Trace&) const = default;
  };
  const auto run = [&topology] {
    core::SystemConfig config;
    config.landmark_count = 8;
    config.rtt_budget = 8;
    config.map.ttl_ms = 5'000.0;
    config.republish_interval_ms = 1'000.0;
    config.fault.message_loss = 0.2;
    config.fault.seed = 77;
    config.retry.max_attempts = 3;
    core::SoftStateOverlay system(topology, config);
    util::Rng rng(71);
    for (int i = 0; i < 48; ++i)
      system.join(
          static_cast<net::HostId>(rng.next_u64(topology.host_count())));
    system.run_for(5'000.0);
    Trace t;
    t.lost = system.maps().stats().lost_messages;
    t.retries = system.maps().stats().publish_retries;
    t.recoveries = system.maps().stats().retry_recoveries;
    t.plane_messages = system.faults().stats().messages;
    t.plane_lost = system.faults().stats().lost;
    t.entries = system.maps().total_entries();
    return t;
  };
  // A trial is single-threaded by construction (the plane draws in call
  // order); two identical runs must produce identical fault traces, which
  // is what makes sweeps reproducible at any THREADS setting.
  const Trace a = run();
  const Trace b = run();
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.lost, 0u);
  EXPECT_GT(a.retries, 0u);
}

}  // namespace
}  // namespace topo
