#include "softstate/map_service.hpp"

#include <memory>

#include <gtest/gtest.h>

#include "net/latency.hpp"
#include "net/transit_stub.hpp"

namespace topo::softstate {
namespace {

struct Fixture {
  net::Topology topology;
  std::unique_ptr<net::RttOracle> oracle;
  std::unique_ptr<proximity::LandmarkSet> landmarks;
  std::unique_ptr<overlay::EcanNetwork> ecan;
  std::unique_ptr<MapService> maps;
  std::vector<overlay::NodeId> nodes;
  std::unordered_map<overlay::NodeId, proximity::LandmarkVector> vectors;

  explicit Fixture(std::uint64_t seed, std::size_t overlay_nodes = 128,
                   MapConfig config = {}) {
    util::Rng rng(seed);
    topology = net::generate_transit_stub(net::tsk_tiny(), rng);
    net::assign_latencies(topology, net::LatencyModel::kManual, rng);
    oracle = std::make_unique<net::RttOracle>(topology);
    landmarks = std::make_unique<proximity::LandmarkSet>(
        proximity::LandmarkSet::choose_random(topology, 8, rng, {}));
    ecan = std::make_unique<overlay::EcanNetwork>(2);
    for (std::size_t i = 0; i < overlay_nodes; ++i) {
      const auto host =
          static_cast<net::HostId>(rng.next_u64(topology.host_count()));
      nodes.push_back(ecan->join_random(host, rng));
    }
    maps = std::make_unique<MapService>(*ecan, *landmarks, config);
    for (const auto id : nodes)
      vectors[id] = landmarks->measure(*oracle, ecan->node(id).host);
  }

  void publish_all(sim::Time now = 0.0) {
    for (const auto id : nodes) maps->publish(id, vectors[id], now);
  }
};

TEST(MapPosition, StaysInsideCellAndMapRegion) {
  Fixture f(1);
  for (const auto id : f.nodes) {
    const int levels = f.ecan->node_level(id);
    const auto number = f.landmarks->landmark_number(f.vectors[id]);
    for (int h = 1; h <= levels; ++h) {
      const auto cell = f.ecan->cell_of_node(id, h);
      const geom::Point p = f.maps->map_position(number, h, cell);
      EXPECT_TRUE(f.ecan->cell_zone(h, cell).contains(p));
    }
  }
}

TEST(MapPosition, CondenseRateShrinksRegion) {
  MapConfig condensed;
  condensed.condense_rate = 0.25;  // half the side per axis in 2-d
  Fixture f(2, 64, condensed);
  const auto id = f.nodes[0];
  if (f.ecan->node_level(id) < 1) GTEST_SKIP();
  const auto cell = f.ecan->cell_of_node(id, 1);
  const geom::Zone zone = f.ecan->cell_zone(1, cell);
  const auto number = f.landmarks->landmark_number(f.vectors[id]);
  const geom::Point p = f.maps->map_position(number, 1, cell);
  for (std::size_t d = 0; d < 2; ++d)
    EXPECT_LT(p[d], zone.lo(d) + zone.side(d) * 0.5 + 1e-12);
}

TEST(MapPosition, PreservesLandmarkLocality) {
  // Closer landmark numbers map to closer positions (within one cell).
  Fixture f(3);
  const auto cell = std::vector<std::uint32_t>{0, 0};
  const geom::Point a =
      f.maps->map_position(util::BigUint(0), 1, cell);
  const int bits = f.landmarks->number_bits();
  const geom::Point near_a =
      f.maps->map_position(util::BigUint::pow2(bits - 10), 1, cell);
  const geom::Point far_a = f.maps->map_position(
      util::BigUint::pow2(bits - 1) | util::BigUint::pow2(bits - 2), 1, cell);
  EXPECT_LT(a.torus_distance(near_a), a.torus_distance(far_a));
}

TEST(MapService, PublishStoresAtEveryLevel) {
  Fixture f(4);
  const auto id = f.nodes[10];
  f.maps->publish(id, f.vectors[id], 0.0);
  EXPECT_EQ(f.maps->total_entries(),
            static_cast<std::size_t>(f.ecan->node_level(id)));
  EXPECT_EQ(f.maps->stats().publishes, 1u);
}

TEST(MapService, RepublishReplacesNotDuplicates) {
  Fixture f(5);
  const auto id = f.nodes[3];
  f.maps->publish(id, f.vectors[id], 0.0);
  const std::size_t after_first = f.maps->total_entries();
  f.maps->publish(id, f.vectors[id], 100.0);
  EXPECT_EQ(f.maps->total_entries(), after_first);
}

TEST(MapService, LookupFindsPublishedCandidates) {
  Fixture f(6);
  f.publish_all();
  const auto querier = f.nodes[0];
  const int level = 1;
  // Look into an adjacent level-1 cell (where the querier would select a
  // representative).
  const auto my_cell = f.ecan->cell_of_node(querier, level);
  const auto adj = f.ecan->adjacent_cell(my_cell, level, 0, 1);
  const auto members = f.ecan->members_of_cell(level, adj);
  if (members.empty()) GTEST_SKIP();
  const LookupResult result =
      f.maps->lookup(querier, f.vectors[querier], level, adj, 0.0);
  EXPECT_FALSE(result.candidates.empty());
  EXPECT_NE(result.owner, overlay::kInvalidNode);
  // All returned hosts belong to members of that cell.
  for (const auto& record : result.candidates) {
    bool found = false;
    for (const auto m : members)
      if (f.ecan->node(m).host == record.host) found = true;
    EXPECT_TRUE(found);
  }
}

TEST(MapService, LookupResultsSortedByVectorDistance) {
  Fixture f(7, 256);
  f.publish_all();
  const auto querier = f.nodes[1];
  const auto my_cell = f.ecan->cell_of_node(querier, 1);
  const auto adj = f.ecan->adjacent_cell(my_cell, 1, 1, 0);
  const LookupResult result =
      f.maps->lookup(querier, f.vectors[querier], 1, adj, 0.0);
  for (std::size_t i = 1; i < result.candidates.size(); ++i) {
    EXPECT_LE(proximity::vector_distance(result.candidates[i - 1].vector,
                                         f.vectors[querier]),
              proximity::vector_distance(result.candidates[i].vector,
                                         f.vectors[querier]) +
                  1e-12);
  }
}

TEST(MapService, LookupNeverReturnsQuerier) {
  // Exclusion is by overlay node identity: distinct overlay nodes on the
  // same underlay host are legitimate candidates (RTT 0).
  Fixture f(8);
  f.publish_all();
  for (const auto querier : f.nodes) {
    if (f.ecan->node_level(querier) < 1) continue;
    const auto my_cell = f.ecan->cell_of_node(querier, 1);
    const auto entries =
        f.maps->lookup_entries(querier, f.vectors[querier], 1, my_cell, 0.0);
    for (const auto& entry : entries) EXPECT_NE(entry.node, querier);
  }
}

TEST(MapService, MaxReturnCaps) {
  MapConfig config;
  config.max_return = 3;
  Fixture f(9, 256, config);
  f.publish_all();
  const auto querier = f.nodes[0];
  const auto my_cell = f.ecan->cell_of_node(querier, 1);
  const auto adj = f.ecan->adjacent_cell(my_cell, 1, 0, 1);
  const LookupResult result =
      f.maps->lookup(querier, f.vectors[querier], 1, adj, 0.0);
  EXPECT_LE(result.candidates.size(), 3u);
}

TEST(MapService, TtlExpiryDropsEntries) {
  MapConfig config;
  config.ttl_ms = 1000.0;
  Fixture f(10, 64, config);
  f.publish_all(0.0);
  EXPECT_GT(f.maps->total_entries(), 0u);
  f.maps->expire_before(999.0);
  EXPECT_GT(f.maps->total_entries(), 0u);
  f.maps->expire_before(1000.0);
  EXPECT_EQ(f.maps->total_entries(), 0u);
  EXPECT_GT(f.maps->stats().expired_entries, 0u);
}

TEST(MapService, LookupPrunesExpiredOnAccess) {
  MapConfig config;
  config.ttl_ms = 10.0;
  config.lookup_ring_ttl = 0;
  Fixture f(11, 64, config);
  f.publish_all(0.0);
  const auto querier = f.nodes[0];
  const auto my_cell = f.ecan->cell_of_node(querier, 1);
  const auto adj = f.ecan->adjacent_cell(my_cell, 1, 0, 1);
  const LookupResult result =
      f.maps->lookup(querier, f.vectors[querier], 1, adj, /*now=*/50.0);
  EXPECT_TRUE(result.candidates.empty());
}

TEST(MapService, RemoveEverywhereScrubsNode) {
  Fixture f(12);
  f.publish_all();
  const auto victim = f.nodes[5];
  f.maps->remove_everywhere(victim);
  // No lookup may ever return the victim's host again.
  const auto querier = f.nodes[0];
  for (int dir = 0; dir < 2; ++dir) {
    const auto my_cell = f.ecan->cell_of_node(querier, 1);
    const auto adj = f.ecan->adjacent_cell(my_cell, 1, 0, dir);
    const LookupResult result =
        f.maps->lookup(querier, f.vectors[querier], 1, adj, 0.0);
    for (const auto& record : result.candidates)
      EXPECT_NE(record.host, f.ecan->node(victim).host);
  }
}

TEST(MapService, ReportDeadDeletesLazily) {
  Fixture f(13);
  f.publish_all();
  const auto querier = f.nodes[0];
  const auto my_cell = f.ecan->cell_of_node(querier, 1);
  const auto adj = f.ecan->adjacent_cell(my_cell, 1, 0, 1);
  LookupResult meta;
  const auto entries =
      f.maps->lookup_entries(querier, f.vectors[querier], 1, adj, 0.0, &meta);
  if (entries.empty()) GTEST_SKIP();
  const auto dead = entries[0].node;
  const std::size_t before = f.maps->total_entries();
  f.maps->report_dead(meta.owner, dead);
  EXPECT_LT(f.maps->total_entries(), before);
  EXPECT_GT(f.maps->stats().lazy_deletions, 0u);
}

TEST(MapService, MigrationOnJoinKeepsEntriesFindable) {
  Fixture f(14, 64);
  f.publish_all();
  util::Rng rng(140);
  // New joins split zones; stored entries must follow their positions.
  for (int i = 0; i < 32; ++i) {
    overlay::NodeId peer = overlay::kInvalidNode;
    const auto host =
        static_cast<net::HostId>(rng.next_u64(f.topology.host_count()));
    const auto id =
        f.ecan->join(host, geom::Point::random(2, rng), &peer);
    f.maps->migrate_after_join(id, peer);
    f.vectors[id] = f.landmarks->measure(*f.oracle, host);
    f.nodes.push_back(id);
  }
  // Every stored entry must live on the owner of its position. Verify via
  // a full republish-free lookup for a few nodes.
  const auto querier = f.nodes[0];
  const auto my_cell = f.ecan->cell_of_node(querier, 1);
  const auto adj = f.ecan->adjacent_cell(my_cell, 1, 0, 1);
  const LookupResult result =
      f.maps->lookup(querier, f.vectors[querier], 1, adj, 0.0);
  EXPECT_GE(result.candidates.size(), 1u);
}

TEST(MapService, ExtractAndRehome) {
  Fixture f(15, 64);
  f.publish_all();
  // Pick a node hosting entries.
  overlay::NodeId host_node = overlay::kInvalidNode;
  for (const auto id : f.nodes)
    if (f.maps->store_size(id) > 0) {
      host_node = id;
      break;
    }
  ASSERT_NE(host_node, overlay::kInvalidNode);
  const std::size_t total_before = f.maps->total_entries();
  auto extracted = f.maps->extract_store(host_node);
  EXPECT_EQ(f.maps->total_entries(), total_before - extracted.size());
  f.maps->rehome(std::move(extracted));
  EXPECT_EQ(f.maps->total_entries(), total_before);
}

TEST(MapService, EntriesPerNodeStatistics) {
  Fixture f(16, 128);
  f.publish_all();
  EXPECT_GT(f.maps->mean_entries_per_node(), 0.0);
  EXPECT_GE(f.maps->max_entries_per_node(),
            static_cast<std::size_t>(f.maps->mean_entries_per_node()));
}

TEST(MapService, RingExpansionFindsRemoteEntries) {
  // With a tiny map grid and an empty landing piece, the TTL-bounded ring
  // search over adjacent pieces should still find candidates.
  MapConfig config;
  config.lookup_ring_ttl = 3;
  Fixture f(17, 128, config);
  f.publish_all();
  const auto querier = f.nodes[0];
  const auto my_cell = f.ecan->cell_of_node(querier, 1);
  const auto adj = f.ecan->adjacent_cell(my_cell, 1, 0, 1);
  LookupResult meta;
  f.maps->lookup_entries(querier, f.vectors[querier], 1, adj, 0.0, &meta);
  EXPECT_GE(meta.pieces_visited, 1u);
}

// Regression: rehome used to append directly to the target store, so a
// record republished while its old host was drained ended up twice in the
// same map, and subscribers never heard about rehomed entries.
TEST(MapService, RehomeAfterRepublishLeavesNoDuplicates) {
  Fixture f(19, 64);
  f.publish_all(/*now=*/0.0);
  overlay::NodeId host_node = overlay::kInvalidNode;
  for (const auto id : f.nodes)
    if (f.maps->store_size(id) > 0) {
      host_node = id;
      break;
    }
  ASSERT_NE(host_node, overlay::kInvalidNode);

  // Drain the host (as the leave protocol does), then republish everyone
  // — the republished copies land back on the still-alive owners.
  auto drained = f.maps->extract_store(host_node);
  ASSERT_FALSE(drained.empty());
  f.publish_all(/*now=*/1'000.0);

  // Replaying the drained store must not duplicate any (node, level,
  // cell) record: the totals match a clean full publish.
  f.maps->rehome(std::move(drained));
  const std::size_t total_after = f.maps->total_entries();
  softstate::MapService fresh(*f.ecan, *f.landmarks, MapConfig{});
  for (const auto id : f.nodes) fresh.publish(id, f.vectors[id], 1'000.0);
  EXPECT_EQ(total_after, fresh.total_entries());
  EXPECT_TRUE(f.maps->check_placement_invariant());
  EXPECT_GT(f.maps->stats().rehomed_entries, 0u);
}

// Regression: the rehomed copy must not roll back a fresher republish —
// the newer record (later expiry) wins.
TEST(MapService, RehomeNeverOverwritesFresherRecord) {
  Fixture f(20, 64);
  f.publish_all(/*now=*/0.0);
  overlay::NodeId host_node = overlay::kInvalidNode;
  for (const auto id : f.nodes)
    if (f.maps->store_size(id) > 0) {
      host_node = id;
      break;
    }
  ASSERT_NE(host_node, overlay::kInvalidNode);
  auto drained = f.maps->extract_store(host_node);
  ASSERT_FALSE(drained.empty());
  f.publish_all(/*now=*/10'000.0);
  f.maps->rehome(std::move(drained));

  // Everything republished at t=10s must survive an expiry sweep right
  // after the t=0 copies would have died.
  const sim::Time just_past_first_ttl = MapConfig{}.ttl_ms + 1.0;
  f.maps->expire_before(just_past_first_ttl);
  softstate::MapService fresh(*f.ecan, *f.landmarks, MapConfig{});
  for (const auto id : f.nodes) fresh.publish(id, f.vectors[id], 0.0);
  EXPECT_EQ(f.maps->total_entries(), fresh.total_entries());
}

// Regression: rehomed entries now flow through place_entry, so the
// pub/sub publish observer sees them (subscribers used to silently miss
// records that moved owners during churn).
TEST(MapService, RehomeFiresPublishObserver) {
  Fixture f(21, 64);
  f.publish_all();
  overlay::NodeId host_node = overlay::kInvalidNode;
  for (const auto id : f.nodes)
    if (f.maps->store_size(id) > 0) {
      host_node = id;
      break;
    }
  ASSERT_NE(host_node, overlay::kInvalidNode);
  auto drained = f.maps->extract_store(host_node);
  ASSERT_FALSE(drained.empty());

  std::size_t observed = 0;
  f.maps->set_publish_observer(
      [&](overlay::NodeId, const StoredEntry&) { ++observed; });
  const std::size_t rehomed = drained.size();
  f.maps->rehome(std::move(drained));
  EXPECT_EQ(observed, rehomed);
}

// Regression: a publish whose overlay route fails used to drop the entry
// with no accounting; it now lands in failed_routes, kept distinct from
// injected message loss so fault experiments can tell the two apart.
TEST(MapService, FailedRoutesDistinctFromInjectedLoss) {
  Fixture f(22, 64);
  f.publish_all();
  EXPECT_EQ(f.maps->stats().failed_routes, 0u);  // healthy overlay

  f.maps->reset_stats();
  sim::FaultConfig lossy;
  lossy.publish_loss = 1.0;
  lossy.seed = 7;
  sim::FaultPlane loss(lossy);
  f.maps->set_fault_plane(&loss);
  f.maps->publish(f.nodes[0], f.vectors[f.nodes[0]], 0.0);
  EXPECT_GT(f.maps->stats().lost_messages, 0u);
  // Injected loss is not routing loss.
  EXPECT_EQ(f.maps->stats().failed_routes, 0u);
}

TEST(MapService, StatsAccumulateRouteHops) {
  Fixture f(18, 64);
  f.publish_all();
  EXPECT_GT(f.maps->stats().route_hops, 0u);
  const auto lookups_before = f.maps->stats().lookups;
  const auto querier = f.nodes[0];
  const auto my_cell = f.ecan->cell_of_node(querier, 1);
  f.maps->lookup(querier, f.vectors[querier], 1, my_cell, 0.0);
  EXPECT_EQ(f.maps->stats().lookups, lookups_before + 1);
  f.maps->reset_stats();
  EXPECT_EQ(f.maps->stats().lookups, 0u);
}

}  // namespace
}  // namespace topo::softstate
