// Replica anti-entropy: range-digest reconciliation of the r-replica
// soft-state maps (softstate/anti_entropy.hpp). Covers the merge
// freshness edges the protocol depends on — a delayed delta cannot
// resurrect an entry past a report_dead cutoff, and an equal-timestamp
// tie transfers nothing while digesting identically on both sides — plus
// the layout-independence of the range digests (full vs compact stores)
// and end-to-end convergence of a lossy overlay through the engine.
#include <memory>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/soft_state_overlay.hpp"
#include "net/latency.hpp"
#include "net/transit_stub.hpp"
#include "softstate/anti_entropy.hpp"
#include "softstate/map_service.hpp"

namespace topo {
namespace {

net::Topology make_topology(std::uint64_t seed) {
  util::Rng rng(seed);
  net::Topology t = net::generate_transit_stub(net::tsk_tiny(), rng);
  net::assign_latencies(t, net::LatencyModel::kManual, rng);
  return t;
}

/// A bare overlay + map service (no facade), with an optional compact
/// twin fed the identical publish sequence.
struct Fixture {
  net::Topology topology;
  std::unique_ptr<net::RttOracle> oracle;
  std::unique_ptr<proximity::LandmarkSet> landmarks;
  std::unique_ptr<overlay::EcanNetwork> ecan;
  std::unique_ptr<softstate::MapService> maps;
  std::unique_ptr<softstate::CompactMapService> compact;
  std::vector<overlay::NodeId> nodes;
  std::unordered_map<overlay::NodeId, proximity::LandmarkVector> vectors;

  explicit Fixture(std::uint64_t seed, std::size_t n,
                   softstate::MapConfig map_config,
                   bool with_compact_twin = false) {
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
    if (with_compact_twin)
      compact = std::make_unique<softstate::CompactMapService>(
          *ecan, *landmarks, map_config);
    for (const auto id : nodes)
      vectors[id] = landmarks->measure(*oracle, ecan->node(id).host);
  }

  void publish_all(sim::Time now) {
    for (const auto id : nodes) {
      maps->publish(id, vectors[id], now);
      if (compact) compact->publish(id, vectors[id], now);
    }
  }

  /// First publisher row whose replica-0 and replica-1 copies live on
  /// different owners and are both present (replica collapse skips the
  /// rows where the map region is too small to separate the copies).
  softstate::ReconRow split_row(std::uint64_t* cell_key_out,
                                sim::Time now) const {
    const softstate::ReconViews views =
        softstate::build_recon_views(*maps, *ecan, now);
    for (const auto& map : views.maps) {
      for (const auto& row : map.rows) {
        if (row.copies[0].present && row.copies[1].present &&
            row.targets[0] != row.targets[1]) {
          *cell_key_out = map.cell_key;
          return row;
        }
      }
    }
    ADD_FAILURE() << "no publisher with separated replica owners";
    return {};
  }
};

softstate::MapConfig replicated_config(int replicas,
                                       bool anti_entropy = true) {
  softstate::MapConfig config;
  config.replicas = replicas;
  config.anti_entropy.enabled = anti_entropy;
  return config;
}

// -- Satellite: freshness edges of the delta merge --------------------------

TEST(AntiEntropy, DeltaCannotResurrectPastReportDeadCutoff) {
  Fixture f(11, 96, replicated_config(2));
  f.publish_all(0.0);

  std::uint64_t cell_key = 0;
  const softstate::ReconRow row = f.split_row(&cell_key, 1.0);
  const overlay::NodeId owner0 = row.targets[0];
  const overlay::NodeId owner1 = row.targets[1];

  // A live reporter declared the publisher dead as of t=10: the copy at
  // owner0 is evicted and the cutoff recorded.
  f.maps->report_dead(owner0, row.node, 10.0);
  EXPECT_EQ(f.maps->dead_cutoff(row.node), 10.0);

  // The delayed delta (the copy owner1 still holds, published at t=0)
  // must NOT come back.
  softstate::MapServiceStats stats;
  EXPECT_EQ(f.maps->sync_replica_copy(owner1, row.node, cell_key, owner0,
                                      /*target_replica=*/0, /*now=*/20.0,
                                      stats),
            softstate::ReconOutcome::kBlockedDead);
  EXPECT_EQ(stats.ae_resurrections_blocked, 1u);
  EXPECT_EQ(stats.ae_entries_pulled, 0u);
  // The evicted copy stayed evicted.
  EXPECT_EQ(f.maps->copy_target_owner(owner0, row.node, cell_key, 0),
            overlay::kInvalidNode);

  // A record republished after the cutoff is a different story: wipe
  // owner0 wholesale, republish at t=30 > cutoff elsewhere, and the delta
  // merge lands.
  f.maps->publish(row.node, f.vectors[row.node], 30.0);
  (void)f.maps->extract_store(owner0);
  EXPECT_EQ(f.maps->sync_replica_copy(owner1, row.node, cell_key, owner0,
                                      /*target_replica=*/0, /*now=*/31.0,
                                      stats),
            softstate::ReconOutcome::kPlaced);
  EXPECT_EQ(stats.ae_entries_pulled, 1u);
  EXPECT_TRUE(f.maps->check_placement_invariant());
}

TEST(AntiEntropy, EqualTimestampTieTransfersNothingAndDigestsEqual) {
  Fixture f(12, 96, replicated_config(2));
  f.publish_all(0.0);

  std::uint64_t cell_key = 0;
  const softstate::ReconRow row = f.split_row(&cell_key, 1.0);

  // Both copies came from the same publish round (equal published_at):
  // neither direction transfers — the deterministic tie-break that keeps
  // sharded digests bit-identical (a transfer on tie would make the
  // outcome depend on which shard reconciled first).
  softstate::MapServiceStats stats;
  EXPECT_EQ(f.maps->sync_replica_copy(row.targets[0], row.node, cell_key,
                                      row.targets[1], 1, 1.0, stats),
            softstate::ReconOutcome::kStale);
  EXPECT_EQ(f.maps->sync_replica_copy(row.targets[1], row.node, cell_key,
                                      row.targets[0], 0, 1.0, stats),
            softstate::ReconOutcome::kStale);
  EXPECT_EQ(stats.ae_entries_pulled, 0u);

  // And the tie digests identically: with every copy from the same round
  // the views are equal, so divergence is exactly zero.
  const auto report =
      softstate::measure_replica_divergence(*f.maps, *f.ecan, 1.0);
  EXPECT_TRUE(report.all_equal);
  EXPECT_EQ(report.max_pairwise_mismatch, 0.0);
  EXPECT_GT(report.rows, 0u);
}

// -- Layout independence of the range digests -------------------------------

TEST(AntiEntropy, FullAndCompactStoresSummarizeIdentically) {
  Fixture f(13, 96, replicated_config(3), /*with_compact_twin=*/true);
  f.publish_all(0.0);

  EXPECT_EQ(f.maps->total_entries(), f.compact->total_entries());
  EXPECT_EQ(softstate::range_digest_hash(*f.maps, *f.ecan, 1.0),
            softstate::range_digest_hash(*f.compact, *f.ecan, 1.0));

  // Still identical after the copies diverge (a second publish round so
  // timestamps move): the digest is a function of the logical records,
  // not the store layout.
  f.publish_all(5'000.0);
  EXPECT_EQ(softstate::range_digest_hash(*f.maps, *f.ecan, 6'000.0),
            softstate::range_digest_hash(*f.compact, *f.ecan, 6'000.0));

  const auto full = softstate::measure_replica_divergence(*f.maps, *f.ecan,
                                                          6'000.0);
  const auto compact = softstate::measure_replica_divergence(
      *f.compact, *f.ecan, 6'000.0);
  EXPECT_EQ(full.max_pairwise_mismatch, compact.max_pairwise_mismatch);
  EXPECT_EQ(full.ranges_compared, compact.ranges_compared);
}

// -- Engine convergence -----------------------------------------------------

TEST(AntiEntropy, EngineRepairsLossDivergence) {
  Fixture f(14, 96, replicated_config(3));
  // One lossy publish round: ~30% of the replica copies go missing, so
  // the per-map views disagree.
  sim::FaultConfig lossy;
  lossy.publish_loss = 0.3;
  lossy.seed = 99;
  sim::FaultPlane loss(lossy);
  f.maps->set_fault_plane(&loss);
  f.publish_all(0.0);
  const auto before =
      softstate::measure_replica_divergence(*f.maps, *f.ecan, 1.0);
  ASSERT_FALSE(before.all_equal);
  ASSERT_GT(before.max_pairwise_mismatch, 0.0);

  // Drive reconciliation rounds synchronously (queue-less engine). The
  // publish-loss knob only gates kPublish messages, so the anti-entropy
  // traffic itself is clean here — convergence should be quick.
  softstate::AntiEntropyEngine<softstate::MapService> engine(
      *f.maps, *f.ecan, /*queue=*/nullptr, /*seed=*/7);
  for (int round = 0; round < 3; ++round) engine.run_round(1.0);

  const auto after =
      softstate::measure_replica_divergence(*f.maps, *f.ecan, 1.0);
  EXPECT_TRUE(after.all_equal) << "mismatch fraction still "
                               << after.max_pairwise_mismatch;
  EXPECT_TRUE(f.maps->check_placement_invariant());
  const auto& stats = f.maps->stats();
  EXPECT_GT(stats.ae_sessions, 0u);
  EXPECT_GT(stats.ae_ranges_compared, stats.ae_ranges_synced);
  EXPECT_GT(stats.ae_entries_pulled, 0u);
  EXPECT_GT(stats.ae_summary_bytes, 0u);
  EXPECT_GT(stats.ae_full_bytes, stats.ae_delta_bytes);
}

// -- Facade wiring ----------------------------------------------------------

TEST(AntiEntropy, FacadeSchedulesRoundsOnlyWhenEnabled) {
  util::Rng topo_rng(21);
  net::Topology topology =
      net::generate_transit_stub(net::tsk_tiny(), topo_rng);
  net::assign_latencies(topology, net::LatencyModel::kManual, topo_rng);

  core::SystemConfig config;
  config.landmark_count = 8;
  config.rtt_budget = 6;
  config.map.replicas = 3;
  config.seed = 23;

  {
    core::SoftStateOverlay system(topology, config);
    EXPECT_EQ(system.anti_entropy(), nullptr);
  }

  config.map.anti_entropy.enabled = true;
  config.map.anti_entropy.interval_ms = 5'000.0;
  core::SoftStateOverlay system(topology, config);
  ASSERT_NE(system.anti_entropy(), nullptr);
  EXPECT_TRUE(system.anti_entropy()->running());

  util::Rng rng(24);
  for (std::size_t i = 0; i < 48; ++i)
    system.join(
        static_cast<net::HostId>(rng.next_u64(topology.host_count())));
  system.run_for(30'000.0);
  EXPECT_GE(system.anti_entropy()->rounds(), 3u);
  EXPECT_GT(system.maps().stats().ae_sessions, 0u);
  const auto report = softstate::measure_replica_divergence(
      system.maps(), system.ecan(), system.events().now());
  EXPECT_TRUE(report.all_equal);
  EXPECT_TRUE(system.maps().check_placement_invariant());

  system.anti_entropy()->stop();
  const auto rounds = system.anti_entropy()->rounds();
  system.run_for(30'000.0);
  EXPECT_EQ(system.anti_entropy()->rounds(), rounds);
}

}  // namespace
}  // namespace topo
