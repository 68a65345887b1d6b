// Parameterized end-to-end sweep of the SoftStateOverlay facade across
// maintenance configurations: with/without subscriptions, short/long TTLs,
// lossy/lossless publishes. In every configuration, churn must leave the
// system consistent and delivering.
#include <string>

#include <gtest/gtest.h>

#include "core/soft_state_overlay.hpp"
#include "net/latency.hpp"
#include "net/transit_stub.hpp"

namespace topo::core {
namespace {

struct ConfigParam {
  const char* name;
  bool subscribe;
  double ttl_ms;
  double republish_ms;
  double publish_loss;
  double load_weight;
};

class SystemConfigSweep : public ::testing::TestWithParam<ConfigParam> {};

TEST_P(SystemConfigSweep, ChurnStaysConsistentAndDelivers) {
  const ConfigParam& p = GetParam();

  util::Rng topo_rng(11);
  net::Topology topology =
      net::generate_transit_stub(net::tsk_tiny(), topo_rng);
  net::assign_latencies(topology, net::LatencyModel::kManual, topo_rng);

  SystemConfig config;
  config.landmark_count = 8;
  config.rtt_budget = 6;
  config.subscribe_on_join = p.subscribe;
  config.map.ttl_ms = p.ttl_ms;
  config.republish_interval_ms = p.republish_ms;
  config.load_weight = p.load_weight;
  // Declared before the system so it outlives every message path.
  sim::FaultConfig lossy;
  lossy.publish_loss = p.publish_loss;
  lossy.seed = 7;
  sim::FaultPlane loss(lossy);
  SoftStateOverlay system(topology, config);
  if (p.publish_loss > 0.0) system.maps().set_fault_plane(&loss);

  util::Rng rng(17);
  std::vector<overlay::NodeId> live;
  for (int i = 0; i < 48; ++i)
    live.push_back(system.join(
        static_cast<net::HostId>(rng.next_u64(topology.host_count()))));

  for (int step = 0; step < 120; ++step) {
    const double dice = rng.next_double();
    if (live.size() < 12 || dice < 0.45) {
      live.push_back(system.join(
          static_cast<net::HostId>(rng.next_u64(topology.host_count()))));
    } else if (dice < 0.72) {
      const std::size_t pick = rng.next_u64(live.size());
      system.leave(live[pick]);
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      const std::size_t pick = rng.next_u64(live.size());
      system.crash(live[pick]);
      live.erase(live.begin() + static_cast<long>(pick));
    }
    system.run_for(200.0);
  }

  EXPECT_TRUE(system.ecan().check_invariants());
  EXPECT_TRUE(system.ecan().check_membership_index());
  EXPECT_TRUE(system.maps().check_placement_invariant());
  for (int trial = 0; trial < 25; ++trial) {
    const auto from = live[rng.next_u64(live.size())];
    const overlay::RouteResult route =
        system.lookup(from, geom::Point::random(2, rng));
    ASSERT_TRUE(route.success);
    EXPECT_EQ(route.path.back(),
              system.ecan().owner_of(
                  system.ecan().node(route.path.back()).zone.center()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SystemConfigSweep,
    ::testing::Values(
        ConfigParam{"pubsub_long_ttl", true, 60'000.0, 20'000.0, 0.0, 0.0},
        ConfigParam{"pubsub_short_ttl", true, 2'000.0, 600.0, 0.0, 0.0},
        ConfigParam{"no_pubsub", false, 60'000.0, 20'000.0, 0.0, 0.0},
        ConfigParam{"lossy_publishes", true, 10'000.0, 2'000.0, 0.3, 0.0},
        ConfigParam{"load_aware", true, 60'000.0, 20'000.0, 0.0, 4.0},
        ConfigParam{"decay_only", false, 3'000.0, 1e12, 0.0, 0.0}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace topo::core
