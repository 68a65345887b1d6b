// System-level traffic-plane coverage:
//  * an enabled-but-idle plane leaves every simulated value identical to
//    the disabled system (the gates only act through utilization);
//  * join-time publishes carry the probed load in both the scalar and
//    batched paths (regression: they hardcoded load=0 past the probe);
//  * saturating a watched representative drives kLoadExceeded
//    re-selection away from it (the closed Section 6 loop);
//  * same-seed runs are deterministic, drop draws included.
#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/soft_state_overlay.hpp"
#include "net/latency.hpp"
#include "net/transit_stub.hpp"

namespace topo::core {
namespace {

net::Topology make_topology(std::uint64_t seed) {
  util::Rng rng(seed);
  net::Topology t = net::generate_transit_stub(net::tsk_tiny(), rng);
  net::assign_latencies(t, net::LatencyModel::kManual, rng);
  return t;
}

SystemConfig small_config() {
  SystemConfig config;
  config.landmark_count = 8;
  config.rtt_budget = 8;
  return config;
}

std::vector<net::HostId> random_hosts(const net::Topology& t, std::size_t n,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<net::HostId> hosts;
  for (std::size_t i = 0; i < n; ++i)
    hosts.push_back(static_cast<net::HostId>(rng.next_u64(t.host_count())));
  return hosts;
}

/// Full observable state: every map record (owner, node, load, expiry)
/// plus every expressway table entry.
std::multiset<std::tuple<overlay::NodeId, overlay::NodeId, double, double>>
map_state(SoftStateOverlay& system) {
  std::multiset<std::tuple<overlay::NodeId, overlay::NodeId, double, double>>
      state;
  system.maps().for_each_entry(
      [&](overlay::NodeId owner, const softstate::StoredEntry& stored) {
        state.emplace(owner, stored.entry.node, stored.entry.load,
                      stored.entry.expires_at);
      });
  return state;
}

std::vector<overlay::NodeId> table_state(SoftStateOverlay& system,
                                         const std::vector<overlay::NodeId>&
                                             nodes) {
  std::vector<overlay::NodeId> state;
  for (const auto id : nodes) {
    const int levels = system.ecan().node_level(id);
    for (int h = 1; h <= levels; ++h)
      for (std::size_t dim = 0; dim < system.ecan().dims(); ++dim)
        for (int dir = 0; dir < 2; ++dir)
          state.push_back(system.ecan().table_entry(id, h, dim, dir));
  }
  return state;
}

TEST(TrafficSystem, IdleEnabledPlaneMatchesDisabledSystem) {
  const net::Topology t = make_topology(1);
  const auto hosts = random_hosts(t, 48, 100);

  SystemConfig off = small_config();
  SystemConfig on = small_config();
  on.traffic.enabled = true;
  // No offered flows and no window rollover: utilization stays zero, so
  // every queuing term is 0 and no drop draw ever happens.
  on.traffic.utilization_window_ms = 1e18;

  SoftStateOverlay a(t, off);
  SoftStateOverlay b(t, on);
  ASSERT_FALSE(a.traffic().active());
  ASSERT_TRUE(b.traffic().active());
  std::vector<overlay::NodeId> nodes_a;
  std::vector<overlay::NodeId> nodes_b;
  for (const auto host : hosts) {
    nodes_a.push_back(a.join(host));
    nodes_b.push_back(b.join(host));
  }
  EXPECT_EQ(nodes_a, nodes_b);
  EXPECT_EQ(map_state(a), map_state(b));
  EXPECT_EQ(table_state(a, nodes_a), table_state(b, nodes_b));
  EXPECT_EQ(a.oracle().probe_count(), b.oracle().probe_count());

  util::Rng rng_a(7);
  util::Rng rng_b(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto route_a = a.lookup(nodes_a[rng_a.next_u64(nodes_a.size())],
                                  geom::Point::random(2, rng_a));
    const auto route_b = b.lookup(nodes_b[rng_b.next_u64(nodes_b.size())],
                                  geom::Point::random(2, rng_b));
    EXPECT_EQ(route_a.success, route_b.success);
    EXPECT_EQ(route_a.path, route_b.path);
  }
  EXPECT_EQ(b.traffic().stats().dropped, 0u);
  EXPECT_EQ(b.traffic().stats().delayed, 0u);
}

TEST(TrafficSystem, JoinPublishesProbedLoad) {
  const net::Topology t = make_topology(2);
  SoftStateOverlay system(t, small_config());
  system.set_load_probe([](overlay::NodeId) { return 0.5; });
  // Populate first: a lone node owns the whole space (level 0) and has no
  // high-order maps to publish into.
  for (const auto host : random_hosts(t, 32, 500)) system.join(host);
  const auto id = system.join(0);

  std::size_t records = 0;
  system.maps().for_each_entry(
      [&](overlay::NodeId, const softstate::StoredEntry& stored) {
        if (stored.entry.node != id) return;
        ++records;
        // Regression: the join-time publish used to hardcode load = 0.
        EXPECT_DOUBLE_EQ(stored.entry.load, 0.5);
      });
  EXPECT_GT(records, 0u);
}

TEST(TrafficSystem, TrafficUtilizationIsTheDefaultLoadProbe) {
  const net::Topology t = make_topology(4);
  SystemConfig config = small_config();
  config.traffic.enabled = true;
  SoftStateOverlay system(t, config);
  for (const auto h : random_hosts(t, 32, 600)) system.join(h);
  const net::HostId host = 3;
  const auto id = system.join(host);

  // Saturate one of the host's attached links to 80%.
  const auto nb = system.oracle().topology().neighbors(host);
  ASSERT_FALSE(nb.empty());
  system.traffic().set_link_capacity(nb.front().link_index, 100.0);
  system.traffic().offer_flow(host, nb.front().host, 80.0);
  ASSERT_DOUBLE_EQ(system.traffic().host_utilization(host), 0.8);

  system.republish_now(id);
  std::size_t records = 0;
  system.maps().for_each_entry(
      [&](overlay::NodeId, const softstate::StoredEntry& stored) {
        if (stored.entry.node != id) return;
        ++records;
        EXPECT_DOUBLE_EQ(stored.entry.load, 0.8);
      });
  EXPECT_GT(records, 0u);
}

TEST(TrafficSystem, SaturatingARepresentativeDrivesReselection) {
  const net::Topology t = make_topology(5);
  SystemConfig config = small_config();
  config.traffic.enabled = true;
  config.load_weight = 50.0;    // Section 6 selector, load-dominant
  config.load_threshold = 0.6;  // QoS watch
  SoftStateOverlay system(t, config);

  const auto hosts = random_hosts(t, 64, 300);
  std::vector<overlay::NodeId> nodes;
  for (const auto host : hosts) nodes.push_back(system.join(host));

  // The most-watched representative: saturating it gives the most
  // subscriptions a reason (and enough alternatives) to move away.
  std::unordered_map<overlay::NodeId, std::size_t> watchers;
  system.pubsub().for_each_subscription(
      [&](pubsub::SubscriptionId, const pubsub::Subscription& s) {
        if (s.watched != overlay::kInvalidNode) ++watchers[s.watched];
      });
  ASSERT_FALSE(watchers.empty());
  const auto hot = std::max_element(watchers.begin(), watchers.end(),
                                    [](const auto& a, const auto& b) {
                                      return a.second < b.second;
                                    })
                       ->first;
  const std::size_t watched_before = watchers[hot];

  // Saturate every link attached to the hot node's host to 90%.
  const net::HostId hot_host = system.ecan().node(hot).host;
  for (const auto& nb : system.oracle().topology().neighbors(hot_host)) {
    system.traffic().set_link_capacity(nb.link_index, 100.0);
    system.traffic().offer_flow(hot_host, nb.host, 90.0);
  }
  ASSERT_GE(system.traffic().host_utilization(hot_host), 0.6);

  // Its next republish carries the saturation into the maps; the QoS
  // watches fire and the load-aware selector re-selects.
  const auto reselections_before = system.stats().reselections;
  system.republish_now(hot);
  EXPECT_GT(system.stats().reselections, reselections_before);

  std::size_t watched_after = 0;
  system.pubsub().for_each_subscription(
      [&](pubsub::SubscriptionId, const pubsub::Subscription& s) {
        if (s.watched == hot) ++watched_after;
      });
  // Re-selection moved watchers off the saturated representative.
  EXPECT_LT(watched_after, watched_before);
}

TEST(TrafficSystem, SameSeedRunsAreDeterministic) {
  const net::Topology t = make_topology(6);
  const auto hosts = random_hosts(t, 48, 400);

  const auto run = [&](std::uint64_t seed) {
    SystemConfig config = small_config();
    config.seed = seed;
    config.traffic.enabled = true;
    // Thin links so the system's own control traffic saturates them and
    // the drop stream is actually exercised.
    config.traffic.intra_stub_capacity = 2.0;
    config.traffic.transit_stub_capacity = 2.0;
    config.traffic.intra_transit_capacity = 4.0;
    config.traffic.inter_transit_capacity = 4.0;
    config.traffic.utilization_window_ms = 1000.0;
    SoftStateOverlay system(t, config);
    std::vector<overlay::NodeId> nodes;
    for (const auto host : hosts) nodes.push_back(system.join(host));
    system.run_for(5000.0);
    util::Rng rng(9);
    std::uint64_t successes = 0;
    for (int trial = 0; trial < 100; ++trial) {
      const auto route = system.lookup(nodes[rng.next_u64(nodes.size())],
                                       geom::Point::random(2, rng));
      successes += route.success ? 1u : 0u;
    }
    const auto& ts = system.traffic().stats();
    return std::tuple(successes, ts.messages, ts.dropped, ts.delayed,
                      ts.queue_delay_ms, map_state(system).size());
  };
  const auto first = run(77);
  const auto second = run(77);
  EXPECT_EQ(first, second);
  // The thin-link config actually exercised congestion.
  EXPECT_GT(std::get<2>(first), 0u);
}

}  // namespace
}  // namespace topo::core
