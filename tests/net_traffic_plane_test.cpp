#include "net/traffic_plane.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "net/latency.hpp"
#include "net/rtt_oracle.hpp"
#include "net/transit_stub.hpp"

namespace topo::net {
namespace {

/// A 3-host chain 0 -(link 0)- 1 -(link 1)- 2 with 5 ms links: exact
/// paths, so the queuing math can be asserted to the digit.
Topology chain_topology() {
  Topology t;
  HostInfo transit;
  transit.kind = HostKind::kTransit;
  transit.transit_domain = 0;
  t.add_host(transit);
  t.add_host(transit);
  HostInfo stub;
  stub.kind = HostKind::kStub;
  stub.transit_domain = 0;
  stub.stub_domain = 0;
  t.add_host(stub);
  t.add_link(0, 1, LinkClass::kIntraTransit);
  t.add_link(1, 2, LinkClass::kTransitStub);
  t.freeze();
  t.mutable_link(0).latency_ms = 5.0;
  t.mutable_link(1).latency_ms = 5.0;
  return t;
}

TrafficConfig enabled_config() {
  TrafficConfig config;
  config.enabled = true;
  config.seed = 7;
  return config;
}

TEST(TrafficPlane, InactiveByDefault) {
  TrafficPlane plane;
  EXPECT_FALSE(plane.active());
  // Enabled but unbound is still inactive (nothing to gate against).
  TrafficPlane unbound(enabled_config());
  EXPECT_FALSE(unbound.active());
}

TEST(TrafficPlane, CapacitiesAssignedPerLinkClass) {
  const Topology t = chain_topology();
  TrafficConfig config = enabled_config();
  config.intra_transit_capacity = 2000.0;
  config.transit_stub_capacity = 1000.0;
  TrafficPlane plane(config);
  plane.bind_topology(&t);
  EXPECT_TRUE(plane.active());
  EXPECT_DOUBLE_EQ(plane.link_capacity(0), 2000.0);
  EXPECT_DOUBLE_EQ(plane.link_capacity(1), 1000.0);
}

TEST(TrafficPlane, MM1QueuingDelayMath) {
  const Topology t = chain_topology();
  TrafficPlane plane(enabled_config());
  plane.bind_topology(&t);
  plane.set_link_capacity(0, 100.0);
  plane.set_link_capacity(1, 100.0);
  // 50 msg/s against 100 msg/s capacity: u = 0.5 on both links.
  plane.offer_flow(0, 2, 50.0);
  EXPECT_DOUBLE_EQ(plane.link_utilization(0), 0.5);
  EXPECT_DOUBLE_EQ(plane.link_utilization(1), 0.5);
  // Wq = (1000/100) * 0.5/0.5 = 10 ms per link one-way; the round-trip
  // term over the 2-link path is 2 * (10 + 10) = 40 ms.
  EXPECT_DOUBLE_EQ(plane.queuing_delay_ms(0, 2), 40.0);
  EXPECT_DOUBLE_EQ(plane.queuing_delay_ms(2, 0), 40.0);  // symmetric
  EXPECT_DOUBLE_EQ(plane.queuing_delay_ms(1, 1), 0.0);   // self: no links
}

TEST(TrafficPlane, DelayMonotoneInOfferedLoad) {
  const Topology t = chain_topology();
  TrafficPlane plane(enabled_config());
  plane.bind_topology(&t);
  plane.set_link_capacity(0, 100.0);
  plane.set_link_capacity(1, 100.0);
  double previous = 0.0;
  for (const double rate : {10.0, 30.0, 60.0, 90.0, 120.0}) {
    plane.clear_flows();
    plane.offer_flow(0, 2, rate);
    const double delay = plane.queuing_delay_ms(0, 2);
    EXPECT_GT(delay, previous) << "rate " << rate;
    previous = delay;
  }
  // Past the utilization cap the delay stays finite (drops take over).
  plane.clear_flows();
  plane.offer_flow(0, 2, 1e6);
  EXPECT_TRUE(std::isfinite(plane.queuing_delay_ms(0, 2)));
}

TEST(TrafficPlane, UncongestedMessagesAlwaysDeliver) {
  const Topology t = chain_topology();
  TrafficPlane plane(enabled_config());
  plane.bind_topology(&t);
  for (int i = 0; i < 100; ++i) {
    const auto verdict = plane.message(0, 2);
    EXPECT_TRUE(verdict.delivered);
    EXPECT_DOUBLE_EQ(verdict.delay_ms, 0.0);
  }
  EXPECT_EQ(plane.stats().messages, 100u);
  EXPECT_EQ(plane.stats().dropped, 0u);
  EXPECT_EQ(plane.stats().delayed, 0u);
}

TEST(TrafficPlane, SaturationDropsDeterministically) {
  const Topology t = chain_topology();
  TrafficConfig config = enabled_config();
  config.drop_threshold = 0.9;
  config.drop_full = 2.0;
  TrafficPlane plane(config);
  plane.bind_topology(&t);
  plane.set_link_capacity(0, 100.0);
  // 2x capacity = drop_full utilization: P(drop) = 1, no randomness left.
  plane.offer_flow(0, 1, 200.0);
  EXPECT_FALSE(plane.message(0, 1).delivered);
  EXPECT_EQ(plane.stats().dropped, 1u);
  // Partial saturation drops with the seeded stream: same seed, same
  // verdict sequence.
  plane.clear_flows();
  plane.offer_flow(0, 1, 130.0);  // u = 1.3 -> P(drop) ~ 0.36
  std::vector<bool> verdicts;
  for (int i = 0; i < 64; ++i) verdicts.push_back(plane.message(0, 1).delivered);
  EXPECT_NE(std::count(verdicts.begin(), verdicts.end(), false), 0);
  EXPECT_NE(std::count(verdicts.begin(), verdicts.end(), true), 0);

  TrafficPlane replay(config);
  replay.bind_topology(&t);
  replay.set_link_capacity(0, 100.0);
  replay.offer_flow(0, 1, 200.0);
  EXPECT_FALSE(replay.message(0, 1).delivered);
  replay.clear_flows();
  replay.offer_flow(0, 1, 130.0);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(replay.message(0, 1).delivered, verdicts[static_cast<std::size_t>(i)]);
}

TEST(TrafficPlane, HostUtilizationIsMaxOverAttachedLinks) {
  const Topology t = chain_topology();
  TrafficPlane plane(enabled_config());
  plane.bind_topology(&t);
  plane.set_link_capacity(0, 100.0);
  plane.set_link_capacity(1, 100.0);
  plane.offer_flow(0, 1, 80.0);  // loads link 0 only
  EXPECT_DOUBLE_EQ(plane.host_utilization(0), 0.8);
  EXPECT_DOUBLE_EQ(plane.host_utilization(1), 0.8);  // max(0.8, 0.0)
  EXPECT_DOUBLE_EQ(plane.host_utilization(2), 0.0);
}

TEST(TrafficPlane, GatedMessagesFoldIntoMeasuredRate) {
  const Topology t = chain_topology();
  TrafficPlane plane(enabled_config());
  plane.bind_topology(&t);
  plane.set_link_capacity(0, 100.0);
  plane.set_link_capacity(1, 100.0);
  for (int i = 0; i < 50; ++i) (void)plane.message(0, 2);
  // Before the window rolls over, counts are pending, not utilization.
  EXPECT_DOUBLE_EQ(plane.link_utilization(0), 0.0);
  plane.advance_to(1000.0);  // 50 messages / 1 s = 50 msg/s
  EXPECT_DOUBLE_EQ(plane.link_utilization(0), 0.5);
  EXPECT_DOUBLE_EQ(plane.link_utilization(1), 0.5);
  // An idle follow-up window decays the measured rate back to zero.
  plane.advance_to(2000.0);
  EXPECT_DOUBLE_EQ(plane.link_utilization(0), 0.0);
}

TEST(TrafficPlane, MessageViaComposesOverlayHops) {
  const Topology t = chain_topology();
  TrafficPlane plane(enabled_config());
  plane.bind_topology(&t);
  plane.set_link_capacity(0, 100.0);
  plane.set_link_capacity(1, 100.0);
  plane.offer_flow(0, 2, 50.0);  // 10 ms one-way per link
  const std::vector<HostId> path = {0, 1, 2};
  const auto verdict = plane.message_via(path, [](HostId h) { return h; });
  EXPECT_TRUE(verdict.delivered);
  // Hop 0->1 crosses link 0 (10 ms), hop 1->2 crosses link 1 (10 ms).
  EXPECT_DOUBLE_EQ(verdict.delay_ms, 20.0);
  const std::vector<HostId> self = {1};
  const auto self_verdict = plane.message_via(self, [](HostId h) { return h; });
  EXPECT_TRUE(self_verdict.delivered);
  EXPECT_DOUBLE_EQ(self_verdict.delay_ms, 0.0);
}

TEST(TrafficPlane, OracleComposesQueuingDelayOntoRtt) {
  util::Rng rng(11);
  Topology t = generate_transit_stub(tsk_tiny(), rng);
  assign_latencies(t, LatencyModel::kManual, rng);
  RttOracle oracle(t);
  const HostId a = 0;
  const HostId b = static_cast<HostId>(t.host_count() - 1);
  const double base = oracle.latency_ms(a, b);

  TrafficPlane plane(enabled_config());
  plane.bind_topology(&t);
  oracle.set_traffic_plane(&plane);
  // Idle plane: active, but zero utilization adds exactly nothing.
  EXPECT_DOUBLE_EQ(oracle.latency_ms(a, b), base);

  plane.offer_flow(a, b, 0.5 * plane.config().intra_stub_capacity);
  const double loaded = oracle.latency_ms(a, b);
  EXPECT_DOUBLE_EQ(loaded, base + plane.queuing_delay_ms(a, b));
  EXPECT_GT(loaded, base);

  // Detaching restores the propagation-only value.
  oracle.set_traffic_plane(nullptr);
  EXPECT_DOUBLE_EQ(oracle.latency_ms(a, b), base);
}

}  // namespace
}  // namespace topo::net
