// Parameterized property sweeps: the structural invariants of every
// overlay family, exercised across dimensionalities, seeds and churn
// patterns (gtest TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <string>

#include <gtest/gtest.h>

#include "overlay/chord.hpp"
#include "overlay/ecan.hpp"
#include "overlay/pastry.hpp"
#include "util/stats.hpp"

namespace topo::overlay {
namespace {

// ---------------------------------------------------------------------
// CAN / eCAN sweep over (dims, seed).

struct CanSweepParam {
  std::size_t dims;
  std::uint64_t seed;
};

class CanSweep : public ::testing::TestWithParam<CanSweepParam> {};

TEST_P(CanSweep, ChurnPreservesAllInvariants) {
  const auto [dims, seed] = GetParam();
  util::Rng rng(seed);
  EcanNetwork ecan(dims);
  std::vector<NodeId> live;
  net::HostId next_host = 0;
  for (int step = 0; step < 150; ++step) {
    if (live.size() < 4 || rng.next_bool(0.6)) {
      live.push_back(ecan.join_random(next_host++, rng));
    } else {
      const std::size_t pick = rng.next_u64(live.size());
      ecan.leave(live[pick]);
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  EXPECT_TRUE(ecan.check_invariants());
  EXPECT_TRUE(ecan.check_membership_index());

  // Volumes tile the space exactly; every key has exactly one owner.
  double volume = 0.0;
  for (const NodeId id : ecan.live_nodes())
    volume += ecan.node(id).zone.volume();
  EXPECT_NEAR(volume, 1.0, 1e-9);
  for (int trial = 0; trial < 20; ++trial) {
    const geom::Point p = geom::Point::random(dims, rng);
    int owners = 0;
    for (const NodeId id : ecan.live_nodes())
      if (ecan.node(id).zone.contains(p)) ++owners;
    EXPECT_EQ(owners, 1);
    EXPECT_TRUE(ecan.node(ecan.owner_of(p)).zone.contains(p));
  }
}

TEST_P(CanSweep, RoutingDeliversFromEveryTenthNode) {
  const auto [dims, seed] = GetParam();
  util::Rng rng(seed + 1);
  EcanNetwork ecan(dims);
  for (net::HostId h = 0; h < 120; ++h) ecan.join_random(h, rng);
  const auto live = ecan.live_nodes();
  for (std::size_t i = 0; i < live.size(); i += 10) {
    const geom::Point key = geom::Point::random(dims, rng);
    const RouteResult plain = ecan.route(live[i], key);
    const RouteResult fast = ecan.route_ecan(live[i], key);
    ASSERT_TRUE(plain.success);
    ASSERT_TRUE(fast.success);
    EXPECT_EQ(plain.path.back(), fast.path.back());
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSeeds, CanSweep,
    ::testing::Values(CanSweepParam{2, 1}, CanSweepParam{2, 2},
                      CanSweepParam{3, 1}, CanSweepParam{3, 3},
                      CanSweepParam{4, 1}, CanSweepParam{5, 1}),
    [](const auto& info) {
      return "d" + std::to_string(info.param.dims) + "s" +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------
// Chord sweep over (id_bits, seed).

// `bits` is as wide as `seed` so the struct has no padding: gtest dumps a
// parameter's raw bytes into the test name, and padding bytes are garbage.
struct RingSweepParam {
  std::size_t bits;
  std::uint64_t seed;
};

class ChordSweep : public ::testing::TestWithParam<RingSweepParam> {};

TEST_P(ChordSweep, ResponsibilityIsTotalAndUnique) {
  const auto [bits, seed] = GetParam();
  util::Rng rng(seed);
  ChordNetwork chord(bits);
  for (int i = 0; i < 60; ++i)
    chord.join_random(static_cast<net::HostId>(i), rng);
  // Every key has exactly one responsible node: successor_of is total and
  // consistent with ring order.
  for (int trial = 0; trial < 50; ++trial) {
    const ChordId key = rng.next_u64(chord.ring_size());
    const NodeId owner = chord.successor_of(key);
    ASSERT_TRUE(chord.alive(owner));
    // No live node lies strictly between key and its owner.
    for (const NodeId n : chord.live_nodes()) {
      if (n == owner) continue;
      EXPECT_FALSE(chord.in_arc(chord.node(n).id, key, chord.node(owner).id))
          << "node between key and owner";
    }
  }
}

TEST_P(ChordSweep, RoutingMatchesSuccessorUnderChurn) {
  const auto [bits, seed] = GetParam();
  util::Rng rng(seed + 7);
  ChordNetwork chord(bits);
  std::vector<NodeId> live;
  net::HostId next_host = 0;
  class First final : public FingerSelector {
   public:
    NodeId select(NodeId, int, std::span<const NodeId> c) override {
      return c.front();
    }
  } selector;
  for (int step = 0; step < 120; ++step) {
    if (live.size() < 4 || rng.next_bool(0.6)) {
      live.push_back(chord.join_random(next_host++, rng));
    } else {
      const std::size_t pick = rng.next_u64(live.size());
      chord.leave(live[pick]);
      live.erase(live.begin() + static_cast<long>(pick));
    }
    if (step % 40 == 39) chord.build_all_fingers(selector);
  }
  for (int trial = 0; trial < 30; ++trial) {
    const NodeId from = live[rng.next_u64(live.size())];
    const ChordId key = rng.next_u64(chord.ring_size());
    const RouteResult route = chord.route(from, key);
    ASSERT_TRUE(route.success);
    EXPECT_EQ(route.path.back(), chord.successor_of(key));
  }
}

INSTANTIATE_TEST_SUITE_P(BitsAndSeeds, ChordSweep,
                         ::testing::Values(RingSweepParam{10, 1},
                                           RingSweepParam{16, 2},
                                           RingSweepParam{24, 3},
                                           RingSweepParam{32, 4}),
                         [](const auto& info) {
                           return "b" + std::to_string(info.param.bits) +
                                  "s" + std::to_string(info.param.seed);
                         });

// ---------------------------------------------------------------------
// Pastry sweep over (digit_bits, seed).

class PastrySweep : public ::testing::TestWithParam<RingSweepParam> {};

TEST_P(PastrySweep, OwnerIsUniqueMinimizer) {
  const auto [digit_bits, seed] = GetParam();
  util::Rng rng(seed);
  PastryNetwork pastry(24, digit_bits);
  for (int i = 0; i < 60; ++i)
    pastry.join_random(static_cast<net::HostId>(i), rng);
  for (int trial = 0; trial < 50; ++trial) {
    const PastryId key = rng.next_u64(pastry.ring_size());
    const NodeId owner = pastry.numerically_closest(key);
    const PastryId best = pastry.numeric_distance(pastry.node(owner).id, key);
    for (const NodeId n : pastry.live_nodes())
      EXPECT_GE(pastry.numeric_distance(pastry.node(n).id, key), best);
  }
}

TEST_P(PastrySweep, RoutingDeliversUnderChurn) {
  const auto [digit_bits, seed] = GetParam();
  util::Rng rng(seed + 13);
  PastryNetwork pastry(24, digit_bits);
  class First final : public RoutingSlotSelector {
   public:
    NodeId select(NodeId, int, int, std::span<const NodeId> c) override {
      return c.front();
    }
  } selector;
  std::vector<NodeId> live;
  net::HostId next_host = 0;
  for (int step = 0; step < 120; ++step) {
    if (live.size() < 4 || rng.next_bool(0.6)) {
      live.push_back(pastry.join_random(next_host++, rng));
    } else {
      const std::size_t pick = rng.next_u64(live.size());
      pastry.leave(live[pick]);
      live.erase(live.begin() + static_cast<long>(pick));
    }
    if (step % 40 == 39) pastry.build_all_tables(selector);
  }
  for (int trial = 0; trial < 30; ++trial) {
    const NodeId from = live[rng.next_u64(live.size())];
    const PastryId key = rng.next_u64(pastry.ring_size());
    const RouteResult route = pastry.route(from, key);
    ASSERT_TRUE(route.success);
    EXPECT_EQ(route.path.back(), pastry.numerically_closest(key));
  }
}

INSTANTIATE_TEST_SUITE_P(DigitsAndSeeds, PastrySweep,
                         ::testing::Values(RingSweepParam{2, 1},
                                           RingSweepParam{3, 2},
                                           RingSweepParam{4, 3},
                                           RingSweepParam{6, 4}),
                         [](const auto& info) {
                           return "b" + std::to_string(info.param.bits) +
                                  "s" + std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace topo::overlay
