#include "proximity/landmarks.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "net/latency.hpp"
#include "net/transit_stub.hpp"

namespace topo::proximity {
namespace {

struct Fixture {
  net::Topology topology;
  std::unique_ptr<net::RttOracle> oracle;

  explicit Fixture(std::uint64_t seed,
                   net::LatencyModel model = net::LatencyModel::kManual) {
    util::Rng rng(seed);
    topology = net::generate_transit_stub(net::tsk_tiny(), rng);
    net::assign_latencies(topology, model, rng);
    oracle = std::make_unique<net::RttOracle>(topology);
  }
};

TEST(VectorDistance, Euclidean) {
  EXPECT_DOUBLE_EQ(vector_distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(vector_distance({1, 1, 1}, {1, 1, 1}), 0.0);
}

TEST(LandmarkSet, ChooseRandomPicksDistinctHosts) {
  Fixture f(1);
  util::Rng rng(2);
  const LandmarkSet set =
      LandmarkSet::choose_random(f.topology, 10, rng, {});
  EXPECT_EQ(set.count(), 10);
  const std::set<net::HostId> unique(set.hosts().begin(), set.hosts().end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(LandmarkSet, MeasureProducesRttVectorAndCountsProbes) {
  Fixture f(3);
  util::Rng rng(4);
  const LandmarkSet set = LandmarkSet::choose_random(f.topology, 8, rng, {});
  f.oracle->reset_probe_count();
  const LandmarkVector v = set.measure(*f.oracle, 0);
  EXPECT_EQ(v.size(), 8u);
  EXPECT_EQ(f.oracle->probe_count(), 8u);  // one probe per landmark
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(v[i], f.oracle->latency_ms(0, set.hosts()[i]));
}

TEST(LandmarkSet, OrderingSortsByRtt) {
  Fixture f(5);
  util::Rng rng(6);
  const LandmarkSet set = LandmarkSet::choose_random(f.topology, 6, rng, {});
  const LandmarkVector v = set.measure(*f.oracle, 10);
  const auto order = set.ordering(v);
  ASSERT_EQ(order.size(), 6u);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LE(v[static_cast<std::size_t>(order[i - 1])],
              v[static_cast<std::size_t>(order[i])]);
  // Ordering is a permutation.
  EXPECT_EQ(std::set<int>(order.begin(), order.end()).size(), 6u);
}

TEST(LandmarkSet, CloseHostsGetCloseLandmarkNumbers) {
  // Hosts in the same stub domain should have much closer landmark numbers
  // (as unit scalars) than hosts in different transit domains, on average.
  Fixture f(7);
  util::Rng rng(8);
  LandmarkConfig config;
  config.scale_ms = 60.0;  // tsk-tiny manual diameter is a few tens of ms
  const LandmarkSet set =
      LandmarkSet::choose_random(f.topology, 8, rng, config);

  // Gather a same-stub pair and a cross-domain pair.
  double same_total = 0.0;
  double cross_total = 0.0;
  int same_count = 0;
  int cross_count = 0;
  for (net::HostId a = 0; a < f.topology.host_count(); a += 13) {
    for (net::HostId b = a + 1; b < f.topology.host_count(); b += 17) {
      const auto& ia = f.topology.host(a);
      const auto& ib = f.topology.host(b);
      const double gap = std::abs(set.unit_number(set.measure(*f.oracle, a)) -
                                  set.unit_number(set.measure(*f.oracle, b)));
      if (ia.stub_domain >= 0 && ia.stub_domain == ib.stub_domain) {
        same_total += gap;
        ++same_count;
      } else if (ia.transit_domain != ib.transit_domain) {
        cross_total += gap;
        ++cross_count;
      }
    }
  }
  ASSERT_GT(same_count, 0);
  ASSERT_GT(cross_count, 0);
  EXPECT_LT(same_total / same_count, cross_total / cross_count);
}

TEST(LandmarkSet, VectorIndexSubsetReducesNumberBits) {
  Fixture f(9);
  util::Rng rng(10);
  LandmarkConfig full;
  full.bits_per_dim = 4;
  LandmarkConfig subset = full;
  subset.vector_index_size = 3;
  const LandmarkSet full_set =
      LandmarkSet::choose_random(f.topology, 12, rng, full);
  util::Rng rng2(10);
  const LandmarkSet subset_set =
      LandmarkSet::choose_random(f.topology, 12, rng2, subset);
  EXPECT_EQ(full_set.number_bits(), 12 * 4);
  EXPECT_EQ(subset_set.number_bits(), 3 * 4);
}

TEST(LandmarkSet, LandmarkNumberClampsLargeRtts) {
  Fixture f(11);
  util::Rng rng(12);
  LandmarkConfig config;
  config.scale_ms = 0.001;  // everything saturates
  const LandmarkSet set =
      LandmarkSet::choose_random(f.topology, 4, rng, config);
  const LandmarkVector v = set.measure(*f.oracle, 0);
  // Must not crash and must produce the max-corner cell deterministically.
  const auto n1 = set.landmark_number(v);
  const auto n2 = set.landmark_number(v);
  EXPECT_EQ(n1, n2);
}

TEST(LandmarkSet, UnitNumberInUnitInterval) {
  Fixture f(13);
  util::Rng rng(14);
  const LandmarkSet set = LandmarkSet::choose_random(f.topology, 5, rng, {});
  for (net::HostId h = 0; h < 50; h += 5) {
    const double u = set.unit_number(set.measure(*f.oracle, h));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SquaredDistance, IsTheSquareUnderTheSameAccumulation) {
  // vector_distance is sqrt of the same dim-order accumulation, so the two
  // must agree bit-for-bit through sqrt.
  util::Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t m = 1 + rng.next_u64(20);
    LandmarkVector a(m), b(m);
    for (std::size_t i = 0; i < m; ++i) {
      a[i] = rng.next_double(0.0, 400.0);
      b[i] = rng.next_double(0.0, 400.0);
    }
    EXPECT_EQ(vector_distance(a, b), std::sqrt(squared_distance(a, b)));
    EXPECT_EQ(squared_distance(a, b), squared_distance(b, a));
  }
  EXPECT_DOUBLE_EQ(squared_distance({0, 0}, {3, 4}), 25.0);
}

TEST(SquaredDistancesSoa, BitIdenticalToScalarKernel) {
  util::Rng rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t m = 1 + rng.next_u64(16);
    const std::size_t count = 1 + rng.next_u64(40);
    LandmarkVector query(m);
    for (auto& q : query) q = rng.next_double(0.0, 400.0);
    std::vector<LandmarkVector> candidates(count, LandmarkVector(m));
    std::vector<double> soa(m * count);
    for (std::size_t i = 0; i < count; ++i)
      for (std::size_t d = 0; d < m; ++d) {
        candidates[i][d] = rng.next_double(0.0, 400.0);
        soa[d * count + i] = candidates[i][d];  // dim-major lanes
      }
    std::vector<double> out(count);
    squared_distances_soa(soa, count, query, out);
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(out[i], squared_distance(candidates[i], query)) << i;
  }
}

TEST(LandmarkSet, LandmarkNumbersMatchScalarDerivation) {
  Fixture f(25);
  util::Rng rng(26);
  for (const int index_size : {0, 4}) {
    LandmarkConfig config;
    config.vector_index_size = index_size;
    const LandmarkSet set =
        LandmarkSet::choose_random(f.topology, 10, rng, config);
    std::vector<LandmarkVector> vectors;
    for (net::HostId h = 0; h < 40; h += 4)
      vectors.push_back(set.measure(*f.oracle, h));

    std::vector<std::uint32_t> scratch(
        static_cast<std::size_t>(set.number_dims()));
    for (std::size_t i = 0; i < vectors.size(); ++i)
      EXPECT_EQ(set.landmark_number(vectors[i], scratch),
                set.landmark_number(vectors[i]));
  }
}

TEST(Factorial, SmallValues) {
  EXPECT_EQ(factorial(0), 1u);
  EXPECT_EQ(factorial(1), 1u);
  EXPECT_EQ(factorial(5), 120u);
  EXPECT_EQ(factorial(10), 3628800u);
}

TEST(OrderingRank, BijectiveForSmallM) {
  // All 4! permutations map to distinct ranks in [0, 24).
  std::vector<int> perm = {0, 1, 2, 3};
  std::set<std::uint64_t> ranks;
  std::sort(perm.begin(), perm.end());
  do {
    const std::uint64_t rank = ordering_rank(perm);
    EXPECT_LT(rank, 24u);
    ranks.insert(rank);
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(ranks.size(), 24u);
}

TEST(OrderingRank, IdentityIsZeroReverseIsMax) {
  EXPECT_EQ(ordering_rank({0, 1, 2, 3, 4}), 0u);
  EXPECT_EQ(ordering_rank({4, 3, 2, 1, 0}), factorial(5) - 1);
}

}  // namespace
}  // namespace topo::proximity
