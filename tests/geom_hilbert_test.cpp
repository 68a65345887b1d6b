#include "geom/hilbert.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace topo::geom {
namespace {

using util::BigUint;

/// |a - b| for grid coordinates.
std::uint32_t diff(std::uint32_t a, std::uint32_t b) {
  return a > b ? a - b : b - a;
}

class HilbertParam
    : public ::testing::TestWithParam<std::pair<int, int>> {};  // dims, bits

TEST_P(HilbertParam, BijectiveOverWholeGrid) {
  const auto [dims, bits] = GetParam();
  const HilbertCurve curve(dims, bits);
  const std::uint64_t total = 1ULL << (dims * bits);
  std::set<std::vector<std::uint32_t>> seen;
  for (std::uint64_t i = 0; i < total; ++i) {
    const auto coords = curve.coords(BigUint(i));
    ASSERT_EQ(coords.size(), static_cast<std::size_t>(dims));
    for (const auto c : coords) ASSERT_LT(c, 1u << bits);
    ASSERT_TRUE(seen.insert(coords).second) << "duplicate at index " << i;
    // Round trip.
    ASSERT_EQ(curve.index(coords).low64(), i);
  }
  EXPECT_EQ(seen.size(), total);
}

TEST_P(HilbertParam, ConsecutiveIndicesAreGridAdjacent) {
  // The defining Hilbert property: each curve step moves exactly one cell
  // along exactly one axis.
  const auto [dims, bits] = GetParam();
  const HilbertCurve curve(dims, bits);
  const std::uint64_t total = 1ULL << (dims * bits);
  auto previous = curve.coords(BigUint(0));
  for (std::uint64_t i = 1; i < total; ++i) {
    const auto current = curve.coords(BigUint(i));
    std::uint32_t manhattan = 0;
    for (int d = 0; d < dims; ++d)
      manhattan += diff(current[static_cast<std::size_t>(d)],
                        previous[static_cast<std::size_t>(d)]);
    ASSERT_EQ(manhattan, 1u) << "step " << i;
    previous = current;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallGrids, HilbertParam,
                         ::testing::Values(std::make_pair(1, 4),
                                           std::make_pair(2, 1),
                                           std::make_pair(2, 2),
                                           std::make_pair(2, 4),
                                           std::make_pair(2, 6),
                                           std::make_pair(3, 2),
                                           std::make_pair(3, 4),
                                           std::make_pair(4, 2),
                                           std::make_pair(5, 2)),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param.first) +
                                  "b" + std::to_string(info.param.second);
                         });

TEST(Hilbert, HighDimensionalRoundTrip) {
  // Landmark-space scale: 30 dims x 8 bits = 240-bit indices.
  const HilbertCurve curve(30, 8);
  util::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint32_t> coords(30);
    for (auto& c : coords)
      c = static_cast<std::uint32_t>(rng.next_u64(256));
    const BigUint index = curve.index(coords);
    EXPECT_EQ(curve.coords(index), coords);
  }
}

TEST(Hilbert, IndexBitsAccounting) {
  EXPECT_EQ(HilbertCurve(2, 6).index_bits(), 12);
  EXPECT_EQ(HilbertCurve(30, 8).index_bits(), 240);
  EXPECT_EQ(HilbertCurve(2, 6).dims(), 2);
  EXPECT_EQ(HilbertCurve(2, 6).bits(), 6);
}

TEST(Hilbert, LocalityForward) {
  // Close indices -> close cells. Quantified: for the 2-d curve, cells
  // within index distance k are within Euclidean distance O(sqrt(k)).
  const HilbertCurve curve(2, 8);
  util::Rng rng(7);
  const std::uint64_t total = 1ULL << 16;
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint64_t i = rng.next_u64(total - 16);
    const std::uint64_t j = i + 1 + rng.next_u64(15);  // within 16 steps
    const auto a = curve.coords(BigUint(i));
    const auto b = curve.coords(BigUint(j));
    const double dx = diff(a[0], b[0]);
    const double dy = diff(a[1], b[1]);
    const double euclid = std::sqrt(dx * dx + dy * dy);
    // Index distance <= 16 -> cell distance <= 16 trivially, but the curve
    // does far better; assert the non-trivial bound 3*sqrt(k+1).
    EXPECT_LE(euclid, 3.0 * std::sqrt(static_cast<double>(j - i) + 1.0));
  }
}

TEST(Hilbert, LocalityBeatsRowMajorOnAverage) {
  // Average cell distance of consecutive index pairs: the Hilbert curve is
  // always 1; row-major order jumps rows (distance ~2^bits at row ends).
  const int bits = 5;
  const HilbertCurve curve(2, bits);
  const std::uint64_t total = 1ULL << (2 * bits);
  double hilbert_total = 0.0;
  double rowmajor_total = 0.0;
  const std::uint32_t width = 1u << bits;
  for (std::uint64_t i = 0; i + 1 < total; ++i) {
    const auto a = curve.coords(BigUint(i));
    const auto b = curve.coords(BigUint(i + 1));
    hilbert_total += diff(a[0], b[0]) + diff(a[1], b[1]);
    const std::uint32_t ax = static_cast<std::uint32_t>(i) % width;
    const std::uint32_t ay = static_cast<std::uint32_t>(i) / width;
    const std::uint32_t bx = static_cast<std::uint32_t>(i + 1) % width;
    const std::uint32_t by = static_cast<std::uint32_t>(i + 1) / width;
    rowmajor_total += diff(ax, bx) + diff(ay, by);
  }
  EXPECT_LT(hilbert_total, rowmajor_total);
  EXPECT_DOUBLE_EQ(hilbert_total, static_cast<double>(total - 1));
}

TEST(Hilbert, ScratchIndexOverloadMatchesAndAllowsAliasing) {
  util::Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const int dims = 1 + static_cast<int>(rng.next_u64(12));
    const int bits = 1 + static_cast<int>(rng.next_u64(8));
    const HilbertCurve curve(dims, bits);
    std::vector<std::uint32_t> coords(static_cast<std::size_t>(dims));
    for (auto& c : coords)
      c = static_cast<std::uint32_t>(rng.next_u64(1ULL << bits));
    const BigUint expected = curve.index(coords);

    std::vector<std::uint32_t> scratch(static_cast<std::size_t>(dims));
    EXPECT_EQ(curve.index(coords, scratch), expected);
    // Exact aliasing: the caller's buffer doubles as the working copy.
    std::vector<std::uint32_t> aliased = coords;
    EXPECT_EQ(curve.index(aliased, aliased), expected);
  }
}

TEST(Hilbert, OriginMapsToIndexZero) {
  for (int dims : {1, 2, 3, 5}) {
    const HilbertCurve curve(dims, 4);
    const std::vector<std::uint32_t> origin(
        static_cast<std::size_t>(dims), 0);
    EXPECT_EQ(curve.index(origin), BigUint::zero());
  }
}

}  // namespace
}  // namespace topo::geom
