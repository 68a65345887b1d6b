// Streamed world construction (net/streamed_build.hpp) must be
// bit-identical to the classic two-pass recipe — generate_transit_stub,
// then assign_latencies, then the HierarchicalRttEngine constructor — for
// both latency models, any batch size, and multi-homed stubs. The streamed
// path's whole point is releasing per-stub scratch between batches; these
// tests pin that the released state never changes a single bit of the
// final topology, link weights, or engine answers.
#include "net/streamed_build.hpp"

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/latency.hpp"
#include "net/transit_stub.hpp"
#include "util/rng.hpp"

namespace topo::net {
namespace {

struct Case {
  const char* name;
  LatencyModel model;
  double multihome;
  std::size_t batch_stubs;
  std::uint64_t seed;
};

// Without this gtest dumps the struct's bytes, `name`'s address included,
// into the test name, which would change from build to build.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class StreamedBuildEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(StreamedBuildEquivalence, MatchesTwoPassBuild) {
  const Case& c = GetParam();
  TransitStubConfig config = tsk_tiny();
  config.stub_multihome_probability = c.multihome;

  // Two-pass reference: generate, assign, construct.
  util::Rng topo_rng(c.seed);
  Topology reference = generate_transit_stub(config, topo_rng);
  util::Rng latency_rng(c.seed + 1);
  assign_latencies(reference, c.model, latency_rng);
  HierarchicalRttEngine reference_engine(reference);

  // Streamed: same two seeds, same model, bounded batches.
  StreamedBuildOptions options;
  options.latency_model = c.model;
  options.batch_stubs = c.batch_stubs;
  util::Rng streamed_topo_rng(c.seed);
  util::Rng streamed_latency_rng(c.seed + 1);
  StreamedWorld world = build_streamed_world(config, streamed_topo_rng,
                                             streamed_latency_rng, options);

  // Topology: identical hosts and identical links — endpoints, classes
  // and (bit-exact) latencies, in the same insertion order.
  ASSERT_EQ(world.topology.host_count(), reference.host_count());
  for (HostId h = 0; h < reference.host_count(); ++h) {
    EXPECT_EQ(world.topology.host(h).kind, reference.host(h).kind);
    EXPECT_EQ(world.topology.host(h).stub_domain,
              reference.host(h).stub_domain);
    EXPECT_EQ(world.topology.host(h).gateway, reference.host(h).gateway);
  }
  ASSERT_EQ(world.topology.link_count(), reference.link_count());
  for (std::size_t i = 0; i < reference.link_count(); ++i) {
    EXPECT_EQ(world.topology.links()[i].a, reference.links()[i].a);
    EXPECT_EQ(world.topology.links()[i].b, reference.links()[i].b);
    EXPECT_EQ(world.topology.links()[i].latency_ms,
              reference.links()[i].latency_ms);
  }

  // Engine: same decomposition, same tables (footprint is a byte count
  // over every table, so equality pins the sizes), same exact answers.
  ASSERT_NE(world.engine, nullptr);
  EXPECT_EQ(world.engine->core_size(), reference_engine.core_size());
  EXPECT_EQ(world.engine->stub_count(), reference_engine.stub_count());
  EXPECT_EQ(world.engine->footprint_bytes(),
            reference_engine.footprint_bytes());

  util::Rng pair_rng(c.seed + 2);
  const auto n = static_cast<HostId>(reference.host_count());
  for (int q = 0; q < 2000; ++q) {
    const auto a = static_cast<HostId>(pair_rng.next_u64(n));
    const auto b = static_cast<HostId>(pair_rng.next_u64(n));
    if (a == b) continue;
    EXPECT_EQ(world.engine->latency_ms(a, b),
              reference_engine.latency_ms(a, b))
        << a << " -> " << b;
  }

  // The batching actually batched: tsk_tiny has 12 stub domains.
  const std::size_t stubs = world.engine->stub_count();
  EXPECT_EQ(world.batches, (stubs + c.batch_stubs - 1) / c.batch_stubs);
  EXPECT_GT(world.peak_scratch_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, StreamedBuildEquivalence,
    ::testing::Values(
        Case{"manual_batch3", LatencyModel::kManual, 0.0, 3, 11},
        Case{"manual_batch1", LatencyModel::kManual, 0.0, 1, 12},
        Case{"manual_hugebatch", LatencyModel::kManual, 0.0, 1024, 13},
        Case{"gtitm_batch4", LatencyModel::kGtItmRandom, 0.0, 4, 14},
        Case{"gtitm_multihomed", LatencyModel::kGtItmRandom, 0.5, 2, 15},
        Case{"manual_multihomed", LatencyModel::kManual, 0.5, 5, 16}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace topo::net
