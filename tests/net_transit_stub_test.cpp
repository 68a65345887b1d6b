#include "net/transit_stub.hpp"

#include <algorithm>
#include <map>
#include <string>

#include <gtest/gtest.h>

namespace topo::net {
namespace {

TEST(TransitStubPresets, HostCountsMatchPaperScale) {
  EXPECT_EQ(tsk_large().total_hosts(), 32 + 9984);
  EXPECT_EQ(tsk_small().total_hosts(), 8 + 9984);
  // The contrast the paper relies on: same edge size, different backbones.
  EXPECT_GT(tsk_large().transit_domains, tsk_small().transit_domains);
  EXPECT_LT(tsk_large().hosts_per_stub, tsk_small().hosts_per_stub);
}

class TransitStubStructure
    : public ::testing::TestWithParam<std::pair<std::string, std::uint64_t>> {
 protected:
  TransitStubConfig config() const {
    const std::string name = GetParam().first;
    if (name == "tiny") return tsk_tiny();
    TransitStubConfig c = tsk_tiny();
    if (name == "multihomed") {
      c.stub_multihome_probability = 0.5;
      c.name = "multihomed";
    }
    if (name == "single-domain") {
      c.transit_domains = 1;
      c.name = "single-domain";
    }
    if (name == "one-host-stubs") {
      c.hosts_per_stub = 1;
      c.name = "one-host-stubs";
    }
    return c;
  }
};

TEST_P(TransitStubStructure, GeneratesValidTopology) {
  util::Rng rng(GetParam().second);
  const TransitStubConfig c = config();
  const Topology t = generate_transit_stub(c, rng);

  EXPECT_EQ(static_cast<int>(t.host_count()), c.total_hosts());
  EXPECT_TRUE(t.is_connected());

  // Transit / stub counts.
  const auto transit = t.hosts_of_kind(HostKind::kTransit);
  EXPECT_EQ(static_cast<int>(transit.size()),
            c.transit_domains * c.transit_nodes_per_domain);

  // Stub domains are correctly sized and homogeneous.
  std::map<int, int> stub_sizes;
  for (HostId h = 0; h < t.host_count(); ++h) {
    const HostInfo& info = t.host(h);
    if (info.kind == HostKind::kStub) {
      ASSERT_GE(info.stub_domain, 0);
      ++stub_sizes[info.stub_domain];
    }
  }
  const int expected_stub_domains = c.transit_domains *
                                    c.transit_nodes_per_domain *
                                    c.stub_domains_per_transit;
  EXPECT_EQ(static_cast<int>(stub_sizes.size()), expected_stub_domains);
  for (const auto& [domain, size] : stub_sizes) {
    (void)domain;
    EXPECT_EQ(size, c.hosts_per_stub);
  }
}

TEST_P(TransitStubStructure, LinkClassesAreConsistent) {
  util::Rng rng(GetParam().second);
  const TransitStubConfig c = config();
  const Topology t = generate_transit_stub(c, rng);

  for (const Link& link : t.links()) {
    const HostInfo& a = t.host(link.a);
    const HostInfo& b = t.host(link.b);
    switch (link.link_class) {
      case LinkClass::kInterTransit:
        EXPECT_EQ(a.kind, HostKind::kTransit);
        EXPECT_EQ(b.kind, HostKind::kTransit);
        EXPECT_NE(a.transit_domain, b.transit_domain);
        break;
      case LinkClass::kIntraTransit:
        EXPECT_EQ(a.kind, HostKind::kTransit);
        EXPECT_EQ(b.kind, HostKind::kTransit);
        EXPECT_EQ(a.transit_domain, b.transit_domain);
        break;
      case LinkClass::kTransitStub:
        EXPECT_NE(a.kind, b.kind);
        break;
      case LinkClass::kIntraStub:
        EXPECT_EQ(a.kind, HostKind::kStub);
        EXPECT_EQ(b.kind, HostKind::kStub);
        EXPECT_EQ(a.stub_domain, b.stub_domain);
        break;
    }
  }
}

TEST_P(TransitStubStructure, DeterministicGivenSeed) {
  const TransitStubConfig c = config();
  util::Rng rng1(GetParam().second);
  util::Rng rng2(GetParam().second);
  const Topology t1 = generate_transit_stub(c, rng1);
  const Topology t2 = generate_transit_stub(c, rng2);
  ASSERT_EQ(t1.link_count(), t2.link_count());
  for (std::size_t i = 0; i < t1.link_count(); ++i) {
    EXPECT_EQ(t1.links()[i].a, t2.links()[i].a);
    EXPECT_EQ(t1.links()[i].b, t2.links()[i].b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, TransitStubStructure,
    // std::string, not const char*: gtest prints a char pointer's address
    // into the test name, which would change from build to build.
    ::testing::Values(std::make_pair(std::string("tiny"), 1ULL),
                      std::make_pair(std::string("tiny"), 99ULL),
                      std::make_pair(std::string("multihomed"), 2ULL),
                      std::make_pair(std::string("single-domain"), 3ULL),
                      std::make_pair(std::string("one-host-stubs"), 4ULL)),
    [](const auto& info) {
      std::string name = info.param.first + "_seed" +
                         std::to_string(info.param.second);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

/// Collects the stream verbatim for comparison against the monolithic
/// generator.
class CollectingSink final : public TransitStubSink {
 public:
  void on_core(std::span<const HostInfo> hosts,
               std::span<const Link> links) override {
    ++core_calls;
    core_hosts.assign(hosts.begin(), hosts.end());
    core_links.assign(links.begin(), links.end());
  }
  void on_stub(StubChunk&& chunk) override {
    chunks.push_back(std::move(chunk));
  }

  int core_calls = 0;
  std::vector<HostInfo> core_hosts;
  std::vector<Link> core_links;
  std::vector<StubChunk> chunks;
};

TEST_P(TransitStubStructure, StreamIsBitIdenticalToMaterialized) {
  const TransitStubConfig c = config();
  util::Rng rng_full(GetParam().second);
  const Topology t = generate_transit_stub(c, rng_full);

  util::Rng rng_stream(GetParam().second);
  CollectingSink sink;
  generate_transit_stub_stream(c, rng_stream, sink);

  // Identical RNG consumption: both rngs continue to the same next draw.
  EXPECT_EQ(rng_full.next_u64(1u << 30), rng_stream.next_u64(1u << 30));

  // Stream shape: one core prelude, then contiguous ascending chunks.
  ASSERT_EQ(sink.core_calls, 1);
  HostId next_host = static_cast<HostId>(sink.core_hosts.size());
  std::int32_t next_stub = 0;
  for (const StubChunk& chunk : sink.chunks) {
    EXPECT_EQ(chunk.stub_domain, next_stub++);
    EXPECT_EQ(chunk.first_host, next_host);
    next_host += chunk.host_count;
  }
  ASSERT_EQ(static_cast<std::size_t>(next_host), t.host_count());

  // Hosts: transit prelude then chunk ranges reproduce every HostInfo.
  for (HostId h = 0; h < sink.core_hosts.size(); ++h) {
    EXPECT_EQ(t.host(h).kind, sink.core_hosts[h].kind);
    EXPECT_EQ(t.host(h).transit_domain, sink.core_hosts[h].transit_domain);
    EXPECT_EQ(t.host(h).stub_domain, sink.core_hosts[h].stub_domain);
  }
  for (const StubChunk& chunk : sink.chunks) {
    for (std::uint32_t i = 0; i < chunk.host_count; ++i) {
      const HostInfo& info = t.host(chunk.first_host + i);
      EXPECT_EQ(info.kind, HostKind::kStub);
      EXPECT_EQ(info.transit_domain, chunk.transit_domain);
      EXPECT_EQ(info.stub_domain, chunk.stub_domain);
    }
  }

  // Links: core links followed by each chunk's links, in exactly the
  // materialized insertion order.
  std::vector<Link> streamed_links = sink.core_links;
  for (const StubChunk& chunk : sink.chunks)
    streamed_links.insert(streamed_links.end(), chunk.links.begin(),
                          chunk.links.end());
  ASSERT_EQ(streamed_links.size(), t.link_count());
  for (std::size_t i = 0; i < streamed_links.size(); ++i) {
    EXPECT_EQ(streamed_links[i].a, t.links()[i].a);
    EXPECT_EQ(streamed_links[i].b, t.links()[i].b);
    EXPECT_EQ(static_cast<int>(streamed_links[i].link_class),
              static_cast<int>(t.links()[i].link_class));
  }
}

TEST(TransitStubFull, PaperScaleTopologiesGenerate) {
  // The two ~10k-host presets build and are connected (used by benches).
  for (const TransitStubConfig& c : {tsk_large(), tsk_small()}) {
    util::Rng rng(7);
    const Topology t = generate_transit_stub(c, rng);
    EXPECT_EQ(static_cast<int>(t.host_count()), c.total_hosts());
    EXPECT_TRUE(t.is_connected());
  }
}

}  // namespace
}  // namespace topo::net
