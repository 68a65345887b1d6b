// Hierarchical exact-latency engine for transit-stub topologies.
//
// Every paper experiment runs on GT-ITM-style transit-stub graphs: stub
// domains of a few dozen hosts, each homed to the small transit core by
// one or two access links. Shortest paths therefore decompose exactly:
//
//   d(a, b) = min( d_stub(a, b),                           [same stub only]
//                  min over gateway pairs (ga, gb) of
//                      d_stub(a, ga) + core(ga, gb) + d_stub(gb, b) )
//
// where d_stub is the shortest path restricted to the endpoints' stub
// subgraph and core() is the all-pairs distance over an auxiliary "core
// graph" whose vertices are the transit nodes plus every gateway, and
// whose edges are the transit links, the access links, and one synthetic
// edge per same-stub gateway pair weighted by their stub-restricted
// distance. The decomposition is exact because a stub host's only links
// are intra-stub links and its domain's access links: any path between
// stubs is an intra-stub prefix, a core-graph walk (stub traversals by
// multi-homed domains appear as the synthetic edges), and an intra-stub
// suffix. Same-stub pairs additionally take the min with the direct
// restricted path, which covers out-and-back-through-core routes via the
// gateway-pair term (including ga == gb).
//
// Precompute: per-stub all-pairs via multi-source restricted Dijkstra
// (10k hosts => ~10k Dijkstras over ~39-node subgraphs), APSP over the
// few-hundred-vertex core graph, and per-host distance-to-gateway
// vectors. After that every query is O(gateways^2) = O(1) lookups —
// typically 1-4 core-matrix reads — with no per-row caching, no locks and
// a few MB of total state (vs ~80 KB per cached 10k-host Dijkstra row).
//
// Link latencies are quantized to the 2^-20 ms grid (net/latency.cpp), so
// every partial sum here is exact in double arithmetic and the engine's
// answers are bit-for-bit identical to full-graph Dijkstra's.
#pragma once

#include <cstdint>
#include <vector>

#include "net/rtt_engine.hpp"

namespace topo::net {

class HierarchicalRttEngine final : public RttEngine {
 public:
  /// Requires topology_supports_hierarchy(topology). Precomputes on the
  /// global thread pool; the engine is immutable (and thus trivially
  /// thread-safe) afterwards.
  explicit HierarchicalRttEngine(const Topology& topology);

  const char* name() const override { return "hierarchical"; }

  double latency_ms(HostId from, HostId to) override;

  /// All pairs are precomputed; warming is a no-op.
  void warm(std::span<const HostId> sources,
            util::ThreadPool& pool) override {
    (void)sources;
    (void)pool;
  }

  // -- Introspection (benches, docs) --------------------------------------

  /// Transit nodes + gateways: the vertex count of the core APSP matrix.
  std::size_t core_size() const { return core_hosts_.size(); }
  std::size_t stub_count() const { return stubs_.size(); }
  /// Bytes held in the precomputed tables (matrices + vectors).
  std::size_t footprint_bytes() const { return footprint_bytes_; }
  /// Wall-clock spent in the constructor's precompute.
  double build_ms() const { return build_ms_; }

 private:
  /// Streamed construction (net/streamed_build.hpp): the builder fills the
  /// tables chunk by chunk, releasing per-stub scratch as it goes, and is
  /// pinned bit-identical to this constructor by net_streamed_build_test.
  friend class StreamedEngineBuilder;
  HierarchicalRttEngine() = default;

  struct HostMeta {
    std::int32_t stub = -1;    // dense stub index; -1 for transit nodes
    std::int32_t core = -1;    // core-matrix index; -1 for interior hosts
    std::uint32_t local = 0;   // index into the stub's member list
  };

  struct Stub {
    std::vector<HostId> members;
    /// Core-matrix index of each gateway (member order).
    std::vector<std::int32_t> gateway_core;
    /// Member-list index of each gateway (same order as gateway_core).
    std::vector<std::uint32_t> gateway_local;
    /// members^2 row-major stub-restricted all-pairs distances.
    std::vector<double> intra;
    /// members x gateways row-major: intra columns at the gateways.
    std::vector<double> to_gateway;
  };

  double core_at(std::int32_t a, std::int32_t b) const {
    return core_dist_[static_cast<std::size_t>(a) * core_hosts_.size() +
                      static_cast<std::size_t>(b)];
  }

  /// min over `m`'s stub gateways gb of core(core_index, gb) + d_stub(m, gb).
  double core_to_interior(std::int32_t core_index, const HostMeta& m) const;

  const Topology* topology_ = nullptr;  // unused after construction
  std::vector<HostMeta> meta_;      // one per host
  std::vector<Stub> stubs_;
  std::vector<HostId> core_hosts_;  // core index -> host
  std::vector<double> core_dist_;   // core_size^2 row-major APSP
  std::size_t footprint_bytes_ = 0;
  double build_ms_ = 0.0;
};

}  // namespace topo::net
