// Pluggable exact-latency engines behind net::RttOracle.
//
// Both engines answer the same contract — latency_ms(a, b) is the exact
// shortest-path latency over the physical topology, bit-for-bit identical
// between them (link weights are quantized to the 2^-20 ms grid, so every
// path sum is exact in double arithmetic regardless of summation order):
//
//  * kDijkstra     — the classic per-source row cache: one full-graph
//    Dijkstra per distinct source, memoized, optionally bounded
//    (DijkstraRttEngine). Works on any topology.
//  * kHierarchical — exploits the transit-stub structure every paper
//    experiment runs on: per-stub all-pairs distances, APSP over the small
//    transit core, and per-host gateway vectors are precomputed once, after
//    which ANY pair is answered in O(1) with no per-row caching
//    (HierarchicalRttEngine). Requires complete domain metadata.
//
// Selection: the RTT_ENGINE env var (`auto` | `hierarchical` | `dijkstra`,
// default `auto`) or an explicit RttEngineKind passed to RttOracle /
// core::SystemConfig. `auto` picks the hierarchical engine whenever the
// topology carries usable metadata and falls back to Dijkstra otherwise —
// e.g. for topologies loaded via topology_io from files that predate the
// domain annotations, or hand-built graphs without them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "net/graph.hpp"

namespace topo::util {
class ThreadPool;
}  // namespace topo::util

namespace topo::net {

enum class RttEngineKind { kAuto, kDijkstra, kHierarchical };

const char* rtt_engine_kind_name(RttEngineKind kind);

/// Parses "auto" / "dijkstra" / "hierarchical"; anything else logs a
/// warning and yields kAuto.
RttEngineKind rtt_engine_kind_from_string(const std::string& name);

/// The RTT_ENGINE env var, parsed as above; unset -> kAuto.
RttEngineKind rtt_engine_kind_from_env();

/// Exact-latency backend. Implementations must be safe to query from many
/// threads at once; all answers are exact shortest-path latencies, so
/// results never depend on engine choice, cache state or interleaving.
class RttEngine {
 public:
  RttEngine() = default;
  virtual ~RttEngine() = default;

  RttEngine(const RttEngine&) = delete;
  RttEngine& operator=(const RttEngine&) = delete;

  virtual const char* name() const = 0;

  /// Exact shortest-path latency in ms (`from != to` — the oracle facade
  /// short-circuits self queries).
  virtual double latency_ms(HostId from, HostId to) = 0;

  /// Bulk precompute-and-pin hint for the given sources. The Dijkstra
  /// engine builds (and pins) their rows across `pool`; engines that are
  /// already fully precomputed treat this as a no-op.
  virtual void warm(std::span<const HostId> sources,
                    util::ThreadPool& pool) = 0;

  // Row-cache knobs and counters. Meaningful for the Dijkstra engine;
  // benign defaults elsewhere (a fully-precomputed engine has no rows to
  // cap, drop or count). Quiescent-only where the Dijkstra engine says so.
  virtual void clear_cache() {}
  virtual void set_row_cap(std::size_t cap) { (void)cap; }
  virtual std::size_t row_cap() const { return 0; }
  virtual std::size_t cached_rows() const { return 0; }
  virtual std::uint64_t dijkstra_runs() const { return 0; }
};

/// True iff `topology` carries complete, consistent transit-stub metadata:
/// every stub host names its stub domain, stub-stub links stay within one
/// domain, gateway flags match the access links, and every stub domain has
/// at least one gateway. This is what the hierarchical engine's exactness
/// proof rests on; topologies that fail it fall back to Dijkstra.
bool topology_supports_hierarchy(const Topology& topology);

/// Builds the requested engine. kAuto resolves to hierarchical when
/// `topology_supports_hierarchy`, Dijkstra otherwise; an explicit
/// kHierarchical request on an unsupported topology also falls back to
/// Dijkstra (with a warning) — results are exact either way.
std::unique_ptr<RttEngine> make_rtt_engine(const Topology& topology,
                                           RttEngineKind kind);

}  // namespace topo::net
