#include "net/hierarchical_rtt_engine.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "net/local_dijkstra.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace topo::net {

namespace {

constexpr double kInf = detail::kInfLatency;

using detail::LocalEdge;
using detail::LocalGraph;
using detail::local_dijkstra;

}  // namespace

HierarchicalRttEngine::HierarchicalRttEngine(const Topology& topology)
    : topology_(&topology) {
  TO_EXPECTS(topology_supports_hierarchy(topology));
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = topology.host_count();
  meta_.resize(n);

  // Dense stub indices and member lists, both in HostId order so the
  // layout (and thus every table) is independent of thread count.
  std::unordered_map<std::int32_t, std::int32_t> dense_stub;
  for (HostId h = 0; h < n; ++h) {
    const HostInfo& info = topology.host(h);
    if (info.kind == HostKind::kTransit) continue;
    const auto [it, inserted] = dense_stub.try_emplace(
        info.stub_domain, static_cast<std::int32_t>(stubs_.size()));
    if (inserted) stubs_.emplace_back();
    Stub& stub = stubs_[static_cast<std::size_t>(it->second)];
    meta_[h].stub = it->second;
    meta_[h].local = static_cast<std::uint32_t>(stub.members.size());
    stub.members.push_back(h);
  }

  // Core vertices: every transit node plus every gateway, in HostId order.
  for (HostId h = 0; h < n; ++h) {
    const HostInfo& info = topology.host(h);
    if (info.kind == HostKind::kTransit || info.gateway) {
      meta_[h].core = static_cast<std::int32_t>(core_hosts_.size());
      core_hosts_.push_back(h);
    }
  }

  // Stub-restricted adjacency: intra-stub links only. Access links are
  // deliberately absent — that restriction is what makes the per-stub
  // matrices reusable as path prefixes/suffixes in the decomposition.
  std::vector<LocalGraph> stub_adj(stubs_.size());
  for (std::size_t s = 0; s < stubs_.size(); ++s)
    stub_adj[s].resize(stubs_[s].members.size());
  for (const Link& link : topology.links()) {
    if (topology.host(link.a).kind != HostKind::kStub ||
        topology.host(link.b).kind != HostKind::kStub)
      continue;
    auto& adj = stub_adj[static_cast<std::size_t>(meta_[link.a].stub)];
    adj[meta_[link.a].local].push_back({meta_[link.b].local, link.latency_ms});
    adj[meta_[link.b].local].push_back({meta_[link.a].local, link.latency_ms});
  }

  // Per-stub all-pairs + gateway columns. Stubs are independent, so the
  // pool fans out one stub per task; every write is keyed by stub index.
  util::ThreadPool& pool = util::ThreadPool::global();
  pool.parallel_for(0, stubs_.size(), 1, [&](std::size_t s) {
    Stub& stub = stubs_[s];
    const std::size_t m = stub.members.size();
    stub.intra.resize(m * m);
    std::vector<double> dist;
    for (std::size_t src = 0; src < m; ++src) {
      local_dijkstra(stub_adj[s], static_cast<std::uint32_t>(src), dist);
      std::copy(dist.begin(), dist.end(), stub.intra.begin() + src * m);
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (!topology.host(stub.members[i]).gateway) continue;
      stub.gateway_local.push_back(static_cast<std::uint32_t>(i));
      stub.gateway_core.push_back(meta_[stub.members[i]].core);
    }
    const std::size_t g = stub.gateway_local.size();
    stub.to_gateway.resize(m * g);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < g; ++j)
        stub.to_gateway[i * g + j] = stub.intra[i * m + stub.gateway_local[j]];
  });

  // Core graph: transit and access links verbatim; stub-stub links are
  // folded into one synthetic edge per same-stub gateway pair, weighted by
  // their stub-restricted distance (this also subsumes any direct
  // gateway-gateway link, which the restricted Dijkstra already saw).
  LocalGraph core_adj(core_hosts_.size());
  for (const Link& link : topology.links()) {
    if (topology.host(link.a).kind == HostKind::kStub &&
        topology.host(link.b).kind == HostKind::kStub)
      continue;
    const auto ca = static_cast<std::uint32_t>(meta_[link.a].core);
    const auto cb = static_cast<std::uint32_t>(meta_[link.b].core);
    core_adj[ca].push_back({cb, link.latency_ms});
    core_adj[cb].push_back({ca, link.latency_ms});
  }
  for (const Stub& stub : stubs_) {
    const std::size_t g = stub.gateway_local.size();
    for (std::size_t i = 0; i + 1 < g; ++i) {
      for (std::size_t j = i + 1; j < g; ++j) {
        const double w =
            stub.to_gateway[stub.gateway_local[i] * g + j];
        if (w == kInf) continue;  // gateways in separate stub components
        const auto ci = static_cast<std::uint32_t>(stub.gateway_core[i]);
        const auto cj = static_cast<std::uint32_t>(stub.gateway_core[j]);
        core_adj[ci].push_back({cj, w});
        core_adj[cj].push_back({ci, w});
      }
    }
  }

  // Core APSP: one Dijkstra per core vertex, writes keyed by row index.
  const std::size_t c = core_hosts_.size();
  core_dist_.resize(c * c);
  pool.parallel_for(0, c, 1, [&](std::size_t src) {
    std::vector<double> dist;
    local_dijkstra(core_adj, static_cast<std::uint32_t>(src), dist);
    std::copy(dist.begin(), dist.end(), core_dist_.begin() + src * c);
  });

  footprint_bytes_ = core_dist_.size() * sizeof(double) +
                     meta_.size() * sizeof(HostMeta) +
                     core_hosts_.size() * sizeof(HostId);
  for (const Stub& stub : stubs_) {
    footprint_bytes_ += (stub.intra.size() + stub.to_gateway.size()) *
                            sizeof(double) +
                        stub.members.size() * sizeof(HostId) +
                        stub.gateway_core.size() *
                            (sizeof(std::int32_t) + sizeof(std::uint32_t));
  }
  build_ms_ = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
}

double HierarchicalRttEngine::core_to_interior(std::int32_t core_index,
                                               const HostMeta& m) const {
  const Stub& stub = stubs_[static_cast<std::size_t>(m.stub)];
  const std::size_t g = stub.gateway_core.size();
  const double* row = stub.to_gateway.data() + m.local * g;
  double best = kInf;
  for (std::size_t j = 0; j < g; ++j)
    best = std::min(best, core_at(core_index, stub.gateway_core[j]) + row[j]);
  return best;
}

double HierarchicalRttEngine::latency_ms(HostId from, HostId to) {
  const HostMeta& a = meta_[from];
  const HostMeta& b = meta_[to];
  if (a.core >= 0 && b.core >= 0) return core_at(a.core, b.core);
  if (a.core >= 0) return core_to_interior(a.core, b);
  if (b.core >= 0) return core_to_interior(b.core, a);

  // Both endpoints are interior stub hosts: min over gateway pairs, plus
  // the direct restricted path when they share a stub (the pair loop with
  // ga == gb covers out-and-back-through-core routes).
  const Stub& sa = stubs_[static_cast<std::size_t>(a.stub)];
  const Stub& sb = stubs_[static_cast<std::size_t>(b.stub)];
  const std::size_t ga = sa.gateway_core.size();
  const std::size_t gb = sb.gateway_core.size();
  const double* arow = sa.to_gateway.data() + a.local * ga;
  const double* brow = sb.to_gateway.data() + b.local * gb;
  double best = a.stub == b.stub
                    ? sa.intra[a.local * sa.members.size() + b.local]
                    : kInf;
  for (std::size_t i = 0; i < ga; ++i) {
    for (std::size_t j = 0; j < gb; ++j) {
      best = std::min(best, arow[i] +
                                core_at(sa.gateway_core[i],
                                        sb.gateway_core[j]) +
                                brow[j]);
    }
  }
  return best;
}

}  // namespace topo::net
