// Round-trip-time oracle: the simulation's single source of latency.
//
// Every latency the simulation observes — overlay hop costs, landmark
// measurements, explicit RTT probes — goes through this class. It
// separately counts *probes*: latency queries that model actual network
// measurements a real node would have to perform (as opposed to the
// simulator's own bookkeeping, which uses `latency_ms`). The probe counter
// is what the paper's "number of RTT measurements" axes report.
//
// The actual shortest-path computation lives behind the RttEngine
// interface (net/rtt_engine.hpp):
//
//  * hierarchical — precomputes per-stub all-pairs, a transit-core APSP
//    and per-host gateway vectors from the topology's transit-stub
//    metadata, then answers any pair in O(1). The default whenever the
//    metadata is present.
//  * dijkstra     — the classic per-source cached-row fallback for
//    arbitrary topologies (one full-graph Dijkstra per distinct source,
//    memoized, optionally bounded).
//
// Both are exact and bit-for-bit identical (link weights sit on the 2^-20
// ms quantization grid, so path sums are exact doubles); engine choice
// never changes any simulated number. Select with the RTT_ENGINE env var
// (`auto`/`hierarchical`/`dijkstra`) or an explicit RttEngineKind.
//
// Concurrency model. The oracle is safe to query from many threads at
// once, which is what lets the bench drivers fan trials out over a thread
// pool while sharing one oracle. The hierarchical engine is immutable
// after construction; the Dijkstra engine's row cache is lock-free on hits
// and double-check-locked on fills (see dijkstra_rtt_engine.hpp).
// `clear_cache`/`set_row_cap`/`set_measurement_noise` remain
// quiescent-only calls.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "net/graph.hpp"
#include "net/rtt_engine.hpp"
#include "net/traffic_plane.hpp"
#include "util/rng.hpp"

namespace topo::util {
class ThreadPool;
}  // namespace topo::util

namespace topo::net {

class RttOracle {
 public:
  /// Engine kind from the RTT_ENGINE env var (default: auto).
  explicit RttOracle(const Topology& topology);
  /// Explicit engine choice (kAuto resolves from the topology metadata;
  /// kHierarchical falls back to Dijkstra when the metadata is missing).
  RttOracle(const Topology& topology, RttEngineKind kind);
  /// Adopts a pre-built engine — e.g. the streamed hierarchical build
  /// (net/streamed_build.hpp), whose tables already exist and would be
  /// recomputed wholesale by the other constructors.
  RttOracle(const Topology& topology, std::unique_ptr<RttEngine> engine);
  ~RttOracle();

  RttOracle(const RttOracle&) = delete;
  RttOracle& operator=(const RttOracle&) = delete;

  const Topology& topology() const { return *topology_; }

  /// The resolved backend ("hierarchical" or "dijkstra").
  const char* engine_name() const { return engine_->name(); }
  const RttEngine& engine() const { return *engine_; }

  /// Attaches a traffic plane: while the plane is active, every latency
  /// this oracle reports carries the round-trip queuing delay of the
  /// physical path on top of the engine's propagation RTT — probes,
  /// landmark vectors and overlay hop costs all see load. With the plane
  /// detached or inactive the added term is exactly absent (not merely
  /// zero), so results are bit-identical to a build without it. An
  /// oracle with a traffic plane attached is single-threaded (the plane's
  /// path cache mutates on query); benches that share an oracle across
  /// trials share a queue-free one.
  void set_traffic_plane(TrafficPlane* plane) { traffic_ = plane; }
  const TrafficPlane* traffic_plane() const { return traffic_; }

  /// Simulator-side latency lookup (free; not counted as a probe).
  double latency_ms(HostId from, HostId to) {
    TO_EXPECTS(from < topology_->host_count());
    TO_EXPECTS(to < topology_->host_count());
    if (from == to) return 0.0;
    double rtt = engine_->latency_ms(from, to);
    if (traffic_ != nullptr && traffic_->active())
      rtt += traffic_->queuing_delay_ms(from, to);
    return rtt;
  }

  /// A modeled network measurement: counted, and — unlike the simulator's
  /// own bookkeeping — subject to the configured measurement noise, the
  /// way a real ping sample jitters around the propagation latency.
  double probe_rtt(HostId from, HostId to) {
    probe_count_.fetch_add(1, std::memory_order_relaxed);
    double rtt = latency_ms(from, to);
    if (noise_fraction_ > 0.0) {
      // The draw order (and thus each sample) depends on probe
      // interleaving; parallel benches keep determinism by giving each
      // trial its own oracle or its own seeded noise stream.
      std::lock_guard lock(noise_mutex_);
      rtt *= 1.0 + noise_rng_.next_double(-noise_fraction_, noise_fraction_);
    }
    return rtt;
  }

  /// Enables multiplicative measurement noise: each probe is scaled by a
  /// uniform factor in [1-f, 1+f]. This is what the Section 5.4 SVD
  /// optimization is designed to suppress; the ablation bench exercises
  /// both regimes. Call before sharing the oracle across threads.
  void set_measurement_noise(double fraction, std::uint64_t seed) {
    TO_EXPECTS(fraction >= 0.0 && fraction < 1.0);
    noise_fraction_ = fraction;
    noise_rng_ = util::Rng(seed);
  }
  double measurement_noise() const { return noise_fraction_; }

  /// Among `candidates`, the host with smallest latency from `from`,
  /// charged as one probe per candidate. Empty candidates -> kInvalidHost.
  HostId probe_nearest(HostId from, std::span<const HostId> candidates);

  /// The true nearest host to `from` within `candidates` (oracle; free).
  HostId nearest(HostId from, std::span<const HostId> candidates);

  std::uint64_t probe_count() const {
    return probe_count_.load(std::memory_order_relaxed);
  }
  void reset_probe_count() {
    probe_count_.store(0, std::memory_order_relaxed);
  }

  /// Full-graph Dijkstras the engine has run (0 for hierarchical — its
  /// precompute uses restricted subgraph Dijkstras, not cached rows).
  std::uint64_t dijkstra_runs() const { return engine_->dijkstra_runs(); }

  /// Drop all cached rows (memory control between sweep phases; no-op for
  /// the hierarchical engine). Not safe concurrently with queries — call
  /// at a quiescent point.
  void clear_cache() { engine_->clear_cache(); }

  /// Precompute & pin rows for the given sources (bulk experiments).
  /// Runs across the pool; a no-op for the already-precomputed
  /// hierarchical engine.
  void warm(std::span<const HostId> sources);
  void warm(std::span<const HostId> sources, util::ThreadPool& pool);

  /// Bounded-memory mode for long sweeps: keep at most `cap` unpinned rows
  /// cached (0 = unbounded, the default; no-op for hierarchical). Evicted
  /// rows are recomputed on demand, so results are unchanged — only
  /// Dijkstra counts and memory differ. Call before sharing the oracle
  /// across threads.
  void set_row_cap(std::size_t cap) { engine_->set_row_cap(cap); }
  std::size_t row_cap() const { return engine_->row_cap(); }

  /// Rows currently cached (pinned + unpinned; 0 for hierarchical).
  std::size_t cached_rows() const { return engine_->cached_rows(); }

 private:
  const Topology* topology_;
  std::unique_ptr<RttEngine> engine_;
  TrafficPlane* traffic_ = nullptr;
  std::atomic<std::uint64_t> probe_count_{0};
  double noise_fraction_ = 0.0;
  util::Rng noise_rng_{0};
  std::mutex noise_mutex_;
};

}  // namespace topo::net
