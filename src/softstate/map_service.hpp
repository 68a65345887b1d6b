// The global soft-state map service (paper Section 5).
//
// For every high-order zone Z of the eCAN there is a *map*: the proximity
// records of all members of Z, stored on the nodes of Z itself. The entry
// for node n lives at position p' = h(p, dp, dz, Z) inside Z, where p is
// n's landmark vector and h maps n's landmark number through an inverse
// space-filling curve into Z's *map region* (Z shrunk by the condense
// rate). Because the landmark number preserves physical locality, records
// of physically-close nodes land on the same or adjacent owners — so a
// lookup keyed by the querier's own landmark number finds its best
// candidates in one routed message (Table 1), falling back to a bounded
// ring expansion over adjacent map pieces when the piece it hit is empty.
//
// All messages are routed over the overlay itself and accounted (hops).
//
// The service is a template over its per-owner store so two backends
// share every line of protocol logic:
//
//   - `MapService` (IndexedStore over StoredEntry) — the full store every
//     figure bench uses; entries carry their own MapEntry payload.
//   - `CompactMapService` (SmallSortedStore over CompactStoredEntry) — the
//     scale-out store: entries are 64 inline bytes referencing an interned
//     NodeRecordPool record (vector_pool.hpp), positions are recomputed
//     instead of stored. Results are bit-identical to MapService while
//     quantization (MapConfig::quantize_vectors) is off — pinned by
//     tests/softstate_compact_store_test.cpp and the committed digests in
//     tests/golden_digest_test.cpp.
//
// Routing uses the eCAN's allocation-free scratch router, or the scalable
// router when `MapConfig::scalable_router` is set.
//
// Sharded execution (softstate/sharded_runner.hpp) drives the service
// through a const, caller-scratch surface: `plan_publish` routes and
// plans placements without touching the stores, `apply_planned` lands
// them, and `lookup_entries_shard` runs a read-only lookup with
// caller-owned scratch and stats — so shards can plan/read in parallel
// and apply under a deterministic barrier-phased exchange.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "geom/hilbert.hpp"
#include "net/rtt_oracle.hpp"
#include "net/traffic_plane.hpp"
#include "overlay/ecan.hpp"
#include "proximity/landmarks.hpp"
#include "proximity/nn_search.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_plane.hpp"
#include "softstate/indexed_store.hpp"
#include "softstate/small_store.hpp"
#include "softstate/map_entry.hpp"
#include "softstate/vector_pool.hpp"
#include "util/retry_policy.hpp"
#include "util/rng.hpp"

namespace topo::softstate {

/// Knobs for the replica anti-entropy engine (softstate/anti_entropy.hpp).
/// Off by default: with `enabled == false` no engine is constructed, no
/// timers are scheduled and no RNG is drawn, so every existing scenario is
/// bit-identical to the pre-anti-entropy build.
struct AntiEntropyConfig {
  bool enabled = false;
  /// Reconciliation round period. Convergence after a partition heal takes
  /// a couple of rounds, so this should be a fraction of the republish
  /// interval (the facade's default republish is 30 s).
  sim::Time interval_ms = 7'500.0;
  /// Uniform +/- jitter on the round period, like the lifecycle engine's
  /// republish jitter, so rounds desynchronize from the republish waves.
  double jitter = 0.2;
  /// Summary resolution: each (map, replica) view is digested into
  /// 2^digest_bits curve-order ranges. More bits localize differences
  /// better (fewer false-positive range syncs) at more summary bytes.
  int digest_bits = 4;
};

struct MapConfig {
  /// Fraction of the hosting zone's volume the map occupies ("condense
  /// rate of coordinate map", Section 5.1). 1.0 spreads the map across the
  /// whole zone; smaller values concentrate it on fewer owner nodes. The
  /// default concentrates each map on ~1/16 of its zone so that a hosting
  /// node holds tens of entries — the regime Figure 16 shows is needed for
  /// lookups to return well-populated candidate lists (bench
  /// fig16_condense_rate reproduces the trade-off).
  double condense_rate = 0.0625;
  /// Hilbert resolution (bits per overlay axis) when placing entries
  /// inside the map region.
  int map_bits = 4;
  /// Entry lifetime; entries older than this are dropped (soft state).
  sim::Time ttl_ms = 60'000.0;
  /// Table 1: how many rings of adjacent map pieces to search when the
  /// piece the lookup lands on is empty.
  int lookup_ring_ttl = 3;
  /// "A maximum of X nodes that are closest to the requesting node is sent
  /// back."
  std::size_t max_return = 32;
  /// Ring expansion also kicks in when the landing piece returned fewer
  /// than this many candidates (a sparsely-populated piece is almost as
  /// useless as an empty one).
  std::size_t min_candidates = 8;
  /// Route publish/lookup messages with EcanNetwork::route_ecan_scalable:
  /// the greedy fallback re-consults the expressway each hop (budgeted)
  /// instead of going sticky, which keeps hop counts O(log n) where the
  /// classic router degrades to O(n^(1/d)) greedy tails. Entries land on
  /// the identical owners (a successful route always terminates at the
  /// zone containing the map position) — only hop sequences and counts
  /// change. Off by default so the figure benches reproduce the paper's
  /// router exactly; the scale bench turns it on (at 1M nodes the classic
  /// fallback makes the publish phase super-quadratic).
  bool scalable_router = false;
  /// Copies of each map entry, stored at curve-shifted positions inside
  /// the map region (replica r shifts the entry's curve key by
  /// r * cells / replicas, so each copy preserves curve locality). A
  /// lookup reads the primary and fails over replica-by-replica
  /// (quorum-less first success), so one crashed owner no longer blanks a
  /// map region. 1 (the default) reproduces the single-copy protocol
  /// bit-for-bit.
  int replicas = 1;
  /// Compact stores only: intern landmark vectors as float32 instead of
  /// float64 (see VectorPoolConfig::quantize_float32). Off by default —
  /// the bit-exactness escape hatch against the full store.
  bool quantize_vectors = false;
  /// Replica digest-exchange reconciliation (requires replicas >= 2 to do
  /// anything). Default off = bit-identical legacy behavior.
  AntiEntropyConfig anti_entropy;
};

/// Upper bound on MapConfig::replicas (fixed-size scratch on hot paths).
inline constexpr int kMaxReplicas = 8;

struct LookupResult {
  /// Candidate records, sorted by landmark-vector distance to the querier.
  proximity::ProximityDatabase candidates;
  /// Owner the lookup terminated at (lazy-repair deletions go back here).
  overlay::NodeId owner = overlay::kInvalidNode;
  std::size_t route_hops = 0;
  std::size_t pieces_visited = 1;
  /// Fetch messages actually sent (replica failovers + inline retries).
  std::size_t attempts = 0;
  /// Replica positions routed to (>= 1 once any route was attempted).
  std::size_t replicas_tried = 0;
  /// Every fetch attempt died under the fault plane (loss after retries,
  /// crashed owners, or the querier partitioned from the map zone). The
  /// selector uses this to fall back to landmark-only pre-selection
  /// instead of a blind random pick.
  bool fault_blocked = false;
  /// Simulated backoff the inline lookup retries would have waited, plus
  /// fault-plane delivery delay (virtual cost accounting; the lookup call
  /// itself is synchronous).
  double backoff_ms = 0.0;
};

struct MapServiceStats {
  std::uint64_t publishes = 0;
  std::uint64_t lookups = 0;
  std::uint64_t route_hops = 0;     // publish + lookup messages
  std::uint64_t expired_entries = 0;
  std::uint64_t lazy_deletions = 0;
  /// Publish messages dropped by the fault plane's loss draw (transient
  /// loss only; see blocked_publishes for crash/partition blocks).
  std::uint64_t lost_messages = 0;
  /// Publish messages whose overlay route never reached the map owner
  /// (distinct from lost_messages so fault-injection experiments can tell
  /// routing loss from injected loss).
  std::uint64_t failed_routes = 0;
  /// Entries replayed onto their current owner by rehome() after churn
  /// (counts every replay attempt, including ones place_entry drops as
  /// stale against an already-landed republish).
  std::uint64_t rehomed_entries = 0;

  // -- Fault-plane / hardening accounting --------------------------------

  /// Publish messages attempted (per level, per replica, per retry).
  /// publish_messages - publish_retries is the first-attempt count, so
  /// retry amplification = publish_messages / (publish_messages -
  /// publish_retries).
  std::uint64_t publish_messages = 0;
  /// Publish messages blocked by a crash-stop or partition (not
  /// retryable; the next republish or a heal recovers them).
  std::uint64_t blocked_publishes = 0;
  /// Re-sent publish messages (scheduled on the EventQueue by the retry
  /// policy after a transient loss).
  std::uint64_t publish_retries = 0;
  /// Publish retries that eventually delivered the entry.
  std::uint64_t retry_recoveries = 0;
  /// Publish retry chains abandoned with the message still undelivered.
  std::uint64_t retries_exhausted = 0;
  /// Replica copies suppressed because routing landed them on an owner
  /// that already received this publish round's copy.
  std::uint64_t replica_collapses = 0;
  /// Lookup fetch messages attempted (failovers + inline retries).
  std::uint64_t lookup_attempts = 0;
  /// Inline lookup re-sends after a transient loss verdict.
  std::uint64_t lookup_retries = 0;
  /// Lookup fetches that failed over to a further replica position.
  std::uint64_t lookup_failovers = 0;
  /// Lookups whose every fetch attempt died under the fault plane.
  std::uint64_t fault_blocked_lookups = 0;
  /// Lazy-repair "dead" reports dropped by the fault plane en route.
  std::uint64_t lost_repairs = 0;
  /// Messages (publish, lookup fetch, ring fetch, repair) dropped by the
  /// traffic plane under link saturation. Transient like loss: the retry
  /// and failover machinery engages the same way.
  std::uint64_t congestion_drops = 0;

  // -- Anti-entropy accounting (softstate/anti_entropy.hpp) --------------

  /// Reconciliation sessions whose summary exchange was delivered.
  std::uint64_t ae_sessions = 0;
  /// Sessions abandoned because the summary exchange died under the
  /// fault/traffic planes (retried next round).
  std::uint64_t ae_blocked_sessions = 0;
  /// Curve-order digest ranges compared across delivered sessions.
  std::uint64_t ae_ranges_compared = 0;
  /// Ranges whose digests mismatched and were scheduled for delta pull.
  std::uint64_t ae_ranges_synced = 0;
  /// Entries actually transferred (strictly-newer merges that landed).
  std::uint64_t ae_entries_pulled = 0;
  /// Wire bytes of range summaries (both directions of each session).
  std::uint64_t ae_summary_bytes = 0;
  /// Wire bytes of delta entries actually transferred.
  std::uint64_t ae_delta_bytes = 0;
  /// What the same sessions would have shipped as full-state exchanges —
  /// the denominator of the delta-efficiency claim.
  std::uint64_t ae_full_bytes = 0;
  /// Delta merges refused because the entry predates a report_dead
  /// cutoff for its publisher (reconciliation must not resurrect them).
  std::uint64_t ae_resurrections_blocked = 0;

  /// Adds every counter of `other` into this (sharded runs merge their
  /// per-shard stats in shard order; all counters are sums, so the merge
  /// is exact).
  void merge(const MapServiceStats& other);
};

/// Store-description traits for the eCAN map backends (see
/// indexed_store.hpp for the contract). Dedup identity is (node, map);
/// entries group by map (the packed cell key encodes level + cell) and
/// order inside a map by landmark number, so one map's records form a
/// contiguous, physical-locality-ordered range of the indexed store.
struct MapStoreTraits {
  /// Landmark-number width in bits (LandmarkSet::number_bits()); the
  /// order key coarsens the number to its top 64 bits, preserving order.
  int number_bits = 64;

  struct Key {
    overlay::NodeId node = overlay::kInvalidNode;
    std::uint64_t cell_key = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t x =
          k.cell_key ^ (0x9e3779b97f4a7c15ull * (k.node + 1ull));
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdull;
      x ^= x >> 33;
      return static_cast<std::size_t>(x);
    }
  };
  using GroupKey = std::uint64_t;  // packed (level, cell)
  using OrderKey = std::uint64_t;  // landmark number, top 64 bits

  Key key(const StoredEntry& s) const { return {s.entry.node, s.cell_key}; }
  GroupKey group(const StoredEntry& s) const { return s.cell_key; }
  OrderKey order(const StoredEntry& s) const {
    return s.entry.landmark_number.top_bits(number_bits,
                                            number_bits < 64 ? number_bits
                                                             : 64);
  }
  overlay::NodeId node(const StoredEntry& s) const { return s.entry.node; }
  sim::Time published_at(const StoredEntry& s) const {
    return s.entry.published_at;
  }
  sim::Time expires_at(const StoredEntry& s) const {
    return s.entry.expires_at;
  }
};

/// Same indexing as MapStoreTraits over the compact entry: the order key
/// (landmark number coarsened to its top 64 bits) is precomputed into the
/// entry at construction — by the exact expression MapStoreTraits::order
/// uses — so the two stores sort identically.
struct CompactMapStoreTraits {
  int number_bits = 64;  // kept for constructor symmetry with the full traits

  using Key = MapStoreTraits::Key;
  using KeyHash = MapStoreTraits::KeyHash;
  using GroupKey = std::uint64_t;
  using OrderKey = std::uint64_t;

  Key key(const CompactStoredEntry& s) const { return {s.node, s.cell_key}; }
  GroupKey group(const CompactStoredEntry& s) const { return s.cell_key; }
  OrderKey order(const CompactStoredEntry& s) const { return s.order_key; }
  overlay::NodeId node(const CompactStoredEntry& s) const { return s.node; }
  sim::Time published_at(const CompactStoredEntry& s) const {
    return s.published_at;
  }
  sim::Time expires_at(const CompactStoredEntry& s) const {
    return s.expires_at;
  }
};

using MapStore = IndexedStore<StoredEntry, MapStoreTraits>;
/// The compact entry rides the small sorted store, not the indexed one:
/// at the paper's condense rate an owner hosts single-digit entries, where
/// the indexed store's hash maps and slot bookkeeping outweigh the entries
/// themselves by >10x — the exact overhead the memory diet removes. The
/// observable semantics are identical (softstate_compact_store_test).
using CompactMapStore = SmallSortedStore<CompactStoredEntry, CompactMapStoreTraits>;

/// Entry-shape-agnostic projection of one stored copy, as visited by
/// BasicMapService::for_each_recon. This is everything the anti-entropy
/// engine needs to build per-replica views and range digests without
/// knowing whether the service runs full or compact entries — which is
/// also why IndexedStore and SmallSortedStore services produce identical
/// summaries: both reduce to the same (cell, order, node, published_at)
/// tuples.
struct ReconRecord {
  overlay::NodeId owner = overlay::kInvalidNode;  // node hosting the copy
  overlay::NodeId node = overlay::kInvalidNode;   // publisher
  std::uint64_t cell_key = 0;                     // packed (level, cell)
  std::uint64_t order_key = 0;                    // curve order inside map
  int replica = 0;                                // stored replica tag
  sim::Time published_at = 0.0;
  sim::Time expires_at = 0.0;
};

/// Outcome of one anti-entropy delta merge (sync_replica_copy).
enum class ReconOutcome : std::uint8_t {
  kPlaced,         // copy landed on the target owner
  kStale,          // target already holds an equal-or-newer copy
  kBlockedDead,    // source copy predates a report_dead cutoff
  kMissingSource,  // source copy vanished (expired / erased) meanwhile
};

template <typename Store>
class BasicMapService {
 public:
  /// The stored entry type this instantiation runs on (StoredEntry or
  /// CompactStoredEntry).
  using EntryT = typename Store::EntryType;
  /// Compact instantiations intern payloads in the pool and recompute
  /// positions; full ones carry both per entry.
  static constexpr bool kCompact =
      std::is_same_v<EntryT, CompactStoredEntry>;

  BasicMapService(overlay::EcanNetwork& ecan,
                  const proximity::LandmarkSet& landmarks, MapConfig config);

  const MapConfig& config() const { return config_; }
  /// Runtime-tunable knobs (ttl, ring ttl, return budgets, router choice).
  /// The map geometry (condense_rate, map_bits) is latched into the cached
  /// Hilbert curve at construction and must not be changed here.
  MapConfig& mutable_config() { return config_; }

  /// Position inside the map region of cell (level, coords) where replica
  /// `replica` of the record with `landmark_number` is stored. Replica 0
  /// is the primary; replica r shifts the curve key by r * cells /
  /// replicas (mod curve length), so every copy's sub-map still preserves
  /// curve locality while landing on a different owner whenever the map
  /// region spans more than one node.
  geom::Point map_position(const util::BigUint& landmark_number, int level,
                           std::span<const std::uint32_t> cell,
                           int replica = 0) const;

  /// Publishes `node`'s record into the maps of every high-order zone it
  /// belongs to (levels 1..node_level). Replaces any previous record for
  /// the node in each map. Returns total routed hops.
  std::size_t publish(overlay::NodeId node,
                      const proximity::LandmarkVector& vector,
                      sim::Time now, double load = 0.0,
                      double capacity = 1.0);

  /// Publish with the node's cached landmark number. A node derives its
  /// number once, when it measures its landmark vector — recomputing the
  /// space-filling-curve reduction on every periodic republish message
  /// (as the seed did) is pure waste on the hot path.
  std::size_t publish(overlay::NodeId node,
                      const proximity::LandmarkVector& vector,
                      const util::BigUint& number, sim::Time now,
                      double load = 0.0, double capacity = 1.0);

  // -- Sharded execution surface ----------------------------------------
  // The sharded runner splits a publish round into a parallel *plan*
  // phase (const: route + construct entries, no store writes) and a
  // barrier-separated *apply* phase (store writes only, owners
  // partitioned by shard). Lookups run read-only with caller scratch.
  // All three require the fault and traffic planes inactive — sharded
  // rounds model the steady state, and the planes' per-message RNG draws
  // would otherwise depend on shard interleaving.

  /// One planned publish message: the entry to land and the owner it
  /// routed to.
  struct PlannedPlacement {
    overlay::NodeId owner = overlay::kInvalidNode;
    EntryT entry{};
  };

  /// Interns `node`'s record in the vector pool (no-op on non-compact
  /// instantiations). The sharded runner calls this sequentially before
  /// the parallel plan phase: plan_publish is const and must find the
  /// record already interned.
  void intern_node(overlay::NodeId node,
                   const proximity::LandmarkVector& vector,
                   const util::BigUint& number);

  /// Plans the full publish round of `node` (every level, every replica):
  /// routes with `route`, accounts into `stats`, appends the placements
  /// to `out`, and returns the routed hops. Equivalent to publish()
  /// followed by nothing — the caller lands the placements with
  /// apply_planned, in any order across distinct publishers (dedup keys
  /// of distinct publishers never collide, so the final store state is
  /// apply-order independent).
  std::size_t plan_publish(overlay::NodeId node,
                           const proximity::LandmarkVector& vector,
                           const util::BigUint& number, sim::Time now,
                           double load, double capacity,
                           overlay::RouteScratch& route,
                           std::vector<PlannedPlacement>& out,
                           MapServiceStats& stats) const;

  /// Lands one planned placement. Caller contract for *parallel* apply:
  /// reserve_stores() first (so the dense store table never resizes), no
  /// publish observer installed, and no two threads applying to owners of
  /// the same shard.
  void apply_planned(PlannedPlacement&& placement);

  /// Pre-sizes the dense store table to `owner_slots` (the eCAN's slot
  /// count) so concurrent apply_planned calls never resize it.
  void reserve_stores(std::size_t owner_slots);

  /// Merges a sharded round's per-shard stats into the service's own.
  void add_stats(const MapServiceStats& delta) { stats_.merge(delta); }

  /// Looks up candidates physically near the querier in the map of the
  /// given high-order cell (Table 1 procedure).
  LookupResult lookup(overlay::NodeId querier,
                      const proximity::LandmarkVector& querier_vector,
                      int level, std::span<const std::uint32_t> cell,
                      sim::Time now);

  /// Variant of lookup that also returns the raw entries (pub/sub and the
  /// load-aware selector need load/capacity, not just host+vector).
  std::vector<MapEntry> lookup_entries(
      overlay::NodeId querier, const proximity::LandmarkVector& querier_vector,
      int level, std::span<const std::uint32_t> cell, sim::Time now,
      LookupResult* meta = nullptr);

  /// Per-lookup scratch: every container the hot lookup path reuses
  /// across calls. The classic entry points use a service-owned instance;
  /// the sharded path passes one per worker so concurrent lookups never
  /// share scratch.
  struct LookupScratch {
    /// A candidate with its sort key precomputed: the seed recomputed the
    /// landmark distance inside the sort comparator, which gprofng puts
    /// at ~1/3 of lookup-heavy runs. The key is the *squared* landmark
    /// distance — ordering is unchanged (sqrt is monotone) and the rank
    /// pass sheds one sqrt per candidate.
    struct RankedRef {
      double distance;  // squared landmark distance to the querier
      const EntryT* stored;
    };
    overlay::RouteScratch route;
    std::vector<const EntryT*> found;
    std::vector<RankedRef> ranked;
    /// Dim-major SoA copy of the candidates' vectors plus the
    /// per-candidate squared distances, feeding the vectorizable ranking
    /// kernel (proximity::squared_distances_soa).
    std::vector<double> soa;
    std::vector<double> dist;
    std::vector<overlay::NodeId> ring;
    std::vector<overlay::NodeId> next_ring;
    /// Visited set for the ring expansion as an epoch-stamped array over
    /// node slots (reset is ++epoch, not a fill).
    std::vector<std::uint32_t> visit_stamp;
    std::uint32_t visit_epoch = 0;
  };

  /// Allocation-free lookup for hot callers: takes the querier's cached
  /// landmark number and writes the top candidates into `out`, reusing
  /// both the vector and its elements' heap buffers across calls. Returns
  /// the number of candidates written; `out` is grown as needed but never
  /// shrunk (elements past the returned count are stale), so a caller
  /// looping over lookups pays no per-call allocation once the buffer has
  /// warmed up.
  std::size_t lookup_entries_into(
      overlay::NodeId querier, const proximity::LandmarkVector& querier_vector,
      const util::BigUint& number, int level,
      std::span<const std::uint32_t> cell, sim::Time now,
      std::vector<MapEntry>& out, LookupResult* meta = nullptr);

  /// As above for callers without a cached landmark number: the number is
  /// derived through service-owned scratch, so the call still allocates
  /// nothing once warmed up.
  std::size_t lookup_entries_into(
      overlay::NodeId querier, const proximity::LandmarkVector& querier_vector,
      int level, std::span<const std::uint32_t> cell, sim::Time now,
      std::vector<MapEntry>& out, LookupResult* meta = nullptr);

  /// Read-only lookup for the sharded engine: identical results to
  /// lookup_entries_into, but const — expired entries are filtered out of
  /// the read instead of pruned from the store (the round's expiry phase
  /// prunes and accounts them), and all scratch and stats are
  /// caller-owned, so any number of threads may look up concurrently.
  /// Requires the fault and traffic planes inactive.
  std::size_t lookup_entries_shard(
      overlay::NodeId querier, const proximity::LandmarkVector& querier_vector,
      const util::BigUint& number, int level,
      std::span<const std::uint32_t> cell, sim::Time now,
      std::vector<MapEntry>& out, LookupScratch& scratch,
      MapServiceStats& stats, LookupResult* meta = nullptr) const;

  /// Proactive removal at graceful departure ("the most proactive measure
  /// is to update the map when a node is about to depart"). Call *before*
  /// the node leaves the overlay.
  void remove_everywhere(overlay::NodeId node);

  /// Lazy repair: the requester found `dead` unreachable after a lookup at
  /// `owner`; the owner drops its records for `dead` — but only records
  /// published at or before `reported_at`. The freshness guard keeps a
  /// delayed "dead" report (the probe that failed happened at
  /// `reported_at`) from evicting an entry the node re-published after
  /// recovering — without it, a slot-reusing rejoin could lose its fresh
  /// record to a stale report about its previous incarnation. The default
  /// (+inf) is the legacy trust-the-reporter behavior. When `reporter` is
  /// given and the fault plane is active, the report itself is a kRepair
  /// message subject to loss/partition.
  void report_dead(
      overlay::NodeId owner, overlay::NodeId dead,
      sim::Time reported_at = std::numeric_limits<sim::Time>::infinity(),
      overlay::NodeId reporter = overlay::kInvalidNode);

  /// Drops entries that expired before `now` across all stores; returns
  /// the number dropped. Per store this touches only the entries that
  /// actually expired (indexed expiry heap), not the whole store.
  std::size_t expire_before(sim::Time now);

  /// Expires one owner's store without touching service stats — the
  /// sharded expiry phase sweeps owners in parallel, sums the per-shard
  /// counts, and accounts them once through add_stats.
  std::size_t expire_owner_before(overlay::NodeId owner, sim::Time now);

  // -- Zone-change migration (driven by the join/leave protocol) --------

  /// After `joined` split `split_peer`'s zone: entries stored at
  /// split_peer whose position now belongs to `joined` move over.
  void migrate_after_join(overlay::NodeId joined, overlay::NodeId split_peer);

  /// Call *before* removing `leaver` from the overlay: extracts its store.
  /// Compact instantiations materialize full StoredEntry records at this
  /// boundary (the facade's churn plumbing is store-agnostic).
  std::vector<StoredEntry> extract_store(overlay::NodeId node);

  /// Re-homes entries to the current owner of their position (after churn).
  void rehome(std::vector<StoredEntry> entries);

  // -- Introspection ----------------------------------------------------

  /// Entries currently stored on `node`.
  std::size_t store_size(overlay::NodeId node) const;
  /// Mean entries per live node; the Fig 16 y-axis.
  double mean_entries_per_node() const;
  /// Max entries on any node.
  std::size_t max_entries_per_node() const;
  std::size_t total_entries() const;
  /// Nodes currently hosting at least one entry. Also the witness that
  /// read paths never materialize empty stores (they use the const
  /// find-based accessor, not operator[]).
  std::size_t hosting_owner_count() const;

  /// Heap bytes held by the soft-state layer: store structures, per-entry
  /// payload heap (full store) or the interned record pool (compact).
  /// Feeds the scale bench's bytes-per-node breakdown — and the memory
  /// diet's before/after claim in docs/performance.md.
  std::size_t memory_bytes() const;

  /// The interned record pool (empty on non-compact instantiations).
  const NodeRecordPool& vector_pool() const { return pool_; }

  const MapServiceStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Invariant check for tests: every stored entry sits on the node that
  /// currently owns the entry's position (holds after any sequence of
  /// joins/leaves when the migration protocol is followed).
  bool check_placement_invariant() const;

  /// Visits every stored entry with its hosting owner (iteration order is
  /// store-internal). Compact instantiations materialize each entry into
  /// a reused StoredEntry, so callers see the same record shape from
  /// every backend.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    if constexpr (kCompact) {
      StoredEntry scratch;
      for_each_store([&](overlay::NodeId owner, const Store& store) {
        store.for_each([&](const EntryT& stored) {
          materialize_stored(stored, scratch);
          fn(owner, std::as_const(scratch));
        });
      });
    } else {
      for_each_store([&](overlay::NodeId owner, const Store& store) {
        store.for_each(
            [&](const StoredEntry& stored) { fn(owner, stored); });
      });
    }
  }

  /// FNV-1a digest of every stored entry (owner, publisher, cell key,
  /// replica, expiry, load, position) in for_each_entry order. Because the
  /// indexed store's observable iteration order is insertion-order
  /// independent for distinct keys, identical map contents hash identically
  /// regardless of how they were produced — this is the cross-shard-count
  /// identity witness used by tests/softstate_sharded_test.cpp (which keeps
  /// its own independent implementation) and the scale bench.
  std::uint64_t state_hash() const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    const auto mix_double = [&](double v) {
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    };
    for_each_entry([&](overlay::NodeId owner, const StoredEntry& s) {
      mix(owner);
      mix(s.entry.node);
      mix(s.cell_key);
      mix(static_cast<std::uint64_t>(s.replica));
      mix_double(s.entry.expires_at);
      mix_double(s.entry.load);
      for (std::size_t d = 0; d < s.position.dims(); ++d)
        mix_double(s.position[d]);
    });
    return h;
  }

  // -- Replica reconciliation surface (softstate/anti_entropy.hpp) -------

  /// Visits every stored copy as a ReconRecord (iteration order is
  /// store-internal; callers sort). Same projection from every store
  /// layout, so digests built over it are layout-independent.
  template <typename Fn>
  void for_each_recon(Fn&& fn) const {
    for_each_store([&](overlay::NodeId owner, const Store& store) {
      store.for_each([&](const EntryT& e) {
        ReconRecord r;
        r.owner = owner;
        r.node = store_traits_.node(e);
        r.cell_key = store_traits_.group(e);
        r.order_key = store_traits_.order(e);
        r.replica = static_cast<int>(e.replica);
        r.published_at = store_traits_.published_at(e);
        r.expires_at = store_traits_.expires_at(e);
        fn(std::as_const(r));
      });
    });
  }

  /// Owner that replica `replica` of publisher `node`'s record in map
  /// `cell_key` belongs on right now, derived from the copy stored at
  /// `holder` (any owner currently holding one). kInvalidNode when the
  /// holder no longer has the copy.
  overlay::NodeId copy_target_owner(overlay::NodeId holder,
                                    overlay::NodeId node,
                                    std::uint64_t cell_key,
                                    int replica) const;

  /// One anti-entropy delta merge: copy publisher `node`'s record of map
  /// `cell_key` from `holder`'s store onto `target_owner` as replica
  /// `target_replica`. The freshness guards are the protocol: the merge
  /// is refused unless the source copy is strictly newer than whatever
  /// the target holds (equal published_at means the copies came from the
  /// same publish round — transferring would be wasted bytes and the tie
  /// already digests identically on both sides), and refused entirely if
  /// the source predates a report_dead cutoff for the publisher (counted
  /// in `stats.ae_resurrections_blocked`). Accounts into `stats`, not the
  /// service's own counters — the engine batches and merges via
  /// add_stats.
  ReconOutcome sync_replica_copy(overlay::NodeId holder,
                                 overlay::NodeId node,
                                 std::uint64_t cell_key,
                                 overlay::NodeId target_owner,
                                 int target_replica, sim::Time now,
                                 MapServiceStats& stats);

  /// Latest report_dead cutoff recorded for `node` (-inf when none).
  /// Cutoffs are only recorded while anti-entropy is enabled — the
  /// disabled service keeps zero extra state.
  sim::Time dead_cutoff(overlay::NodeId node) const {
    const auto it = dead_cutoffs_.find(node);
    return it == dead_cutoffs_.end()
               ? -std::numeric_limits<sim::Time>::infinity()
               : it->second;
  }

  /// Installs the shared fault plane: every publish/lookup/repair message
  /// consults it before being considered delivered. Pass nullptr to
  /// detach. The plane must outlive the service (the facade owns both).
  void set_fault_plane(sim::FaultPlane* plane) { fault_plane_ = plane; }
  sim::FaultPlane* fault_plane() const { return fault_plane_; }

  /// Installs the shared traffic plane: while it is active, every
  /// publish/lookup/repair message also crosses the congestion gate
  /// (queuing delay folded into backoff accounting, drops treated as
  /// transient loss). Pass nullptr to detach; the plane must outlive the
  /// service (the facade owns both).
  void set_traffic_plane(net::TrafficPlane* plane) { traffic_plane_ = plane; }
  net::TrafficPlane* traffic_plane() const { return traffic_plane_; }

  /// Enables bounded retry with exponential backoff + jitter. Lost
  /// publish messages are re-sent through `queue` (fire-and-forget, up to
  /// policy.retries() times); lost lookup fetches re-try inline before
  /// failing over to the next replica, accounting the backoff they would
  /// have waited in LookupResult::backoff_ms. `queue` may be null, which
  /// confines retries to the inline lookup path.
  void set_retry(sim::EventQueue* queue, util::RetryPolicy policy,
                 std::uint64_t jitter_seed = 0x7e7521ull) {
    retry_queue_ = queue;
    retry_ = policy;
    retry_rng_ = util::Rng(jitter_seed);
  }
  const util::RetryPolicy& retry_policy() const { return retry_; }

  /// Hook used by the pub/sub layer: called with every stored entry
  /// insertion (owner, new entry). Compact instantiations materialize the
  /// StoredEntry per notification — pub/sub rides the full service, so
  /// the cost only exists where an observer is actually installed.
  using PublishObserver =
      std::function<void(overlay::NodeId owner, const StoredEntry&)>;
  void set_publish_observer(PublishObserver observer) {
    publish_observer_ = std::move(observer);
  }

 private:
  /// Creating accessor — write paths only (placing/migrating entries).
  Store& store_of(overlay::NodeId node);
  /// Non-creating accessors for lookup/expiry/stats paths: an owner that
  /// never hosted an entry must not grow the store map.
  const Store* find_store(overlay::NodeId node) const;
  Store* find_store(overlay::NodeId node);
  /// Visits every (owner, store) pair. Iteration includes empty stores;
  /// callers already treat empty as absent.
  template <typename Fn>
  void for_each_store(Fn&& fn) {
    for (std::size_t id = 0; id < stores_.size(); ++id)
      fn(static_cast<overlay::NodeId>(id), stores_[id]);
  }
  template <typename Fn>
  void for_each_store(Fn&& fn) const {
    for (std::size_t id = 0; id < stores_.size(); ++id)
      fn(static_cast<overlay::NodeId>(id), stores_[id]);
  }

  // -- Entry-shape adapters ----------------------------------------------
  // The protocol logic is written once against these; each instantiation
  // resolves them at compile time (full entries carry their payload,
  // compact ones fetch it from the pool / recompute it).

  static overlay::NodeId entry_node(const EntryT& e) {
    if constexpr (kCompact) return e.node;
    else return e.entry.node;
  }
  /// Placement position: stored on full entries, recomputed exactly from
  /// (number, cell, replica) on compact ones (map_position is a pure
  /// function of the static grid geometry).
  geom::Point entry_position(const EntryT& e) const;
  /// Builds the stored entry for one delivered publish message.
  EntryT make_entry(overlay::NodeId node,
                    const proximity::LandmarkVector& vector,
                    const util::BigUint& number, std::uint32_t record,
                    sim::Time now, double load, double capacity, int level,
                    std::uint64_t cell_key, int replica,
                    const geom::Point& position) const;
  /// Assigns a full MapEntry view of `e` into `dst`, reusing dst's heap
  /// buffers (lookup emission stays allocation-free once warmed up).
  void assign_entry(MapEntry& dst, const EntryT& e) const;
  /// Full StoredEntry view of a compact entry (public-API boundaries).
  void materialize_stored(const EntryT& e, StoredEntry& out) const;

  /// Routes a map message from `from` to the owner of `position` using
  /// the configured router; the hop path lands in `scratch`.path.
  bool route_to(overlay::NodeId from, const geom::Point& position,
                overlay::RouteScratch& scratch) const;

  /// Stores (replacing any same-node record in the same map) and notifies
  /// the observer.
  void place_entry(overlay::NodeId owner, EntryT stored);

  /// True when per-message fault gating is on (plane installed + active).
  bool plane_active() const {
    return fault_plane_ != nullptr && fault_plane_->active();
  }
  /// Fault verdict for a message forwarded along `path`.
  sim::Verdict gate_route(sim::MessageKind kind,
                          std::span<const overlay::NodeId> path) const;

  /// True when per-message congestion gating is on.
  bool traffic_active() const {
    return traffic_plane_ != nullptr && traffic_plane_->active();
  }
  /// Congestion verdict for a message forwarded along `path`.
  net::TrafficPlane::Verdict gate_traffic(
      std::span<const overlay::NodeId> path) const;

  enum class PublishSend : std::uint8_t {
    kDelivered,    // entry placed on its owner
    kLost,         // fault plane loss draw — transient, retryable
    kBlocked,      // crash/partition block — wait for republish/heal
    kRouteFailed,  // overlay never reached the owner
    kCollapsed,    // replica landed on an owner that already has a copy
  };
  /// Routes one publish message for replica `replica` of `node`'s record
  /// at map level `level` and runs it through the fault/traffic gates.
  /// Adds the routed hops to `hops` and accounts into `stats`.
  /// `placed_owners` are owners that already received this publish
  /// round's copy (duplicate-owner replicas are suppressed after routing
  /// discovers the collision); a deliverable message reports its owner
  /// and position through the out parameters. The store itself is not
  /// touched — the caller places (or plans) the entry on kDelivered.
  PublishSend route_publish_message(
      overlay::NodeId node, const util::BigUint& number, int level,
      std::span<const std::uint32_t> cell, int replica,
      overlay::RouteScratch& route, MapServiceStats& stats,
      std::size_t& hops, std::span<const overlay::NodeId> placed_owners,
      overlay::NodeId* delivered_owner, geom::Point* position_out) const;

  /// Schedules retry number `attempt` of a lost publish message on the
  /// EventQueue (no-op past the policy's attempt budget).
  void schedule_publish_retry(overlay::NodeId node,
                              proximity::LandmarkVector vector,
                              util::BigUint number, double load,
                              double capacity, int level, int replica,
                              int attempt);
  /// Fired by the EventQueue: re-validates the publisher and re-sends.
  void retry_publish_message(overlay::NodeId node,
                             const proximity::LandmarkVector& vector,
                             const util::BigUint& number, double load,
                             double capacity, int level, int replica,
                             int attempt);

  /// Collect entries of map `cell_key` stored on `owner` into `out`.
  /// `prune` drops expired entries from the store first (soft-state decay
  /// on access; mutates through a documented const_cast — classic
  /// single-threaded paths only). The shard path passes prune=false:
  /// expired entries are filtered out of the read and left for the
  /// round's expiry phase to drop and account.
  void collect_from(overlay::NodeId owner, std::uint64_t cell_key,
                    sim::Time now, std::vector<const EntryT*>& out,
                    bool prune, MapServiceStats& stats) const;

  /// The shared lookup implementation behind the classic and shard entry
  /// points (see lookup_entries_shard for the prune=false contract).
  std::size_t lookup_core(overlay::NodeId querier,
                          const proximity::LandmarkVector& querier_vector,
                          const util::BigUint& number, int level,
                          std::span<const std::uint32_t> cell, sim::Time now,
                          std::vector<MapEntry>& out, LookupScratch& scratch,
                          MapServiceStats& stats, bool prune,
                          LookupResult* meta) const;

  overlay::EcanNetwork* ecan_;
  const proximity::LandmarkSet* landmarks_;
  MapConfig config_;
  typename Store::TraitsType store_traits_;
  /// Per-owner stores, dense by node id (simulator ids are small slot
  /// indices), so the per-message owner lookup on the publish/lookup hot
  /// path is an array index. An absent owner is an out-of-range id; an
  /// empty store means the same thing as an absent one everywhere.
  std::vector<Store> stores_;
  /// Interned per-node payloads (compact instantiations only; stays
  /// empty otherwise). Append-only — safe to read concurrently from the
  /// sharded plan/lookup phases, mutated only by intern_node/publish.
  NodeRecordPool pool_;
  MapServiceStats stats_;
  PublishObserver publish_observer_;
  /// Fault plane consulted per message (usually the facade's shared
  /// plane); nullptr = no fault gating at all.
  sim::FaultPlane* fault_plane_ = nullptr;
  /// Traffic plane consulted per message when active; nullptr = no
  /// congestion gating.
  net::TrafficPlane* traffic_plane_ = nullptr;
  sim::EventQueue* retry_queue_ = nullptr;
  util::RetryPolicy retry_;
  /// Max report_dead `reported_at` seen per dead publisher, consulted by
  /// sync_replica_copy so a delayed delta cannot resurrect an entry a
  /// live reporter declared dead. Populated only while
  /// config_.anti_entropy.enabled (finite cutoffs only — the legacy +inf
  /// trust-the-reporter default would block a rejoined publisher
  /// forever).
  std::unordered_map<overlay::NodeId, sim::Time> dead_cutoffs_;
  /// mutable: the inline lookup retry draws jitter inside the const
  /// lookup core. Only reachable when a fault/traffic plane is active,
  /// which the concurrent shard path forbids — so const still means
  /// thread-safe there.
  mutable util::Rng retry_rng_{0x7e7521ull};

  // -- Hot-path caches and scratch ---------------------------------------
  // Everything below is cost, not semantics.

  /// Map-region curve and side scaling are pure functions of the config;
  /// the seed rebuilt the curve and re-ran pow() on every placement.
  geom::HilbertCurve map_curve_;
  double map_side_factor_;

  /// Scratch for the classic (single-threaded) entry points; the sharded
  /// path passes per-worker instances instead.
  LookupScratch lookup_scratch_;
  overlay::RouteScratch route_scratch_;
  /// Quantized-coordinate scratch for deriving a landmark number on the
  /// non-cached publish path without the seed's temporary vectors.
  std::vector<std::uint32_t> number_coords_scratch_;
  /// Reused StoredEntry for compact observer notifications.
  StoredEntry observer_scratch_;
};

/// The production service: indexed stores + allocation-free routing.
using MapService = BasicMapService<MapStore>;
/// The scale-out service: small sorted stores over 64-byte interned
/// entries.
using CompactMapService = BasicMapService<CompactMapStore>;

}  // namespace topo::softstate
