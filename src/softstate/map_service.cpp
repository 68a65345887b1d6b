#include "softstate/map_service.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "geom/hilbert.hpp"

namespace topo::softstate {

void MapServiceStats::merge(const MapServiceStats& other) {
  publishes += other.publishes;
  lookups += other.lookups;
  route_hops += other.route_hops;
  expired_entries += other.expired_entries;
  lazy_deletions += other.lazy_deletions;
  lost_messages += other.lost_messages;
  failed_routes += other.failed_routes;
  rehomed_entries += other.rehomed_entries;
  publish_messages += other.publish_messages;
  blocked_publishes += other.blocked_publishes;
  publish_retries += other.publish_retries;
  retry_recoveries += other.retry_recoveries;
  retries_exhausted += other.retries_exhausted;
  replica_collapses += other.replica_collapses;
  lookup_attempts += other.lookup_attempts;
  lookup_retries += other.lookup_retries;
  lookup_failovers += other.lookup_failovers;
  fault_blocked_lookups += other.fault_blocked_lookups;
  lost_repairs += other.lost_repairs;
  congestion_drops += other.congestion_drops;
  ae_sessions += other.ae_sessions;
  ae_blocked_sessions += other.ae_blocked_sessions;
  ae_ranges_compared += other.ae_ranges_compared;
  ae_ranges_synced += other.ae_ranges_synced;
  ae_entries_pulled += other.ae_entries_pulled;
  ae_summary_bytes += other.ae_summary_bytes;
  ae_delta_bytes += other.ae_delta_bytes;
  ae_full_bytes += other.ae_full_bytes;
  ae_resurrections_blocked += other.ae_resurrections_blocked;
}

template <typename Store>
BasicMapService<Store>::BasicMapService(overlay::EcanNetwork& ecan,
                                        const proximity::LandmarkSet& landmarks,
                                        MapConfig config)
    : ecan_(&ecan),
      landmarks_(&landmarks),
      config_(config),
      store_traits_{landmarks.number_bits()},
      pool_(VectorPoolConfig{config.quantize_vectors}),
      map_curve_(static_cast<int>(ecan.dims()), config.map_bits),
      map_side_factor_(std::pow(
          config.condense_rate, 1.0 / static_cast<double>(ecan.dims()))) {
  TO_EXPECTS(config_.condense_rate > 0.0 && config_.condense_rate <= 1.0);
  TO_EXPECTS(config_.map_bits >= 1);
  TO_EXPECTS(static_cast<std::size_t>(config_.map_bits) * ecan.dims() <= 58);
  TO_EXPECTS(config_.max_return >= 1);
}

template <typename Store>
geom::Point BasicMapService<Store>::map_position(
    const util::BigUint& landmark_number, int level,
    std::span<const std::uint32_t> cell, int replica) const {
  TO_EXPECTS(replica >= 0 && replica < std::max(1, config_.replicas));
  const auto dims = ecan_->dims();

  // Coarsen the landmark number to the map curve's resolution; taking the
  // top bits preserves the ordering (and thus locality) of the 1-d key.
  std::uint64_t key64 = landmark_number.top_bits(
      landmarks_->number_bits(),
      map_curve_.index_bits() > 64 ? 64 : map_curve_.index_bits());

  if (replica > 0) {
    // Replica r lives on a copy of the curve shifted by r * stride: every
    // replica's sub-map preserves curve adjacency (mod one wrap point), so
    // a replica lookup keyed the same way keeps its locality — while the
    // even stride pushes the copies toward different owners of the map
    // region. Curve length is a power of two (<= 58 index bits), so the
    // wrap is a mask.
    const int bits = std::min(map_curve_.index_bits(), 64);
    const std::uint64_t cells = 1ull << bits;
    const std::uint64_t stride = std::max<std::uint64_t>(
        1, cells / static_cast<std::uint64_t>(config_.replicas));
    key64 = (key64 + stride * static_cast<std::uint64_t>(replica)) &
            (cells - 1);
  }

  std::array<std::uint32_t, geom::Point::kMaxDims> coords{};
  map_curve_.coords_into(util::BigUint(key64), std::span(coords.data(), dims));

  // The map region: the hosting cell shrunk to condense_rate of its volume
  // (anchored at the cell's low corner).
  const geom::Zone zone = ecan_->cell_zone(level, cell);

  geom::Point position(dims);
  const double grid = std::ldexp(1.0, -config_.map_bits);  // 2^-map_bits
  for (std::size_t d = 0; d < dims; ++d) {
    const double unit = (static_cast<double>(coords[d]) + 0.5) * grid;
    position[d] = zone.lo(d) + unit * zone.side(d) * map_side_factor_;
  }
  TO_ENSURES(zone.contains(position));
  return position;
}

template <typename Store>
Store& BasicMapService<Store>::store_of(overlay::NodeId node) {
  if (stores_.size() <= node)
    stores_.resize(static_cast<std::size_t>(node) + 1, Store(store_traits_));
  return stores_[node];
}

template <typename Store>
const Store* BasicMapService<Store>::find_store(overlay::NodeId node) const {
  return node < stores_.size() ? &stores_[node] : nullptr;
}

template <typename Store>
Store* BasicMapService<Store>::find_store(overlay::NodeId node) {
  return node < stores_.size() ? &stores_[node] : nullptr;
}

template <typename Store>
void BasicMapService<Store>::reserve_stores(std::size_t owner_slots) {
  if (stores_.size() < owner_slots)
    stores_.resize(owner_slots, Store(store_traits_));
}

// -- Entry-shape adapters ---------------------------------------------------

template <typename Store>
geom::Point BasicMapService<Store>::entry_position(const EntryT& e) const {
  if constexpr (kCompact) {
    std::array<std::uint32_t, geom::Point::kMaxDims> coords{};
    const std::span<std::uint32_t> cell(coords.data(), ecan_->dims());
    const int level = ecan_->unpack_cell(e.cell_key, cell);
    return map_position(pool_.number(e.record), level, cell,
                        static_cast<int>(e.replica));
  } else {
    return e.position;
  }
}

template <typename Store>
typename BasicMapService<Store>::EntryT BasicMapService<Store>::make_entry(
    overlay::NodeId node, const proximity::LandmarkVector& vector,
    const util::BigUint& number, std::uint32_t record, sim::Time now,
    double load, double capacity, int level, std::uint64_t cell_key,
    int replica, const geom::Point& position) const {
  if constexpr (kCompact) {
    (void)vector;
    (void)position;
    (void)level;
    CompactStoredEntry compact;
    compact.node = node;
    compact.record = record;
    compact.cell_key = cell_key;
    // Same expression as MapStoreTraits::order, precomputed once so the
    // store's per-insertion comparisons read an inline field.
    const int bits = store_traits_.number_bits;
    compact.order_key = number.top_bits(bits, bits < 64 ? bits : 64);
    compact.load = load;
    compact.capacity = capacity;
    compact.published_at = now;
    compact.expires_at = now + config_.ttl_ms;
    compact.replica = static_cast<std::uint8_t>(replica);
    return compact;
  } else {
    (void)record;
    MapEntry entry;
    entry.node = node;
    entry.host = ecan_->node(node).host;
    entry.vector = vector;
    entry.landmark_number = number;
    entry.load = load;
    entry.capacity = capacity;
    entry.published_at = now;
    entry.expires_at = now + config_.ttl_ms;
    return StoredEntry{std::move(entry), level, cell_key, position, replica};
  }
}

template <typename Store>
void BasicMapService<Store>::assign_entry(MapEntry& dst,
                                          const EntryT& e) const {
  if constexpr (kCompact) {
    dst.node = e.node;
    dst.host = pool_.host(e.record);
    pool_.copy_vector_into(e.record, dst.vector);
    dst.landmark_number = pool_.number(e.record);
    dst.load = e.load;
    dst.capacity = e.capacity;
    dst.published_at = e.published_at;
    dst.expires_at = e.expires_at;
  } else {
    dst = e.entry;
  }
}

template <typename Store>
void BasicMapService<Store>::materialize_stored(const EntryT& e,
                                                StoredEntry& out) const {
  if constexpr (kCompact) {
    assign_entry(out.entry, e);
    std::array<std::uint32_t, geom::Point::kMaxDims> coords{};
    const std::span<std::uint32_t> cell(coords.data(), ecan_->dims());
    out.level = ecan_->unpack_cell(e.cell_key, cell);
    out.cell_key = e.cell_key;
    out.position = map_position(pool_.number(e.record), out.level, cell,
                                static_cast<int>(e.replica));
    out.replica = static_cast<int>(e.replica);
  } else {
    out = e;
  }
}

template <typename Store>
void BasicMapService<Store>::intern_node(
    overlay::NodeId node, const proximity::LandmarkVector& vector,
    const util::BigUint& number) {
  if constexpr (kCompact) {
    pool_.intern(node, ecan_->node(node).host, vector, number);
  } else {
    (void)node;
    (void)vector;
    (void)number;
  }
}

// ---------------------------------------------------------------------------

template <typename Store>
bool BasicMapService<Store>::route_to(overlay::NodeId from,
                                      const geom::Point& position,
                                      overlay::RouteScratch& scratch) const {
  if (config_.scalable_router)
    return ecan_->route_ecan_scalable(from, position, scratch);
  return ecan_->route_ecan(from, position, scratch);
}

template <typename Store>
void BasicMapService<Store>::place_entry(overlay::NodeId owner,
                                         EntryT stored) {
  const auto [outcome, entry] = store_of(owner).upsert(std::move(stored));
  // Keep the fresher record: rehome() can replay a copy that predates a
  // republish which already landed on this owner.
  if (outcome == UpsertOutcome::kStaleDropped) return;
  if (publish_observer_) {
    if constexpr (kCompact) {
      materialize_stored(*entry, observer_scratch_);
      publish_observer_(owner, observer_scratch_);
    } else {
      publish_observer_(owner, *entry);
    }
  }
}

template <typename Store>
std::size_t BasicMapService<Store>::publish(
    overlay::NodeId node, const proximity::LandmarkVector& vector,
    sim::Time now, double load, double capacity) {
  // Derived through service-owned scratch so a publish without a cached
  // number still allocates nothing.
  number_coords_scratch_.resize(
      static_cast<std::size_t>(landmarks_->number_dims()));
  return publish(node, vector,
                 landmarks_->landmark_number(vector, number_coords_scratch_),
                 now, load, capacity);
}

template <typename Store>
sim::Verdict BasicMapService<Store>::gate_route(
    sim::MessageKind kind, std::span<const overlay::NodeId> path) const {
  return fault_plane_->message_via(
      kind, path, [&](overlay::NodeId id) { return ecan_->node(id).host; });
}

template <typename Store>
net::TrafficPlane::Verdict BasicMapService<Store>::gate_traffic(
    std::span<const overlay::NodeId> path) const {
  return traffic_plane_->message_via(
      path, [&](overlay::NodeId id) { return ecan_->node(id).host; });
}

template <typename Store>
typename BasicMapService<Store>::PublishSend
BasicMapService<Store>::route_publish_message(
    overlay::NodeId node, const util::BigUint& number, int level,
    std::span<const std::uint32_t> cell, int replica,
    overlay::RouteScratch& route, MapServiceStats& stats, std::size_t& hops,
    std::span<const overlay::NodeId> placed_owners,
    overlay::NodeId* delivered_owner, geom::Point* position_out) const {
  const geom::Point position = map_position(number, level, cell, replica);
  if (!route_to(node, position, route)) {
    // Unreachable owner: the entry is lost until the next republish
    // (soft state) — but account it, unlike injected message loss.
    ++stats.failed_routes;
    return PublishSend::kRouteFailed;
  }
  hops += route.path.size() - 1;
  const overlay::NodeId owner = route.path.back();
  if (std::find(placed_owners.begin(), placed_owners.end(), owner) !=
      placed_owners.end()) {
    // A condensed map often puts curve-adjacent keys on one owner; a
    // second copy there adds nothing, so the sender suppresses it once
    // routing discovers the collision (the routing hops are still paid).
    ++stats.replica_collapses;
    return PublishSend::kCollapsed;
  }
  ++stats.publish_messages;
  if (plane_active()) {
    const sim::Verdict verdict =
        gate_route(sim::MessageKind::kPublish, route.path);
    if (!verdict.delivered()) {
      if (verdict.retryable()) {
        ++stats.lost_messages;  // dropped en route: republish refills it
        return PublishSend::kLost;
      }
      ++stats.blocked_publishes;
      return PublishSend::kBlocked;
    }
  }
  if (traffic_active()) {
    // Congestion drop: transient like loss — the retry machinery (or the
    // next republish) recovers it once the hot links drain.
    if (!gate_traffic(route.path).delivered) {
      ++stats.congestion_drops;
      return PublishSend::kLost;
    }
  }
  if (delivered_owner != nullptr) *delivered_owner = owner;
  if (position_out != nullptr) *position_out = position;
  return PublishSend::kDelivered;
}

template <typename Store>
std::size_t BasicMapService<Store>::publish(
    overlay::NodeId node, const proximity::LandmarkVector& vector,
    const util::BigUint& number, sim::Time now, double load,
    double capacity) {
  TO_EXPECTS(ecan_->alive(node));
  std::uint32_t record = NodeRecordPool::kNullRecord;
  if constexpr (kCompact)
    record = pool_.intern(node, ecan_->node(node).host, vector, number);
  std::size_t hops = 0;
  const int levels = ecan_->node_level(node);
  const int replicas = std::max(1, config_.replicas);
  std::array<std::uint32_t, geom::Point::kMaxDims> cell_buf{};
  const std::span<std::uint32_t> cell_span(cell_buf.data(), ecan_->dims());
  for (int h = 1; h <= levels; ++h) {
    ecan_->cell_of_node_into(node, h, cell_span);
    std::array<overlay::NodeId, static_cast<std::size_t>(kMaxReplicas)>
        placed{};
    std::size_t placed_count = 0;
    for (int r = 0; r < replicas; ++r) {
      overlay::NodeId owner = overlay::kInvalidNode;
      geom::Point position;
      const PublishSend sent = route_publish_message(
          node, number, h, cell_span, r, route_scratch_, stats_, hops,
          std::span<const overlay::NodeId>(placed.data(), placed_count),
          &owner, &position);
      if (sent == PublishSend::kDelivered) {
        place_entry(owner,
                    make_entry(node, vector, number, record, now, load,
                               capacity, h, ecan_->pack_cell(h, cell_span),
                               r, position));
        placed[placed_count++] = owner;
      } else if (sent == PublishSend::kLost && retry_.enabled()) {
        schedule_publish_retry(node, vector, number, load, capacity, h, r,
                               1);
      }
    }
  }
  ++stats_.publishes;
  stats_.route_hops += hops;
  return hops;
}

template <typename Store>
std::size_t BasicMapService<Store>::plan_publish(
    overlay::NodeId node, const proximity::LandmarkVector& vector,
    const util::BigUint& number, sim::Time now, double load, double capacity,
    overlay::RouteScratch& route, std::vector<PlannedPlacement>& out,
    MapServiceStats& stats) const {
  TO_EXPECTS(ecan_->alive(node));
  // The plan phase models the steady state: no fault/traffic plane, so a
  // message either routes (and will be applied) or fails its route. Loss
  // verdicts — and the retry machinery they would arm — cannot occur.
  TO_EXPECTS(!plane_active() && !traffic_active());
  std::uint32_t record = NodeRecordPool::kNullRecord;
  if constexpr (kCompact) {
    record = pool_.latest(node);
    // intern_node must have run (sequentially) before the parallel plan.
    TO_EXPECTS(record != NodeRecordPool::kNullRecord);
    TO_EXPECTS(pool_.number(record) == number);
  }
  std::size_t hops = 0;
  const int levels = ecan_->node_level(node);
  const int replicas = std::max(1, config_.replicas);
  std::array<std::uint32_t, geom::Point::kMaxDims> cell_buf{};
  const std::span<std::uint32_t> cell_span(cell_buf.data(), ecan_->dims());
  for (int h = 1; h <= levels; ++h) {
    ecan_->cell_of_node_into(node, h, cell_span);
    std::array<overlay::NodeId, static_cast<std::size_t>(kMaxReplicas)>
        placed{};
    std::size_t placed_count = 0;
    for (int r = 0; r < replicas; ++r) {
      overlay::NodeId owner = overlay::kInvalidNode;
      geom::Point position;
      const PublishSend sent = route_publish_message(
          node, number, h, cell_span, r, route, stats, hops,
          std::span<const overlay::NodeId>(placed.data(), placed_count),
          &owner, &position);
      if (sent == PublishSend::kDelivered) {
        out.push_back(PlannedPlacement{
            owner, make_entry(node, vector, number, record, now, load,
                              capacity, h, ecan_->pack_cell(h, cell_span),
                              r, position)});
        placed[placed_count++] = owner;
      }
    }
  }
  ++stats.publishes;
  stats.route_hops += hops;
  return hops;
}

template <typename Store>
void BasicMapService<Store>::apply_planned(PlannedPlacement&& placement) {
  // Parallel apply cannot fan a notification out to a single observer;
  // sharded rounds require none installed.
  TO_EXPECTS(!publish_observer_);
  place_entry(placement.owner, std::move(placement.entry));
}

template <typename Store>
void BasicMapService<Store>::schedule_publish_retry(
    overlay::NodeId node, proximity::LandmarkVector vector,
    util::BigUint number, double load, double capacity, int level,
    int replica, int attempt) {
  if (retry_queue_ == nullptr) return;
  if (attempt > retry_.retries()) {
    ++stats_.retries_exhausted;
    return;
  }
  const double delay = retry_.delay_ms(attempt, retry_rng_);
  retry_queue_->schedule_in(
      delay, [this, node, vector = std::move(vector),
              number = std::move(number), load, capacity, level, replica,
              attempt] {
        retry_publish_message(node, vector, number, load, capacity, level,
                              replica, attempt);
      });
}

template <typename Store>
void BasicMapService<Store>::retry_publish_message(
    overlay::NodeId node, const proximity::LandmarkVector& vector,
    const util::BigUint& number, double load, double capacity, int level,
    int replica, int attempt) {
  // The world may have moved while the retry waited: a departed publisher
  // or a shrunken zone makes the pending message moot (the periodic
  // republish owns recovery from here).
  if (!ecan_->alive(node)) return;
  if (level > ecan_->node_level(node)) return;
  std::array<std::uint32_t, geom::Point::kMaxDims> cell_buf{};
  const std::span<std::uint32_t> cell_span(cell_buf.data(), ecan_->dims());
  ecan_->cell_of_node_into(node, level, cell_span);
  ++stats_.publish_retries;
  std::size_t hops = 0;
  std::uint32_t record = NodeRecordPool::kNullRecord;
  if constexpr (kCompact)
    record = pool_.intern(node, ecan_->node(node).host, vector, number);
  overlay::NodeId owner = overlay::kInvalidNode;
  geom::Point position;
  const PublishSend sent = route_publish_message(
      node, number, level, cell_span, replica, route_scratch_, stats_, hops,
      {}, &owner, &position);
  stats_.route_hops += hops;
  if (sent == PublishSend::kDelivered) {
    place_entry(owner, make_entry(node, vector, number, record,
                                  retry_queue_->now(), load, capacity, level,
                                  ecan_->pack_cell(level, cell_span),
                                  replica, position));
    ++stats_.retry_recoveries;
    return;
  }
  if (sent == PublishSend::kLost)
    schedule_publish_retry(node, vector, number, load, capacity, level,
                           replica, attempt + 1);
}

template <typename Store>
void BasicMapService<Store>::collect_from(overlay::NodeId owner,
                                          std::uint64_t cell_key,
                                          sim::Time now,
                                          std::vector<const EntryT*>& out,
                                          bool prune,
                                          MapServiceStats& stats) const {
  const Store* store = find_store(owner);
  if (store == nullptr) return;
  if (prune) {
    // Prune expired entries on access (soft-state decay). Classic
    // single-threaded paths only — the shard path reads concurrently and
    // filters instead, leaving the drop to the round's expiry phase.
    stats.expired_entries +=
        const_cast<Store*>(store)->expire_before(now);
    store->for_each_in_group(cell_key, [&](const EntryT& stored) {
      out.push_back(&stored);
    });
  } else {
    store->for_each_in_group(cell_key, [&](const EntryT& stored) {
      if constexpr (kCompact) {
        if (stored.expires_at <= now) return;
      } else {
        if (stored.entry.expires_at <= now) return;
      }
      out.push_back(&stored);
    });
  }
}

template <typename Store>
std::vector<MapEntry> BasicMapService<Store>::lookup_entries(
    overlay::NodeId querier, const proximity::LandmarkVector& querier_vector,
    int level, std::span<const std::uint32_t> cell, sim::Time now,
    LookupResult* meta) {
  std::vector<MapEntry> entries;
  const std::size_t count = lookup_entries_into(querier, querier_vector,
                                                level, cell, now, entries,
                                                meta);
  entries.resize(count);
  return entries;
}

template <typename Store>
std::size_t BasicMapService<Store>::lookup_core(
    overlay::NodeId querier, const proximity::LandmarkVector& querier_vector,
    const util::BigUint& number, int level,
    std::span<const std::uint32_t> cell, sim::Time now,
    std::vector<MapEntry>& out, LookupScratch& scratch,
    MapServiceStats& stats, bool prune, LookupResult* meta) const {
  TO_EXPECTS(ecan_->alive(querier));
  const std::uint64_t cell_key = ecan_->pack_cell(level, cell);
  const bool gated = plane_active();
  const bool congested = traffic_active();
  const int replicas = std::max(1, config_.replicas);

  // Quorum-less first-success read: fetch from the primary position, fail
  // over replica-by-replica when the fetch dies (overlay routing failure,
  // crashed owner, partition, or loss that outlives the inline retry
  // budget). With replicas == 1 and no fault plane this collapses to the
  // single routed fetch of the original protocol.
  LookupResult result;
  std::array<overlay::NodeId, static_cast<std::size_t>(kMaxReplicas)>
      tried{};
  std::size_t tried_count = 0;
  bool fetched = false;
  for (int r = 0; r < replicas && !fetched; ++r) {
    const geom::Point position = map_position(number, level, cell, r);
    const bool routed = route_to(querier, position, scratch.route);
    result.route_hops += scratch.route.path.size() - 1;
    ++result.replicas_tried;
    if (!routed) continue;
    const overlay::NodeId owner = scratch.route.path.back();
    // A further replica that routes to an owner we already failed to
    // fetch from cannot do better under a crash/partition block; skip it
    // without spending a message.
    if (std::find(tried.begin(), tried.begin() + tried_count, owner) !=
        tried.begin() + tried_count)
      continue;
    tried[tried_count++] = owner;
    if (r > 0) ++stats.lookup_failovers;
    if (!gated && !congested) {
      ++result.attempts;
      ++stats.lookup_attempts;
      result.owner = owner;
      fetched = true;
      break;
    }
    // Inline bounded retry: loss is transient, so re-try this owner up to
    // the policy budget before failing over; crash/partition verdicts
    // fail over immediately. A congestion drop is transient like loss,
    // and a congested-but-delivered fetch charges its queuing delay to
    // the backoff accounting.
    for (int retry_num = 0;; ++retry_num) {
      ++result.attempts;
      ++stats.lookup_attempts;
      const sim::Verdict verdict =
          gated ? gate_route(sim::MessageKind::kLookup, scratch.route.path)
                : sim::Verdict{};
      bool lost = !verdict.delivered();
      bool transient = verdict.retryable();
      if (!lost && congested) {
        const net::TrafficPlane::Verdict traffic =
            gate_traffic(scratch.route.path);
        if (traffic.delivered) {
          result.backoff_ms += traffic.delay_ms;
        } else {
          ++stats.congestion_drops;
          lost = true;
          transient = true;
        }
      }
      if (!lost) {
        result.owner = owner;
        result.backoff_ms += verdict.delay_ms;
        fetched = true;
        break;
      }
      if (!transient || retry_num >= retry_.retries()) break;
      ++stats.lookup_retries;
      result.backoff_ms += retry_.delay_ms(retry_num + 1, retry_rng_);
    }
  }
  if (!fetched) {
    if (gated || congested) {
      result.fault_blocked = true;
      ++stats.fault_blocked_lookups;
    }
    ++stats.lookups;
    stats.route_hops += result.route_hops;
    if (meta != nullptr) *meta = result;
    return 0;
  }
  const net::HostId querier_host = ecan_->node(querier).host;

  // Every per-lookup container is a reused scratch member and each
  // candidate's distance is computed exactly once.
  scratch.found.clear();
  collect_from(result.owner, cell_key, now, scratch.found, prune, stats);

  // Table 1: "define a TTL to search outside y's map content range" —
  // ring expansion over adjacent map pieces (the owner's CAN neighbors)
  // until enough candidates are found or the TTL is exhausted.
  if (scratch.found.size() < config_.min_candidates &&
      config_.lookup_ring_ttl > 0) {
    if (scratch.visit_stamp.size() < ecan_->slot_count())
      scratch.visit_stamp.resize(ecan_->slot_count(), 0);
    if (++scratch.visit_epoch == 0) {  // stamp wraparound: one real reset
      std::fill(scratch.visit_stamp.begin(), scratch.visit_stamp.end(),
                0u);
      scratch.visit_epoch = 1;
    }
    scratch.visit_stamp[result.owner] = scratch.visit_epoch;
    std::vector<overlay::NodeId>* ring = &scratch.ring;
    std::vector<overlay::NodeId>* next_ring = &scratch.next_ring;
    ring->clear();
    ring->push_back(result.owner);
    for (int depth = 0; depth < config_.lookup_ring_ttl &&
                        scratch.found.size() < config_.min_candidates &&
                        !ring->empty();
         ++depth) {
      next_ring->clear();
      for (const overlay::NodeId node : *ring)
        for (const overlay::NodeId nb : ecan_->node(node).neighbors)
          if (ecan_->alive(nb) &&
              scratch.visit_stamp[nb] != scratch.visit_epoch) {
            scratch.visit_stamp[nb] = scratch.visit_epoch;
            next_ring->push_back(nb);
          }
      for (const overlay::NodeId nb : *next_ring) {
        ++result.pieces_visited;
        ++result.route_hops;  // one overlay message per piece visited
        if (gated && !fault_plane_->deliver(sim::MessageKind::kLookup,
                                            querier_host,
                                            ecan_->node(nb).host))
          continue;  // that piece stays unread this round
        if (congested &&
            !traffic_plane_->message(querier_host, ecan_->node(nb).host)
                 .delivered) {
          ++stats.congestion_drops;
          continue;  // congestion swallowed the piece fetch
        }
        collect_from(nb, cell_key, now, scratch.found, prune, stats);
      }
      std::swap(ring, next_ring);
    }
  }

  // Rank by landmark-space distance to the querier; only the top X are
  // returned, so a partial sort to the return budget suffices. Candidate
  // sets can run to hundreds of entries after ring expansion while
  // max_return is typically ~10, so ordering the tail is wasted work on
  // the hot lookup path. Budget in entries the querier itself owns (they
  // are skipped below) so the cutoff never starves the result. Ties on
  // distance are common once maps condense (quantized vectors), so break
  // them by node id — without a total order the partial-sort prefix
  // would be implementation-defined.
  std::size_t self_entries = 0;
  const std::size_t found_count = scratch.found.size();
  const std::size_t m = querier_vector.size();
  // Rank keys through the SoA microkernel: transpose the candidates'
  // vectors into a dim-major buffer once, then one vectorizable pass
  // computes every squared distance. Same keys as calling
  // squared_distance per candidate, minus the strided cache misses.
  scratch.soa.resize(found_count * m);
  scratch.dist.resize(found_count);
  for (std::size_t i = 0; i < found_count; ++i) {
    if constexpr (kCompact) {
      const std::uint32_t record = scratch.found[i]->record;
      TO_EXPECTS(pool_.dims() == m);
      for (std::size_t d = 0; d < m; ++d)
        scratch.soa[d * found_count + i] = pool_.component(record, d);
    } else {
      const proximity::LandmarkVector& v = scratch.found[i]->entry.vector;
      TO_EXPECTS(v.size() == m);
      for (std::size_t d = 0; d < m; ++d)
        scratch.soa[d * found_count + i] = v[d];
    }
  }
  proximity::squared_distances_soa(scratch.soa, found_count,
                                   querier_vector, scratch.dist);
  scratch.ranked.clear();
  scratch.ranked.reserve(found_count);
  for (std::size_t i = 0; i < found_count; ++i) {
    if (entry_node(*scratch.found[i]) == querier) ++self_entries;
    scratch.ranked.push_back(
        typename LookupScratch::RankedRef{scratch.dist[i],
                                          scratch.found[i]});
  }
  const std::size_t ranked =
      std::min(scratch.ranked.size(), config_.max_return + self_entries);
  std::partial_sort(
      scratch.ranked.begin(),
      scratch.ranked.begin() + static_cast<std::ptrdiff_t>(ranked),
      scratch.ranked.end(),
      [](const typename LookupScratch::RankedRef& a,
         const typename LookupScratch::RankedRef& b) {
        if (a.distance != b.distance) return a.distance < b.distance;
        return entry_node(*a.stored) < entry_node(*b.stored);
      });
  // Emit by assignment into the caller's buffer: a MapEntry's vector and
  // number reuse their existing heap blocks, so a warmed-up buffer makes
  // the whole lookup allocation-free.
  std::size_t count = 0;
  for (const typename LookupScratch::RankedRef& candidate :
       scratch.ranked) {
    if (count >= config_.max_return) break;
    if (entry_node(*candidate.stored) == querier)
      continue;  // never the asker
    if (count >= out.size()) out.emplace_back();
    assign_entry(out[count], *candidate.stored);
    ++count;
  }

  ++stats.lookups;
  stats.route_hops += result.route_hops;
  if (meta != nullptr) *meta = result;
  return count;
}

template <typename Store>
std::size_t BasicMapService<Store>::lookup_entries_into(
    overlay::NodeId querier, const proximity::LandmarkVector& querier_vector,
    const util::BigUint& number, int level,
    std::span<const std::uint32_t> cell, sim::Time now,
    std::vector<MapEntry>& out, LookupResult* meta) {
  return lookup_core(querier, querier_vector, number, level, cell, now, out,
                     lookup_scratch_, stats_, /*prune=*/true, meta);
}

template <typename Store>
std::size_t BasicMapService<Store>::lookup_entries_shard(
    overlay::NodeId querier, const proximity::LandmarkVector& querier_vector,
    const util::BigUint& number, int level,
    std::span<const std::uint32_t> cell, sim::Time now,
    std::vector<MapEntry>& out, LookupScratch& scratch,
    MapServiceStats& stats, LookupResult* meta) const {
  // Concurrent read-only lookups: no plane RNG, no store mutation.
  TO_EXPECTS(!plane_active() && !traffic_active());
  return lookup_core(querier, querier_vector, number, level, cell, now, out,
                     scratch, stats, /*prune=*/false, meta);
}

template <typename Store>
std::size_t BasicMapService<Store>::lookup_entries_into(
    overlay::NodeId querier, const proximity::LandmarkVector& querier_vector,
    int level, std::span<const std::uint32_t> cell, sim::Time now,
    std::vector<MapEntry>& out, LookupResult* meta) {
  number_coords_scratch_.resize(
      static_cast<std::size_t>(landmarks_->number_dims()));
  return lookup_entries_into(
      querier, querier_vector,
      landmarks_->landmark_number(querier_vector, number_coords_scratch_),
      level, cell, now, out, meta);
}

template <typename Store>
LookupResult BasicMapService<Store>::lookup(
    overlay::NodeId querier, const proximity::LandmarkVector& querier_vector,
    int level, std::span<const std::uint32_t> cell, sim::Time now) {
  LookupResult result;
  const auto entries =
      lookup_entries(querier, querier_vector, level, cell, now, &result);
  result.candidates.reserve(entries.size());
  for (const MapEntry& entry : entries)
    result.candidates.push_back(
        proximity::ProximityRecord{entry.host, entry.vector});
  return result;
}

template <typename Store>
void BasicMapService<Store>::remove_everywhere(overlay::NodeId node) {
  for_each_store([&](overlay::NodeId, Store& store) {
    store.erase_node(node);
  });
}

template <typename Store>
void BasicMapService<Store>::report_dead(overlay::NodeId owner,
                                         overlay::NodeId dead,
                                         sim::Time reported_at,
                                         overlay::NodeId reporter) {
  if (reporter != overlay::kInvalidNode && plane_active()) {
    // The report is itself a message, requester -> owner.
    if (!fault_plane_->deliver(sim::MessageKind::kRepair,
                               ecan_->node(reporter).host,
                               ecan_->node(owner).host)) {
      ++stats_.lost_repairs;
      return;
    }
  }
  if (reporter != overlay::kInvalidNode && traffic_active() &&
      !traffic_plane_->message(ecan_->node(reporter).host,
                               ecan_->node(owner).host)
           .delivered) {
    ++stats_.congestion_drops;
    ++stats_.lost_repairs;
    return;
  }
  // Anti-entropy must not undo a delivered report by pulling the evicted
  // copy back from a replica that never heard it: remember the cutoff and
  // refuse delta merges at or before it (sync_replica_copy). Finite
  // cutoffs only — the legacy +inf trust-the-reporter default would block
  // a rejoined publisher forever.
  if (config_.anti_entropy.enabled && std::isfinite(reported_at)) {
    const auto [it, inserted] = dead_cutoffs_.try_emplace(dead, reported_at);
    if (!inserted) it->second = std::max(it->second, reported_at);
  }
  Store* store = find_store(owner);
  if (store == nullptr) return;
  // Freshness guard: only evict records published at or before the time
  // the reporter observed the failure — a record the node re-published
  // after recovering outlives the stale report.
  stats_.lazy_deletions += store->erase_node_before(dead, reported_at);
}

template <typename Store>
overlay::NodeId BasicMapService<Store>::copy_target_owner(
    overlay::NodeId holder, overlay::NodeId node, std::uint64_t cell_key,
    int replica) const {
  const Store* store = find_store(holder);
  if (store == nullptr) return overlay::kInvalidNode;
  const EntryT* copy = store->find({node, cell_key});
  if (copy == nullptr) return overlay::kInvalidNode;
  std::array<std::uint32_t, geom::Point::kMaxDims> coords{};
  const std::span<std::uint32_t> cell(coords.data(), ecan_->dims());
  const int level = ecan_->unpack_cell(cell_key, cell);
  if constexpr (kCompact) {
    return ecan_->owner_of(
        map_position(pool_.number(copy->record), level, cell, replica));
  } else {
    return ecan_->owner_of(
        map_position(copy->entry.landmark_number, level, cell, replica));
  }
}

template <typename Store>
ReconOutcome BasicMapService<Store>::sync_replica_copy(
    overlay::NodeId holder, overlay::NodeId node, std::uint64_t cell_key,
    overlay::NodeId target_owner, int target_replica, sim::Time now,
    MapServiceStats& stats) {
  const Store* src_store = find_store(holder);
  if (src_store == nullptr) return ReconOutcome::kMissingSource;
  const EntryT* src = src_store->find({node, cell_key});
  if (src == nullptr || store_traits_.expires_at(*src) <= now)
    return ReconOutcome::kMissingSource;
  const sim::Time src_published = store_traits_.published_at(*src);

  // A reporter declared this publisher dead as of some cutoff; a copy
  // published at or before it is exactly the record the report evicted —
  // reconciliation must not resurrect it.
  if (src_published <= dead_cutoff(node)) {
    ++stats.ae_resurrections_blocked;
    return ReconOutcome::kBlockedDead;
  }

  // Strictly-newer-only merge: equal published_at means both copies came
  // from the same publish round and are identical — the tie breaks to "no
  // transfer" on every shard that evaluates it, keeping sharded digests
  // bit-identical.
  if (const Store* dst_store = find_store(target_owner)) {
    const EntryT* dst = dst_store->find({node, cell_key});
    if (dst != nullptr && store_traits_.published_at(*dst) >= src_published)
      return ReconOutcome::kStale;
  }

  // Re-tag the copy for its target replica slot; everything else —
  // payload, published_at and crucially expires_at — transfers verbatim,
  // so a pulled copy decays on the same soft-state schedule as the
  // original.
  EntryT copy = *src;
  if constexpr (kCompact) {
    copy.replica = static_cast<std::uint8_t>(target_replica);
  } else {
    std::array<std::uint32_t, geom::Point::kMaxDims> coords{};
    const std::span<std::uint32_t> cell(coords.data(), ecan_->dims());
    const int level = ecan_->unpack_cell(cell_key, cell);
    copy.replica = target_replica;
    copy.position = map_position(copy.entry.landmark_number, level, cell,
                                 target_replica);
  }
  place_entry(target_owner, std::move(copy));
  ++stats.ae_entries_pulled;
  return ReconOutcome::kPlaced;
}

template <typename Store>
std::size_t BasicMapService<Store>::expire_before(sim::Time now) {
  std::size_t dropped = 0;
  for_each_store([&](overlay::NodeId, Store& store) {
    dropped += store.expire_before(now);
  });
  stats_.expired_entries += dropped;
  return dropped;
}

template <typename Store>
std::size_t BasicMapService<Store>::expire_owner_before(
    overlay::NodeId owner, sim::Time now) {
  Store* store = find_store(owner);
  return store == nullptr ? 0 : store->expire_before(now);
}

template <typename Store>
void BasicMapService<Store>::migrate_after_join(overlay::NodeId joined,
                                                overlay::NodeId split_peer) {
  Store* source = find_store(split_peer);
  if (source == nullptr) return;
  const geom::Zone& new_zone = ecan_->node(joined).zone;
  std::vector<EntryT> moving = source->extract_if(
      [&](const EntryT& s) { return new_zone.contains(entry_position(s)); });
  if (moving.empty()) return;  // don't materialize an empty target store
  Store& target = store_of(joined);
  for (EntryT& stored : moving) target.upsert(std::move(stored));
}

template <typename Store>
std::vector<StoredEntry> BasicMapService<Store>::extract_store(
    overlay::NodeId node) {
  if constexpr (kCompact) {
    Store* store = find_store(node);
    if (store == nullptr) return {};
    std::vector<EntryT> compact = store->extract_all();
    std::vector<StoredEntry> out(compact.size());
    for (std::size_t i = 0; i < compact.size(); ++i)
      materialize_stored(compact[i], out[i]);
    return out;
  } else {
    Store* store = find_store(node);
    if (store == nullptr) return {};
    return store->extract_all();  // an emptied store reads as absent
  }
}

template <typename Store>
void BasicMapService<Store>::rehome(std::vector<StoredEntry> entries) {
  for (StoredEntry& stored : entries) {
    if (!ecan_->alive(stored.entry.node)) continue;  // drop records of dead
    const overlay::NodeId owner = ecan_->owner_of(stored.position);
    if (owner == overlay::kInvalidNode) continue;
    // Through place_entry, not a raw insert: a record republished while
    // its old host was being drained already sits on `owner`, and
    // appending would duplicate it; place_entry also fires the publish
    // observer so subscribers see rehomed records.
    if constexpr (kCompact) {
      // Cross the StoredEntry boundary back into compact form: re-intern
      // the payload (a no-op when the node's latest record matches) and
      // rebuild the inline fields.
      EntryT compact = make_entry(
          stored.entry.node, stored.entry.vector,
          stored.entry.landmark_number,
          pool_.intern(stored.entry.node, stored.entry.host,
                       stored.entry.vector, stored.entry.landmark_number),
          stored.entry.published_at, stored.entry.load,
          stored.entry.capacity, stored.level, stored.cell_key,
          stored.replica, stored.position);
      // make_entry stamps expires_at as now + ttl; restore the record's
      // own expiry (rehome replays, it does not refresh).
      compact.expires_at = stored.entry.expires_at;
      place_entry(owner, std::move(compact));
    } else {
      place_entry(owner, std::move(stored));
    }
    ++stats_.rehomed_entries;
  }
}

template <typename Store>
std::size_t BasicMapService<Store>::store_size(overlay::NodeId node) const {
  const Store* store = find_store(node);
  return store == nullptr ? 0 : store->size();
}

template <typename Store>
double BasicMapService<Store>::mean_entries_per_node() const {
  if (ecan_->empty()) return 0.0;
  return static_cast<double>(total_entries()) /
         static_cast<double>(ecan_->size());
}

template <typename Store>
std::size_t BasicMapService<Store>::max_entries_per_node() const {
  std::size_t max_size = 0;
  for_each_store([&](overlay::NodeId, const Store& store) {
    max_size = std::max(max_size, store.size());
  });
  return max_size;
}

template <typename Store>
std::size_t BasicMapService<Store>::hosting_owner_count() const {
  std::size_t hosting = 0;
  for_each_store([&](overlay::NodeId, const Store& store) {
    if (!store.empty()) ++hosting;
  });
  return hosting;
}

template <typename Store>
std::size_t BasicMapService<Store>::memory_bytes() const {
  std::size_t total = pool_.memory_bytes();
  total += stores_.capacity() * sizeof(Store);
  for (const Store& store : stores_) total += store.memory_bytes();
  if constexpr (!kCompact) {
    // Per-entry payload heap: every stored copy carries its own landmark
    // vector (the duplication the compact store exists to remove).
    for_each_store([&](overlay::NodeId, const Store& store) {
      store.for_each([&](const StoredEntry& stored) {
        total += stored.entry.vector.capacity() * sizeof(double);
      });
    });
  }
  return total;
}

template <typename Store>
bool BasicMapService<Store>::check_placement_invariant() const {
  bool ok = true;
  for_each_store([&](overlay::NodeId owner, const Store& store) {
    if (!ok || store.empty()) return;
    if (!ecan_->alive(owner)) {
      ok = false;
      return;
    }
    store.for_each([&](const EntryT& stored) {
      if (ecan_->owner_of(entry_position(stored)) != owner) ok = false;
    });
  });
  return ok;
}

template <typename Store>
std::size_t BasicMapService<Store>::total_entries() const {
  std::size_t total = 0;
  for_each_store([&](overlay::NodeId, const Store& store) {
    total += store.size();
  });
  return total;
}

template class BasicMapService<MapStore>;
template class BasicMapService<CompactMapStore>;

}  // namespace topo::softstate
