// Golden digests: committed FNV-1a fingerprints of the system's complete
// observable state after fixed, seeded operation scripts. They pin the
// outputs of the production join path and map service bit for bit, so any
// change that moves a zone, a table entry, a map record, a subscription, a
// counter or an RTT probe shows up here — without keeping a second
// implementation around to compare against.
//
// Two levels:
//   - Facade: N scalar joins, then a churn script of graceful leaves,
//     crashes, forced republishes, late joins, facade lookups and timer
//     windows (periodic republish, TTL expiry), across seeds, both RTT
//     engines, the fault plane on/off and measurement noise. Digested:
//     maps().state_hash(), every live node's zone and expressway table,
//     the subscription table plus PubSubStats, SystemStats,
//     MapServiceStats and oracle().probe_count().
//   - Map service: one op script (cached and non-cached publishes,
//     lookups with ring expansion, refresh + expire_before, leaves through
//     extract_store/rehome, split migration, lazy repair) replayed on
//     MapService and CompactMapService, single-copy and replicas=2.
//     Digested: every lookup result, the full stats and state_hash().
//
// When the digests were recorded, the batched join path and the map
// service over the linear store + reference router (both since deleted)
// produced the same values, so these digests carry those equivalence
// guarantees.
//
// A digest that moves is a behaviour change. If it is intended, regenerate
// the constants (the failure message prints the new value) and say why in
// CHANGES.md.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/soft_state_overlay.hpp"
#include "net/latency.hpp"
#include "net/transit_stub.hpp"
#include "softstate/map_service.hpp"

namespace topo {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void mix(std::uint64_t v) { h_ = (h_ ^ v) * 1099511628211ull; }
  void mix(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  }
  void mix(int v) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

net::Topology make_topology(std::uint64_t seed) {
  util::Rng rng(seed);
  net::Topology t = net::generate_transit_stub(net::tsk_tiny(), rng);
  net::assign_latencies(t, net::LatencyModel::kManual, rng);
  return t;
}

void mix_map_stats(Digest& d, const softstate::MapServiceStats& s) {
  for (const std::uint64_t v :
       {s.publishes, s.lookups, s.route_hops, s.expired_entries,
        s.lazy_deletions, s.lost_messages, s.failed_routes,
        s.rehomed_entries, s.publish_messages, s.blocked_publishes,
        s.publish_retries, s.retry_recoveries, s.retries_exhausted,
        s.replica_collapses, s.lookup_attempts, s.lookup_retries,
        s.lookup_failovers, s.fault_blocked_lookups, s.lost_repairs,
        s.congestion_drops, s.ae_sessions, s.ae_blocked_sessions,
        s.ae_ranges_compared, s.ae_ranges_synced, s.ae_entries_pulled,
        s.ae_summary_bytes, s.ae_delta_bytes, s.ae_full_bytes,
        s.ae_resurrections_blocked})
    d.mix(v);
}

// ---------------------------------------------------------------------
// Facade: scalar joins, then churn
// ---------------------------------------------------------------------

struct FacadeCase {
  std::uint64_t seed;
  net::RttEngineKind engine;
  bool faults;
  double noise;
  std::uint64_t join_digest;   // after the join phase
  std::uint64_t churn_digest;  // after the churn script
};

/// Everything a join, a departure or a republish can touch.
std::uint64_t facade_digest(core::SoftStateOverlay& s) {
  Digest d;
  d.mix(s.maps().state_hash());

  const overlay::EcanNetwork& ecan = s.ecan();
  for (overlay::NodeId id = 0; id < ecan.slot_count(); ++id) {
    if (!ecan.alive(id)) continue;
    d.mix(static_cast<std::uint64_t>(id));
    d.mix(static_cast<std::uint64_t>(ecan.node(id).host));
    for (std::size_t dim = 0; dim < ecan.dims(); ++dim) {
      d.mix(ecan.node(id).zone.lo(dim));
      d.mix(ecan.node(id).zone.hi(dim));
    }
    const int levels = ecan.node_level(id);
    d.mix(levels);
    for (int h = 1; h <= levels; ++h)
      for (std::size_t dim = 0; dim < ecan.dims(); ++dim)
        for (int dir = 0; dir < 2; ++dir)
          d.mix(static_cast<std::uint64_t>(ecan.table_entry(id, h, dim, dir)));
  }

  // Subscription table in id order (ids are assigned in protocol order).
  struct SubRow {
    pubsub::SubscriptionId id;
    const pubsub::Subscription* sub;
  };
  std::vector<SubRow> subs;
  s.pubsub().for_each_subscription(
      [&](pubsub::SubscriptionId id, const pubsub::Subscription& sub) {
        subs.push_back({id, &sub});
      });
  std::sort(subs.begin(), subs.end(),
            [](const SubRow& a, const SubRow& b) { return a.id < b.id; });
  d.mix(static_cast<std::uint64_t>(s.pubsub().active_subscriptions()));
  for (const SubRow& row : subs) {
    d.mix(static_cast<std::uint64_t>(row.id));
    d.mix(static_cast<std::uint64_t>(row.sub->subscriber));
    d.mix(row.sub->level);
    d.mix(row.sub->cell_key);
    d.mix(static_cast<std::uint64_t>(row.sub->watched));
    d.mix(row.sub->current_best_distance);
  }

  const pubsub::PubSubStats& ps = s.pubsub().stats();
  for (const std::uint64_t v :
       {ps.subscriptions, ps.notifications, ps.route_hops,
        ps.predicate_evaluations, ps.dropped_notifications, ps.load_exceeded})
    d.mix(v);
  const core::SystemStats& st = s.stats();
  for (const std::uint64_t v :
       {st.joins, st.leaves, st.crashes, st.reselections, st.republishes})
    d.mix(v);
  mix_map_stats(d, s.maps().stats());
  d.mix(s.oracle().probe_count());
  return d.value();
}

core::SystemConfig facade_config(const FacadeCase& c) {
  core::SystemConfig config;
  config.landmark_count = 8;
  config.rtt_budget = 8;
  config.seed = c.seed;
  config.rtt_engine = c.engine;
  if (c.faults) {
    config.fault.message_loss = 0.05;
    config.fault.publish_loss = 0.05;
  }
  return config;
}

net::HostId random_host(const net::Topology& t, util::Rng& rng) {
  return static_cast<net::HostId>(rng.next_u64(t.host_count()));
}

overlay::NodeId random_live(const overlay::EcanNetwork& ecan, util::Rng& rng) {
  std::vector<overlay::NodeId> live;
  for (overlay::NodeId id = 0; id < ecan.slot_count(); ++id)
    if (ecan.alive(id)) live.push_back(id);
  return live[rng.next_u64(live.size())];
}

class FacadeGolden : public ::testing::TestWithParam<FacadeCase> {};

TEST_P(FacadeGolden, JoinThenChurnMatchesCommittedDigests) {
  const FacadeCase c = GetParam();
  const net::Topology t = make_topology(c.seed);
  core::SoftStateOverlay system(t, facade_config(c));
  if (c.noise > 0.0) system.oracle().set_measurement_noise(c.noise, 77);

  util::Rng host_rng(c.seed * 31 + 7);
  for (int i = 0; i < 96; ++i) system.join(random_host(t, host_rng));
  EXPECT_EQ(facade_digest(system), c.join_digest)
      << std::hex << "join digest 0x" << facade_digest(system);

  util::Rng script(c.seed ^ 0x601de7ull);
  Digest lookups;
  for (int step = 0; step < 32; ++step) {
    const double roll = script.next_double();
    if (roll < 0.25) {
      system.leave(random_live(system.ecan(), script));
    } else if (roll < 0.45) {
      system.crash(random_live(system.ecan(), script));
    } else if (roll < 0.65) {
      system.republish_now(random_live(system.ecan(), script));
    } else if (roll < 0.8) {
      system.join(random_host(t, script));
    } else {
      const overlay::NodeId from = random_live(system.ecan(), script);
      const overlay::RouteResult route = system.lookup(
          from, geom::Point::random(system.ecan().dims(), script));
      lookups.mix(route.success);
      lookups.mix(static_cast<std::uint64_t>(route.path.size()));
      if (!route.path.empty())
        lookups.mix(static_cast<std::uint64_t>(route.path.back()));
    }
    system.run_for(2'000.0);
  }
  // Past one TTL: every node republishes on its timer and records of the
  // crashed nodes expire.
  system.run_for(65'000.0);
  Digest final_digest;
  final_digest.mix(facade_digest(system));
  final_digest.mix(lookups.value());
  EXPECT_EQ(final_digest.value(), c.churn_digest)
      << std::hex << "churn digest 0x" << final_digest.value();
  EXPECT_TRUE(system.maps().check_placement_invariant());

  // The script must actually reach the paths it claims to pin.
  EXPECT_GT(system.stats().leaves, 0u);
  EXPECT_GT(system.stats().crashes, 0u);
  EXPECT_GT(system.stats().republishes, 0u);
  EXPECT_GT(system.stats().joins, 96u);
  EXPECT_GT(system.maps().stats().expired_entries, 0u);
  EXPECT_GT(system.maps().stats().rehomed_entries, 0u);
  EXPECT_GT(system.pubsub().stats().notifications, 0u);
  if (c.faults) {
    EXPECT_GT(system.maps().stats().lost_messages, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, FacadeGolden,
    ::testing::Values(
        FacadeCase{1, net::RttEngineKind::kDijkstra, false, 0.0,
                   0xeb619b4a0b5ce55full, 0x7318f9cd65bae39eull},
        FacadeCase{2, net::RttEngineKind::kDijkstra, true, 0.0,
                   0x3f9bf36ea3a4caf4ull, 0xa1ad434bbe351cf3ull},
        FacadeCase{3, net::RttEngineKind::kHierarchical, false, 0.0,
                   0x81acc2dec57714baull, 0x7ca83ff0480f3a61ull},
        FacadeCase{4, net::RttEngineKind::kHierarchical, true, 0.0,
                   0x48e7889dae37adb9ull, 0x845bef88d38aa953ull},
        FacadeCase{5, net::RttEngineKind::kDijkstra, false, 0.2,
                   0x31ae465c0a8f5a4full, 0xd247fa1e98e70136ull},
        FacadeCase{6, net::RttEngineKind::kHierarchical, true, 0.2,
                   0x1aff04adc4d0762eull, 0xcca2433042b1bee7ull}),
    [](const ::testing::TestParamInfo<FacadeCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------
// Map service: one op script, both production backends
// ---------------------------------------------------------------------

struct ServiceCase {
  std::uint64_t seed;
  int replicas;
  std::uint64_t lookup_digest;  // every lookup's entries and metadata
  std::uint64_t stats_digest;   // MapServiceStats + store shape
  std::uint64_t state_hash;     // BasicMapService::state_hash()
};

struct ServiceDigests {
  std::uint64_t lookups = 0;
  std::uint64_t stats = 0;
  std::uint64_t state = 0;
};

void mix_lookup(Digest& d, const std::vector<softstate::MapEntry>& out,
                std::size_t count, const softstate::LookupResult& meta) {
  d.mix(static_cast<std::uint64_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const softstate::MapEntry& e = out[i];
    d.mix(static_cast<std::uint64_t>(e.node));
    d.mix(static_cast<std::uint64_t>(e.host));
    for (const double v : e.vector) d.mix(v);
    d.mix(e.landmark_number.low64());
    d.mix(e.load);
    d.mix(e.capacity);
    d.mix(e.published_at);
    d.mix(e.expires_at);
  }
  d.mix(static_cast<std::uint64_t>(meta.owner));
  d.mix(static_cast<std::uint64_t>(meta.route_hops));
  d.mix(static_cast<std::uint64_t>(meta.pieces_visited));
  d.mix(static_cast<std::uint64_t>(meta.attempts));
  d.mix(static_cast<std::uint64_t>(meta.replicas_tried));
  d.mix(meta.fault_blocked);
}

/// Replays the op script on a fresh world built from `c.seed`.
template <typename Service>
ServiceDigests run_service_script(const ServiceCase& c) {
  util::Rng rng(c.seed);
  const net::Topology topology = [&] {
    net::Topology t = net::generate_transit_stub(net::tsk_tiny(), rng);
    net::assign_latencies(t, net::LatencyModel::kManual, rng);
    return t;
  }();
  net::RttOracle oracle(topology);
  const proximity::LandmarkSet landmarks =
      proximity::LandmarkSet::choose_random(topology, 8, rng, {});
  overlay::EcanNetwork ecan(2);
  std::vector<proximity::LandmarkVector> vectors;
  std::vector<util::BigUint> numbers;
  const auto measure = [&](overlay::NodeId id) {
    if (vectors.size() <= id) {
      vectors.resize(id + 1);
      numbers.resize(id + 1);
    }
    vectors[id] = landmarks.measure(oracle, ecan.node(id).host);
    numbers[id] = landmarks.landmark_number(vectors[id]);
  };
  for (int i = 0; i < 160; ++i)
    measure(ecan.join_random(random_host(topology, rng), rng));

  softstate::MapConfig config;
  config.replicas = c.replicas;
  Service maps(ecan, landmarks, config);

  // Alternates the cached-number and derive-the-number publish paths.
  std::size_t publish_count = 0;
  const auto publish = [&](overlay::NodeId id, sim::Time now) {
    const double load = static_cast<double>(id % 7) * 0.1;
    const double capacity = 1.0 + static_cast<double>(id % 3);
    if (publish_count++ % 2 == 0)
      maps.publish(id, vectors[id], numbers[id], now, load, capacity);
    else
      maps.publish(id, vectors[id], now, load, capacity);
  };

  Digest lookups;
  std::size_t ring_expansions = 0;
  std::vector<softstate::MapEntry> buffer;
  std::vector<std::uint32_t> cell(ecan.dims());
  const auto lookup_batch = [&](int count, sim::Time now) {
    for (int q = 0; q < count; ++q) {
      const overlay::NodeId querier = random_live(ecan, rng);
      const int levels = ecan.node_level(querier);
      if (levels < 1) continue;
      const int level = 1 + static_cast<int>(rng.next_u64(
                                static_cast<std::uint64_t>(levels)));
      ecan.cell_of_node_into(querier, level, cell);
      softstate::LookupResult meta;
      std::size_t found;
      if (q % 2 == 0) {
        found = maps.lookup_entries_into(querier, vectors[querier],
                                         numbers[querier], level, cell, now,
                                         buffer, &meta);
      } else {
        buffer = maps.lookup_entries(querier, vectors[querier], level, cell,
                                     now, &meta);
        found = buffer.size();
      }
      mix_lookup(lookups, buffer, found, meta);
      if (meta.pieces_visited > 1) ++ring_expansions;
    }
  };

  // Publish everything, read it back.
  for (overlay::NodeId id = 0; id < ecan.slot_count(); ++id)
    if (ecan.alive(id)) publish(id, 0.0);
  lookup_batch(200, 100.0);

  // Refresh about half, then expire the first wave.
  for (overlay::NodeId id = 0; id < ecan.slot_count(); ++id)
    if (ecan.alive(id) && rng.next_bool(0.5)) publish(id, 30'000.0);
  lookups.mix(static_cast<std::uint64_t>(maps.expire_before(70'000.0)));
  lookup_batch(100, 70'000.0);

  // Churn on the refreshed maps: graceful leaves replay the leaver's
  // store (and the taker's) onto the new owners, joins migrate the split
  // peer's entries, and lazy repair evicts a reported-dead publisher.
  for (int step = 0; step < 30; ++step) {
    const sim::Time now = 71'000.0 + 100.0 * step;
    const double roll = rng.next_double();
    if (roll < 0.4) {
      const overlay::NodeId leaver = random_live(ecan, rng);
      maps.remove_everywhere(leaver);
      std::vector<softstate::StoredEntry> hosted = maps.extract_store(leaver);
      const auto report = ecan.leave(leaver);
      maps.rehome(std::move(hosted));
      for (const overlay::NodeId changed : {report.taker, report.moved})
        if (changed != overlay::kInvalidNode && ecan.alive(changed))
          maps.rehome(maps.extract_store(changed));
    } else if (roll < 0.75) {
      overlay::NodeId split_peer = overlay::kInvalidNode;
      const overlay::NodeId id =
          ecan.join(random_host(topology, rng),
                    geom::Point::random(ecan.dims(), rng), &split_peer);
      measure(id);
      if (split_peer != overlay::kInvalidNode)
        maps.migrate_after_join(id, split_peer);
      publish(id, now);
    } else {
      // A requester reports one of an owner's stored publishers dead.
      std::vector<std::pair<overlay::NodeId, overlay::NodeId>> hosted;
      maps.for_each_entry(
          [&](overlay::NodeId owner, const softstate::StoredEntry& stored) {
            hosted.emplace_back(owner, stored.entry.node);
          });
      std::sort(hosted.begin(), hosted.end());
      const auto [owner, dead] = hosted[rng.next_u64(hosted.size())];
      maps.report_dead(owner, dead, now);
    }
  }
  lookup_batch(200, 80'000.0);

  Digest stats;
  mix_map_stats(stats, maps.stats());
  stats.mix(static_cast<std::uint64_t>(maps.total_entries()));
  stats.mix(static_cast<std::uint64_t>(maps.hosting_owner_count()));
  stats.mix(static_cast<std::uint64_t>(maps.max_entries_per_node()));
  stats.mix(maps.check_placement_invariant());

  // The script must actually reach the paths it claims to pin.
  EXPECT_GT(ring_expansions, 0u);
  EXPECT_GT(maps.stats().expired_entries, 0u);
  EXPECT_GT(maps.stats().rehomed_entries, 0u);
  EXPECT_GT(maps.stats().lazy_deletions, 0u);
  if (c.replicas > 1) {
    EXPECT_GT(maps.stats().replica_collapses, 0u);
  }

  ServiceDigests out;
  out.lookups = lookups.value();
  out.stats = stats.value();
  out.state = maps.state_hash();
  return out;
}

class ServiceGolden : public ::testing::TestWithParam<ServiceCase> {};

void expect_golden(const ServiceDigests& got, const ServiceCase& c) {
  EXPECT_EQ(got.lookups, c.lookup_digest)
      << std::hex << "lookup digest 0x" << got.lookups;
  EXPECT_EQ(got.stats, c.stats_digest)
      << std::hex << "stats digest 0x" << got.stats;
  EXPECT_EQ(got.state, c.state_hash)
      << std::hex << "state hash 0x" << got.state;
}

TEST_P(ServiceGolden, FullStoreMatchesCommittedDigests) {
  expect_golden(run_service_script<softstate::MapService>(GetParam()),
                GetParam());
}

TEST_P(ServiceGolden, CompactStoreMatchesCommittedDigests) {
  expect_golden(run_service_script<softstate::CompactMapService>(GetParam()),
                GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, ServiceGolden,
    ::testing::Values(
        ServiceCase{101, 1, 0xe643d5f61ef0b3caull, 0xeb20f216ead33e36ull,
                    0x44a2588924af0afbull},
        ServiceCase{303, 2, 0x957b0a5781027ecaull, 0xad1c6fef2faeda6full,
                    0x218bcaf29226ae7full},
        ServiceCase{505, 2, 0x54f281f85b83d480ull, 0x9267da232a6fff47ull,
                    0x0aa79ed012136a0bull}),
    [](const ::testing::TestParamInfo<ServiceCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_replicas" +
             std::to_string(info.param.replicas);
    });

}  // namespace
}  // namespace topo
