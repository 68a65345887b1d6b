// softstate-100k: the soft-state core alone at 100k nodes — streamed world
// build, compact store, scalable router — running publish, lookup and
// expiry rounds through ShardedMapRunner at a fixed shard count, plus
// single-client DHT routes over the same overlay. No facade and no
// pub/sub: a change to the facade's cascade should leave it flat, and it
// is the only workload that exercises the sharded runner, the compact
// store and the thread pool.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/selectors.hpp"
#include "net/rtt_oracle.hpp"
#include "net/streamed_build.hpp"
#include "net/transit_stub.hpp"
#include "overlay_checks.hpp"
#include "proximity/landmarks.hpp"
#include "softstate/sharded_runner.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace topo;

// The soft-state core's store and router are picked here and only here.
using Service = softstate::CompactMapService;
softstate::MapConfig map_config() {
  softstate::MapConfig config;
  config.scalable_router = true;
  return config;
}
/// The DHT route the soft-state core's messages take (matches
/// map_config().scalable_router).
bool route(const overlay::EcanNetwork& ecan, overlay::NodeId from,
           const geom::Point& key, overlay::RouteScratch& scratch) {
  return ecan.route_ecan_scalable(from, key, scratch);
}
// Owner-of-center gap filling pairs with the scalable router.
constexpr bool kDenseTables = true;

using Runner = softstate::ShardedMapRunner<Service>;

constexpr std::size_t kNodes = 100'000;
constexpr std::uint32_t kShards = 4;
constexpr std::size_t kLookups = 50'000;
constexpr std::size_t kRoutes = 20'000;
constexpr int kLandmarks = 15;
constexpr int kSetups = 3;  // set-ups per run; setup_s is their median
// Each round publishes and looks up in kSlices batches and runs its DHT
// routes in 2 * kSlices batches, one after every publish and lookup batch,
// so that every rate is sampled all through the run rather than in one
// burst per round; the rates are medians over all batches of a run.
constexpr std::size_t kSlices = 8;
// Reference-kernel chases after every route batch and around every set-up.
constexpr int kReferenceSamples = 8;
constexpr double kLookupTime = 1'000.0;
constexpr double kExpireAllTime = 60'000.0 + 1.0;  // past the default TTL
// The network and its landmarks are fixed; --seed varies where the 100k
// nodes join, their hosts, their tables and the requests.
constexpr std::uint64_t kWorldSeed = 0x100c;

/// Everything a round runs on: the world, the 100k-node overlay with its
/// landmark vectors and expressway tables, and the seeded request lists.
struct Core {
  net::Topology topology;
  std::unique_ptr<net::RttOracle> oracle;
  std::unique_ptr<proximity::LandmarkSet> landmarks;
  std::unique_ptr<overlay::EcanNetwork> ecan;
  std::vector<overlay::NodeId> nodes;
  std::vector<proximity::LandmarkVector> vectors;
  std::vector<util::BigUint> numbers;
  std::vector<std::uint32_t> shard_of;
  std::vector<Runner::PublishRequest> publishes;
  std::vector<std::vector<std::uint32_t>> cells;
  std::vector<Runner::LookupQuery> lookups;
  std::vector<std::pair<overlay::NodeId, geom::Point>> routes;
  std::uint64_t build_probes = 0;
  double world_s = 0.0;
  double overlay_s = 0.0;
  double setup_s = 0.0;
};

std::unique_ptr<Core> set_up(std::uint64_t seed) {
  auto core = std::make_unique<Core>();
  const Clock::time_point start = Clock::now();
  util::Rng topo_rng(kWorldSeed);
  util::Rng latency_rng(kWorldSeed ^ 0x9e3779b97f4a7c15ull);
  net::StreamedWorld world =
      net::build_streamed_world(net::tsk_large(), topo_rng, latency_rng);
  core->topology = std::move(world.topology);
  core->oracle = std::make_unique<net::RttOracle>(core->topology,
                                                  std::move(world.engine));
  proximity::LandmarkConfig landmark_config;
  landmark_config.scale_ms = 80.0;  // manual latency regime
  core->landmarks = std::make_unique<proximity::LandmarkSet>(
      proximity::LandmarkSet::choose_random(core->topology, kLandmarks,
                                            topo_rng, landmark_config));
  core->world_s = seconds_since(start);

  const Clock::time_point overlay_start = Clock::now();
  util::Rng rng(seed + 1);
  core->ecan = std::make_unique<overlay::EcanNetwork>(2);
  overlay::EcanNetwork& ecan = *core->ecan;
  const std::size_t hosts = core->topology.host_count();
  for (std::size_t i = 0; i < kNodes; ++i)
    core->nodes.push_back(ecan.join_random(
        static_cast<net::HostId>(rng.next_u64(hosts)), rng));
  core->vectors.resize(kNodes);
  core->numbers.resize(kNodes);
  for (const overlay::NodeId id : core->nodes) {
    core->vectors[id] = core->landmarks->measure(*core->oracle, ecan.node(id).host);
    core->numbers[id] = core->landmarks->landmark_number(core->vectors[id]);
  }
  core->build_probes = core->oracle->probe_count();
  core::RandomSelector selector{util::Rng(seed + 2)};
  ecan.build_all_tables(selector, kDenseTables);
  core->overlay_s = seconds_since(overlay_start);
  core->setup_s = seconds_since(start);

  core->shard_of =
      softstate::shard_by_stub(ecan, core->topology, kShards, ecan.slot_count());
  for (const overlay::NodeId id : core->nodes)
    core->publishes.push_back(
        {id, &core->vectors[id], &core->numbers[id], 0.0, 1.0});
  util::Rng query_rng(seed + 3);
  struct Pending {
    overlay::NodeId querier;
    int level;
  };
  std::vector<Pending> pending;
  while (pending.size() < kLookups) {
    const overlay::NodeId q = core->nodes[query_rng.next_u64(kNodes)];
    const int levels = ecan.node_level(q);
    if (levels < 1) continue;
    pending.push_back(
        {q, 1 + static_cast<int>(query_rng.next_u64(
                    static_cast<std::uint64_t>(levels)))});
  }
  core->cells.reserve(kLookups);  // the queries keep spans into these
  for (const Pending& p : pending) {
    core->cells.push_back(ecan.cell_of_node(p.querier, p.level));
    core->lookups.push_back({p.querier, &core->vectors[p.querier],
                             &core->numbers[p.querier], p.level,
                             core->cells.back()});
  }
  for (std::size_t i = 0; i < kRoutes; ++i)
    core->routes.emplace_back(core->nodes[query_rng.next_u64(kNodes)],
                              geom::Point::random(2, query_rng));
  return core;
}

/// The i-th of n near-equal batches of `items`.
template <typename T>
std::span<const T> batch(const std::vector<T>& items, std::size_t i,
                         std::size_t n) {
  const std::size_t begin = items.size() * i / n;
  const std::size_t end = items.size() * (i + 1) / n;
  return std::span<const T>(items).subspan(begin, end - begin);
}

struct Round {
  double publish_s = 0.0;
  double lookup_s = 0.0;
  double route_s = 0.0;
  double expire_s = 0.0;
  std::uint64_t publish_messages = 0;
  std::size_t publish_hops = 0;
  std::size_t lookup_hops = 0;
  std::size_t candidates = 0;
  std::size_t entries = 0;
  std::size_t expired = 0;
  std::size_t failed_routes = 0;      // DHT routes that gave up
  std::uint64_t failed_publishes = 0;  // MapServiceStats::failed_routes
  std::uint64_t state_hash = 0;
  double softstate_bytes = 0.0;
  std::vector<double> route_hops;
  std::vector<double> stretch;
  // Per batch: publish messages, lookups and routes per second.
  std::vector<double> publish_rates;
  std::vector<double> lookup_rates;
  std::vector<double> route_rates;
  Signature signature;
};

/// Output checks of one round against properties the method must have.
void check_round(const Core& core, const Service& maps,
                 const std::vector<std::vector<softstate::MapEntry>>& results,
                 const std::vector<std::size_t>& counts, RunResult& result) {
  const overlay::EcanNetwork& ecan = *core.ecan;
  // Each live node has exactly one record for each of its levels, in the
  // map of its own cell at that level.
  constexpr std::size_t kSlots = 16;
  std::vector<std::uint8_t> copies(ecan.slot_count() * kSlots, 0);
  bool placed_right = true;
  std::vector<std::uint32_t> cell(ecan.dims());
  maps.for_each_entry([&](overlay::NodeId, const softstate::StoredEntry& s) {
    const overlay::NodeId n = s.entry.node;
    if (!ecan.alive(n) || s.level < 1 || s.level > ecan.node_level(n) ||
        static_cast<std::size_t>(s.level) >= kSlots) {
      placed_right = false;
      return;
    }
    ecan.cell_of_node_into(n, s.level, cell);
    if (s.cell_key != ecan.pack_cell(s.level, cell)) placed_right = false;
    ++copies[n * kSlots + static_cast<std::size_t>(s.level)];
  });
  for (const overlay::NodeId id : core.nodes)
    for (int h = 1; h <= ecan.node_level(id); ++h)
      placed_right = placed_right &&
                     copies[id * kSlots + static_cast<std::size_t>(h)] == 1;
  result.check(placed_right,
               "softstate-100k: maps do not hold exactly one record per live "
               "node and level");
  result.check(maps.check_placement_invariant(),
               "softstate-100k: placement invariant violated");

  // Every candidate is a live member of the queried map, and candidates
  // come back ordered by landmark distance to the querier.
  bool members = true, ordered = true;
  for (std::size_t i = 0; i < core.lookups.size(); ++i) {
    const Runner::LookupQuery& q = core.lookups[i];
    double previous = -1.0;
    for (std::size_t c = 0; c < counts[i]; ++c) {
      const softstate::MapEntry& e = results[i][c];
      if (!ecan.alive(e.node) || ecan.node_level(e.node) < q.level) {
        members = false;
        continue;
      }
      ecan.cell_of_node_into(e.node, q.level, cell);
      if (!std::equal(cell.begin(), cell.end(), q.cell.begin(), q.cell.end()))
        members = false;
      const double d = proximity::vector_distance(*q.vector, e.vector);
      if (d < previous) ordered = false;
      previous = d;
    }
  }
  result.check(members,
               "softstate-100k: a lookup candidate is not a live member of "
               "the queried map");
  result.check(ordered,
               "softstate-100k: lookup candidates are not ordered by landmark "
               "distance");
}

Round run_round(const Core& core, util::ThreadPool& pool, bool check,
                RunResult& result, SpeedReference& reference) {
  Round r;
  const overlay::EcanNetwork& ecan = *core.ecan;
  Service maps(*core.ecan, *core.landmarks, map_config());
  Runner runner(maps, core.shard_of, kShards, pool);

  overlay::RouteScratch scratch;
  std::vector<std::vector<overlay::NodeId>> paths;
  std::vector<char> reached;
  paths.reserve(core.routes.size());
  reached.reserve(core.routes.size());
  std::size_t route_batch = 0;
  const auto route_batch_next = [&] {
    const auto routes = batch(core.routes, route_batch++, 2 * kSlices);
    const Clock::time_point t = Clock::now();
    for (const auto& [from, key] : routes) {
      reached.push_back(route(ecan, from, key, scratch) ? 1 : 0);
      paths.push_back(scratch.path);
    }
    const double took = seconds_since(t);
    r.route_s += took;
    r.route_rates.push_back(static_cast<double>(routes.size()) / took);
    for (int i = 0; i < kReferenceSamples; ++i) reference.sample();
  };

  for (std::size_t i = 0; i < kSlices; ++i) {
    const std::uint64_t messages_before = maps.stats().publish_messages;
    const Clock::time_point t = Clock::now();
    r.publish_hops += runner.publish_round(batch(core.publishes, i, kSlices), 0.0);
    const double took = seconds_since(t);
    r.publish_s += took;
    r.publish_rates.push_back(
        static_cast<double>(maps.stats().publish_messages - messages_before) /
        took);
    route_batch_next();
  }
  r.publish_messages = maps.stats().publish_messages;
  r.failed_publishes = maps.stats().failed_routes;
  r.entries = maps.total_entries();
  r.softstate_bytes = static_cast<double>(maps.memory_bytes());

  std::vector<std::vector<softstate::MapEntry>> results(core.lookups.size());
  std::vector<std::size_t> counts(core.lookups.size(), 0);
  const std::uint64_t hops_before = maps.stats().route_hops;
  for (std::size_t i = 0; i < kSlices; ++i) {
    const auto queries = batch(core.lookups, i, kSlices);
    const std::size_t first = core.lookups.size() * i / kSlices;
    const Clock::time_point t = Clock::now();
    runner.lookup_round(
        queries, kLookupTime,
        std::span(results).subspan(first, queries.size()),
        std::span(counts).subspan(first, queries.size()));
    const double took = seconds_since(t);
    r.lookup_s += took;
    r.lookup_rates.push_back(static_cast<double>(queries.size()) / took);
    route_batch_next();
  }
  // lookup_round returns no hop count; the merged stats carry it.
  r.lookup_hops = maps.stats().route_hops - hops_before;
  for (const std::size_t c : counts) r.candidates += c;

  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::vector<overlay::NodeId>& path = paths[i];
    if (!reached[i]) {
      ++r.failed_routes;
      continue;
    }
    result.check(!path.empty() &&
                     ecan.node(path.back()).zone.contains(core.routes[i].second),
                 "softstate-100k: a route ended away from the key's owner");
    r.route_hops.push_back(static_cast<double>(path.size() - 1));
    const auto stretch = route_stretch(ecan, *core.oracle, path);
    if (!stretch) continue;
    result.check(*stretch >= 1.0, "softstate-100k: stretch below 1");
    r.stretch.push_back(*stretch);
  }

  r.state_hash = maps.state_hash();
  if (check) check_round(core, maps, results, counts, result);

  const Clock::time_point t = Clock::now();
  r.expired = runner.expire_round(kExpireAllTime);
  r.expire_s = seconds_since(t);
  result.check(r.expired == r.entries && maps.total_entries() == 0,
               "softstate-100k: the expiry round left live entries behind");

  r.signature.add("publish_messages", static_cast<double>(r.publish_messages));
  r.signature.add("publish_hops", static_cast<double>(r.publish_hops));
  r.signature.add("lookup_hops", static_cast<double>(r.lookup_hops));
  r.signature.add("candidates", static_cast<double>(r.candidates));
  r.signature.add("entries", static_cast<double>(r.entries));
  r.signature.add("expired", static_cast<double>(r.expired));
  r.signature.add("failed_routes", static_cast<double>(r.failed_routes));
  r.signature.add("failed_publishes", static_cast<double>(r.failed_publishes));
  r.signature.add("state_hash_hi", static_cast<double>(r.state_hash >> 32));
  r.signature.add("state_hash_lo",
                  static_cast<double>(r.state_hash & 0xffffffffu));
  r.signature.add("route_hops", sum(r.route_hops));
  r.signature.add("stretch_sum", sum(r.stretch));
  return r;
}

}  // namespace

RunResult run_softstate_100k(const Options& options) {
  RunResult result;
  util::ThreadPool pool(util::ThreadPool::configured_threads());

  // Set-up is timed kSetups times: before the rounds, half-way through
  // them (the later rounds run on the rebuilt core and must reproduce the
  // same signature) and after them, so that its samples lie all through
  // the run.
  std::vector<double> setup, world, overlay_build;
  SpeedReference reference;
  const auto timed_set_up = [&] {
    for (int i = 0; i < kReferenceSamples; ++i) reference.sample();
    std::unique_ptr<Core> built = set_up(options.seed);
    for (int i = 0; i < kReferenceSamples; ++i) reference.sample();
    setup.push_back(built->setup_s);
    world.push_back(built->world_s);
    overlay_build.push_back(built->overlay_s);
    return built;
  };
  std::unique_ptr<Core> core = timed_set_up();
  result.check(core->ecan->size() == kNodes,
               "softstate-100k: overlay did not reach its size");

  std::vector<Round> rounds;
  double measured = 0.0;
  double rss_mib = 0.0;  // after round 0: independent of the round count
  const std::size_t min_rounds = options.trace ? 2 : 1;
  bool rebuilt = false;
  while (keep_going(measured, options, rounds.size(), min_rounds)) {
    if (!rebuilt && measured >= options.seconds / 2) {
      core.reset();
      core = timed_set_up();
      rebuilt = true;
    }
    rounds.push_back(run_round(*core, pool, rounds.empty(), result, reference));
    const Round& r = rounds.back();
    measured += r.publish_s + r.lookup_s + r.route_s + r.expire_s;
    result.attempted += kNodes + core->lookups.size() + core->routes.size();
    result.failed += r.failed_routes + r.failed_publishes;
    if (rounds.size() == 1) rss_mib = peak_rss_mib();
    const std::string diff = r.signature.diff(rounds.front().signature);
    result.check(diff.empty(), "softstate-100k: round " +
                                   std::to_string(rounds.size() - 1) +
                                   " diverged from round 0 (" + diff + ")");
  }

  const Round& first = rounds.front();
  std::vector<double> publish_rate, lookup_rate, route_rate, publish_s,
      lookup_s, expire_s, route_us;
  for (const Round& r : rounds) {
    publish_rate.insert(publish_rate.end(), r.publish_rates.begin(),
                        r.publish_rates.end());
    lookup_rate.insert(lookup_rate.end(), r.lookup_rates.begin(),
                       r.lookup_rates.end());
    route_rate.insert(route_rate.end(), r.route_rates.begin(),
                      r.route_rates.end());
    publish_s.push_back(r.publish_s);
    lookup_s.push_back(r.lookup_s);
    expire_s.push_back(r.expire_s);
    route_us.push_back(r.route_s * 1e6 / static_cast<double>(core->routes.size()));
  }

  // The store digest must not depend on the thread count: replay the
  // publish batches on a single thread and compare.
  if (options.trace) {
    util::ThreadPool single(1);
    Service maps(*core->ecan, *core->landmarks, map_config());
    Runner runner(maps, core->shard_of, kShards, single);
    for (std::size_t i = 0; i < kSlices; ++i)
      runner.publish_round(batch(core->publishes, i, kSlices), 0.0);
    result.check(maps.state_hash() == first.state_hash,
                 "softstate-100k: store digest differs between 1 and " +
                     std::to_string(pool.size()) + " threads");
  }
  const double lookups = static_cast<double>(core->lookups.size());
  const double build_probes = static_cast<double>(core->build_probes);
  core.reset();
  while (setup.size() < static_cast<std::size_t>(kSetups)) timed_set_up();

  char line[320];
  std::snprintf(line, sizeof line,
                "softstate-100k: %zu rounds on %u threads, %u shards; publish "
                "%.3f s, lookup %.3f s, expire %.3f s (medians)",
                rounds.size(), pool.size(), kShards, median(publish_s),
                median(lookup_s), median(expire_s));
  result.note(line);
  const double slowdown = reference.slowdown();
  const double nodes = static_cast<double>(kNodes);
  std::snprintf(line, sizeof line,
                "softstate-100k raw: setup %.4f s, %.1f joins/s, %.0f ops/s, "
                "%.0f publishes/s, %.1f lookups/s; reference %.1f ns per load "
                "over %zu samples, slowdown %.4f",
                median(setup), nodes / median(overlay_build),
                median(route_rate), median(publish_rate), median(lookup_rate),
                reference.ns_per_load(), reference.samples(), slowdown);
  result.note(line);

  if (!options.trace) {
    result.set("setup_s", median(setup) / slowdown, "s");
    result.set("join_per_s", nodes / median(overlay_build) * slowdown,
               "joins/s");
    result.set("dht_ops_per_s", median(route_rate) * slowdown, "ops/s");
    result.set("map_publish_per_s", median(publish_rate) * slowdown,
               "publishes/s");
    result.set("map_lookup_per_s", median(lookup_rate) * slowdown,
               "lookups/s");
    result.set("peak_rss_mib", rss_mib, "MiB");
    result.set("stretch_p50", quantile(first.stretch, 0.5), "ratio");
    result.set("stretch_p99", quantile(first.stretch, 0.99), "ratio");
    result.set("probes_per_join", build_probes / nodes, "probes");
    result.set("hops_per_join", static_cast<double>(first.publish_hops) / nodes,
               "hops");
    result.set("softstate_bytes_per_node", first.softstate_bytes / nodes, "B");
    return result;
  }

  result.set("softstate.shard_publish_s", median(publish_s), "s");
  result.set("softstate.shard_lookup_s", median(lookup_s), "s");
  result.set("softstate.shard_expire_s", median(expire_s), "s");
  result.set("softstate.hops_per_publish",
             static_cast<double>(first.publish_hops) /
                 static_cast<double>(first.publish_messages),
             "hops");
  result.set("softstate.hops_per_lookup",
             static_cast<double>(first.lookup_hops) / lookups, "hops");
  result.set("softstate.candidates_per_lookup",
             static_cast<double>(first.candidates) / lookups, "count");
  result.set("softstate.entries", static_cast<double>(first.entries), "count");
  result.set("softstate.failed_routes",
             static_cast<double>(first.failed_publishes), "count");
  result.set("overlay.route_us", median(route_us), "us");
  result.set("overlay.lookup_hops_p50", quantile(first.route_hops, 0.5), "hops");
  result.set("overlay.build_s", median(overlay_build), "s");
  result.set("net.world_build_s", median(world), "s");
  return result;
}

}  // namespace perfbench
