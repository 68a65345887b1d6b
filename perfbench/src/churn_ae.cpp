// churn-ae: about a thousand facade nodes under sim::LifecycleEngine
// control — Poisson joins, graceful leaves and crashes, jittered
// republish, expiry sweeps, two replicas per map with anti-entropy on, and
// facade lookups at a fixed simulated rate — followed by a quiet window
// without churn. The only workload where the maintenance paths (republish,
// expiry, departures, lazy repair, anti-entropy) do most of the work.
//
// Map messages and lookups take the facade's default routers, whose greedy
// fallback lets some routes over churn-reshaped zones give up; those are
// the workload's failed operations. How many fail depends on every
// simulated input, so the scenario is fixed: --seed seeds only the traced
// run's layer probes, and runs differ in host timing alone.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/lifecycle_adapter.hpp"
#include "core/soft_state_overlay.hpp"
#include "net/latency.hpp"
#include "net/transit_stub.hpp"
#include "layer_probes.hpp"
#include "overlay_checks.hpp"
#include "softstate/anti_entropy.hpp"

namespace perfbench {
namespace {

using namespace topo;

constexpr std::size_t kNodes = 1000;
constexpr double kChurnHz = 2.0;          // joins/s == departures/s
constexpr double kCrashFraction = 0.5;
constexpr double kTtlMs = 60'000.0;
constexpr double kRepublishMs = 20'000.0;
constexpr double kRepublishJitter = 0.2;
constexpr double kSweepMs = 5'000.0;
constexpr int kReplicas = 2;
constexpr double kAeIntervalMs = 7'500.0;
constexpr double kChurnWindowMs = 240'000.0;
// Long enough for every departed node's records to expire (TTL plus one
// sweep) and every live node to republish at its final levels twice.
constexpr double kQuietWindowMs = 120'000.0;
constexpr double kStepMs = 1'000.0;
constexpr std::size_t kLookupsPerStep = 32;  // 32 lookups per simulated s
// The fixed scenario: network, facade randomness (landmark choice, join
// points), bootstrap hosts, churn process and lookups.
constexpr std::uint64_t kWorldSeed = 0xc4a2;
constexpr std::uint64_t kSystemSeed = 0xc4a2ec4a2eull;
constexpr std::uint64_t kScenarioSeed = 1;

core::SystemConfig system_config() {
  core::SystemConfig config;
  config.landmark_count = 15;
  config.landmark.scale_ms = 80.0;  // manual latency regime
  config.rtt_budget = 8;
  config.map.ttl_ms = kTtlMs;
  config.map.replicas = kReplicas;
  config.map.anti_entropy.enabled = true;
  config.map.anti_entropy.interval_ms = kAeIntervalMs;
  config.auto_republish = false;  // the lifecycle engine owns the timers
  config.seed = kSystemSeed;
  return config;
}

sim::LifecycleConfig lifecycle_config(std::uint64_t seed) {
  sim::LifecycleConfig lifecycle;
  lifecycle.republish_interval_ms = kRepublishMs;
  lifecycle.republish_jitter = kRepublishJitter;
  lifecycle.expiry_sweep_interval_ms = kSweepMs;
  lifecycle.crash_fraction = kCrashFraction;
  lifecycle.min_population = kNodes / 2;
  lifecycle.seed = seed + 1;
  return lifecycle;
}

/// Remembers, per node, whether its latest publish (at join or republish)
/// had a route that never reached the map owner.
class PublishOutcomes {
 public:
  explicit PublishOutcomes(core::SoftStateOverlay& system) : system_(system) {}

  std::uint64_t failed_so_far() const {
    return system_.maps().stats().failed_routes;
  }
  void record(overlay::NodeId id, std::uint64_t failed_before) {
    if (id >= failed_.size()) failed_.resize(id + 1, 0);
    failed_[id] = failed_so_far() != failed_before ? 1 : 0;
  }
  bool last_failed(overlay::NodeId id) const {
    return id < failed_.size() && failed_[id] != 0;
  }

 private:
  core::SoftStateOverlay& system_;
  std::vector<char> failed_;
};

/// The facade's lifecycle hooks with the benchmark's own clock around each
/// call the engine makes into the facade: this is what LifecycleRuntime
/// wires up, plus timing and the publish outcome of each join and
/// republish.
class TimedHooks final : public sim::LifecycleHooks {
 public:
  TimedHooks(core::SoftStateOverlay& system, std::size_t host_count,
             std::uint64_t seed, PublishOutcomes& outcomes)
      : inner_(system, host_count, util::Rng(seed).fork()),
        outcomes_(outcomes) {}

  overlay::NodeId spawn_node() override {
    const std::uint64_t failed_before = outcomes_.failed_so_far();
    const Clock::time_point t = Clock::now();
    const overlay::NodeId id = inner_.spawn_node();
    join_s += seconds_since(t);
    ++joins;
    outcomes_.record(id, failed_before);
    return id;
  }
  void graceful_leave(overlay::NodeId id) override { inner_.graceful_leave(id); }
  void crash_node(overlay::NodeId id) override { inner_.crash_node(id); }
  void republish(overlay::NodeId id) override {
    const std::uint64_t failed_before = outcomes_.failed_so_far();
    const Clock::time_point t = Clock::now();
    inner_.republish(id);
    republish_s += seconds_since(t);
    ++republishes;
    outcomes_.record(id, failed_before);
  }
  std::size_t expire(sim::Time now) override { return inner_.expire(now); }
  bool alive(overlay::NodeId id) const override { return inner_.alive(id); }

  double join_s = 0.0;
  std::size_t joins = 0;
  double republish_s = 0.0;
  std::size_t republishes = 0;

 private:
  core::OverlayLifecycle inner_;
  PublishOutcomes& outcomes_;
};

/// Counters read at the start and the end of the measured window.
struct Counters {
  std::uint64_t publish_messages = 0;
  std::uint64_t map_lookups = 0;
  std::uint64_t map_hops = 0;
  std::uint64_t failed_routes = 0;
  std::uint64_t ae_sessions = 0;
  std::uint64_t ae_summary_bytes = 0;
  std::uint64_t ae_delta_bytes = 0;
  std::uint64_t notifications = 0;
  std::uint64_t pubsub_hops = 0;
  std::uint64_t reselections = 0;
  std::uint64_t probes = 0;
  std::uint64_t lazy_repairs = 0;
  std::uint64_t lifecycle_events = 0;

  static Counters read(core::SoftStateOverlay& system,
                       const sim::LifecycleEngine& engine) {
    Counters c;
    const softstate::MapServiceStats& m = system.maps().stats();
    c.publish_messages = m.publish_messages;
    c.map_lookups = m.lookups;
    c.map_hops = m.route_hops;
    c.failed_routes = m.failed_routes;
    c.ae_sessions = m.ae_sessions;
    c.ae_summary_bytes = m.ae_summary_bytes;
    c.ae_delta_bytes = m.ae_delta_bytes;
    c.notifications = system.pubsub().stats().notifications;
    c.pubsub_hops = system.pubsub().stats().route_hops;
    c.reselections = system.stats().reselections;
    c.probes = system.oracle().probe_count();
    c.lazy_repairs = system.ecan().lazy_repairs();
    const sim::LifecycleStats& l = engine.stats();
    c.lifecycle_events = l.joins + l.graceful_leaves + l.crashes +
                         l.republishes + l.expiry_sweeps;
    return c;
  }

  Counters minus(const Counters& o) const {
    Counters d;
    d.publish_messages = publish_messages - o.publish_messages;
    d.map_lookups = map_lookups - o.map_lookups;
    d.map_hops = map_hops - o.map_hops;
    d.failed_routes = failed_routes - o.failed_routes;
    d.ae_sessions = ae_sessions - o.ae_sessions;
    d.ae_summary_bytes = ae_summary_bytes - o.ae_summary_bytes;
    d.ae_delta_bytes = ae_delta_bytes - o.ae_delta_bytes;
    d.notifications = notifications - o.notifications;
    d.pubsub_hops = pubsub_hops - o.pubsub_hops;
    d.reselections = reselections - o.reselections;
    d.probes = probes - o.probes;
    d.lazy_repairs = lazy_repairs - o.lazy_repairs;
    d.lifecycle_events = lifecycle_events - o.lifecycle_events;
    return d;
  }
};

struct Round {
  double world_s = 0.0;
  double setup_s = 0.0;
  double bootstrap_s = 0.0;
  double maintain_s = 0.0;  // host s inside LifecycleEngine::run_for
  double lookup_s = 0.0;    // host s inside facade lookups
  // The bootstrap is a join phase: counters at its end, per join below.
  std::uint64_t bootstrap_probes = 0;
  std::uint64_t bootstrap_map_hops = 0;
  std::uint64_t bootstrap_map_lookups = 0;
  std::uint64_t bootstrap_pubsub_hops = 0;
  std::uint64_t bootstrap_notifications = 0;
  std::uint64_t bootstrap_predicate_evals = 0;
  std::uint64_t bootstrap_reselections = 0;
  Counters window;          // deltas over churn + quiet windows
  double node_minutes = 0.0;
  std::size_t lookups = 0;
  std::size_t failed_lookups = 0;
  std::size_t unchecked_nodes = 0;  // latest publish had a failed route
  std::vector<double> stretch;
  std::vector<double> lookup_hops;
  std::uint64_t entries = 0;
  double softstate_bytes_per_node = 0.0;
  std::size_t churn_joins = 0;  // joins the churn process made
  double churn_join_s = 0.0;
  double republish_us = 0.0;    // mean facade republish, pub/sub included
  Signature signature;
  // Traced rounds only.
  std::vector<double> join_ms;    // each bootstrap join
  std::vector<double> lookup_us;  // each facade lookup
  double select_fetch_s = 0.0;    // selector stage timing, bootstrap
  double select_rank_s = 0.0;
  LayerProbes probes_timed;
};

/// Output checks after the quiet window, against properties the method
/// must have once churn has stopped for longer than a TTL. Returns the
/// number of live nodes left out of the presence check because their
/// latest publish had a failed route (counted as failed operations).
std::size_t check_quiet(core::SoftStateOverlay& system,
                        const PublishOutcomes& outcomes, RunResult& result) {
  const overlay::EcanNetwork& ecan = system.ecan();
  auto& maps = system.maps();

  // Every live node's record for each of its levels is on some replica,
  // and no entry names a departed node.
  std::vector<std::vector<char>> present(ecan.slot_count());
  for (const overlay::NodeId id : ecan.live_view())
    present[id].assign(static_cast<std::size_t>(ecan.node_level(id)) + 1, 0);
  bool names_departed = false;
  maps.for_each_entry([&](overlay::NodeId, const softstate::StoredEntry& s) {
    const overlay::NodeId n = s.entry.node;
    if (!ecan.alive(n)) {
      names_departed = true;
      return;
    }
    if (s.level >= 1 && s.level < static_cast<int>(present[n].size()) &&
        s.cell_key == ecan.pack_cell(s.level, ecan.cell_of_node(n, s.level)))
      present[n][static_cast<std::size_t>(s.level)] = 1;
  });
  std::size_t missing = 0, unchecked = 0;
  for (const overlay::NodeId id : ecan.live_view()) {
    if (outcomes.last_failed(id)) {
      ++unchecked;
      continue;
    }
    for (std::size_t h = 1; h < present[id].size(); ++h)
      missing += present[id][h] == 0 ? 1 : 0;
  }
  result.check(missing == 0, "churn-ae: " + std::to_string(missing) +
                                 " live (node, level) records missing on "
                                 "every replica after the quiet window");
  result.check(!names_departed,
               "churn-ae: an entry names a departed node after the quiet "
               "window");
  result.check(maps.check_placement_invariant(),
               "churn-ae: placement invariant violated");
  const softstate::DivergenceReport divergence =
      softstate::measure_replica_divergence(maps, ecan, system.events().now());
  result.check(divergence.all_equal && divergence.ranges_mismatched == 0,
               "churn-ae: replicas diverge after the quiet window (" +
                   std::to_string(divergence.ranges_mismatched) +
                   " ranges)");
  result.check(zones_tile(ecan), "churn-ae: live zones do not tile the space");
  return unchecked;
}

Round run_round(std::uint64_t probe_seed, bool traced, RunResult& result,
                SpeedReference& reference) {
  const std::uint64_t seed = kScenarioSeed;
  Round r;
  const Clock::time_point setup_start = Clock::now();
  util::Rng topo_rng(kWorldSeed);
  net::Topology topology = net::generate_transit_stub(net::tsk_large(), topo_rng);
  net::assign_latencies(topology, net::LatencyModel::kManual, topo_rng);
  r.world_s = seconds_since(setup_start);

  core::SoftStateOverlay system(topology, system_config());
  const sim::LifecycleConfig lifecycle = lifecycle_config(seed);
  PublishOutcomes outcomes(system);
  TimedHooks hooks(system, topology.host_count(), lifecycle.seed, outcomes);
  sim::LifecycleEngine engine(hooks, lifecycle, &system.events());
  util::Rng rng(seed + 2);
  std::vector<net::HostId> hosts;
  for (std::size_t i = 0; i < kNodes; ++i)
    hosts.push_back(static_cast<net::HostId>(rng.next_u64(topology.host_count())));
  if (traced) {
    system.selector().set_stage_timing(true);
    r.join_ms.reserve(kNodes);
  }
  const Clock::time_point bootstrap_start = Clock::now();
  for (const net::HostId host : hosts) {
    const std::uint64_t failed_before = outcomes.failed_so_far();
    const Clock::time_point t = traced ? Clock::now() : Clock::time_point{};
    const overlay::NodeId id = system.join(host);
    if (traced) r.join_ms.push_back(seconds_since(t) * 1e3);
    outcomes.record(id, failed_before);
    engine.adopt(id);
  }
  r.bootstrap_s = seconds_since(bootstrap_start);
  r.setup_s = seconds_since(setup_start);
  system.selector().set_stage_timing(false);
  r.select_fetch_s = system.selector().stage_timing().map_fetch_ms / 1e3;
  r.select_rank_s = system.selector().stage_timing().rank_ms / 1e3;
  r.bootstrap_probes = system.oracle().probe_count();
  r.bootstrap_map_hops = system.maps().stats().route_hops;
  r.bootstrap_map_lookups = system.maps().stats().lookups;
  r.bootstrap_pubsub_hops = system.pubsub().stats().route_hops;
  r.bootstrap_notifications = system.pubsub().stats().notifications;
  r.bootstrap_predicate_evals = system.pubsub().stats().predicate_evaluations;
  r.bootstrap_reselections = system.stats().reselections;

  // -- Churn window, then a quiet window; lookups throughout -------------
  const Counters before = Counters::read(system, engine);
  util::Rng lookup_rng(seed + 3);
  const auto advance = [&](double window_ms) {
    for (double t = 0.0; t < window_ms; t += kStepMs) {
      Clock::time_point t0 = Clock::now();
      engine.run_for(kStepMs);
      r.maintain_s += seconds_since(t0);
      r.node_minutes +=
          static_cast<double>(system.ecan().size()) * kStepMs / 60'000.0;
      const std::vector<overlay::NodeId>& live = system.ecan().live_view();
      struct Query {
        overlay::NodeId from;
        geom::Point key;
      };
      Query queries[kLookupsPerStep];
      for (Query& q : queries)
        q = {live[lookup_rng.next_u64(live.size())],
             geom::Point::random(2, lookup_rng)};
      overlay::RouteResult routes[kLookupsPerStep];
      double took[kLookupsPerStep];
      for (std::size_t i = 0; i < kLookupsPerStep; ++i) {
        t0 = Clock::now();
        routes[i] = system.lookup(queries[i].from, queries[i].key);
        took[i] = seconds_since(t0);
      }

      const overlay::EcanNetwork& ecan = system.ecan();
      for (std::size_t i = 0; i < kLookupsPerStep; ++i) {
        ++r.lookups;
        r.lookup_s += took[i];
        if (traced) r.lookup_us.push_back(took[i] * 1e6);
        const overlay::RouteResult& route = routes[i];
        if (!route.success) {
          ++r.failed_lookups;
          continue;
        }
        result.check(!route.path.empty() && ecan.alive(route.path.back()) &&
                         ecan.node(route.path.back())
                             .zone.contains(queries[i].key),
                     "churn-ae: a lookup reported success away from the "
                     "key's owner");
        r.lookup_hops.push_back(static_cast<double>(route.hops()));
        const auto stretch = route_stretch(ecan, system.oracle(), route.path);
        if (!stretch) continue;
        result.check(*stretch >= 1.0, "churn-ae: stretch below 1");
        r.stretch.push_back(*stretch);
      }
      reference.sample();
    }
  };
  engine.set_churn(kChurnHz, kChurnHz);
  advance(kChurnWindowMs);
  engine.set_churn(0.0, 0.0);
  advance(kQuietWindowMs);
  r.window = Counters::read(system, engine).minus(before);
  r.churn_joins = hooks.joins;
  r.churn_join_s = hooks.join_s;
  r.republish_us = hooks.republish_s * 1e6 / static_cast<double>(hooks.republishes);
  r.entries = system.maps().total_entries();
  r.softstate_bytes_per_node =
      static_cast<double>(system.maps().memory_bytes()) /
      static_cast<double>(system.ecan().size());

  const sim::LifecycleStats& l = engine.stats();
  for (const double v :
       {double(l.joins), double(l.graceful_leaves), double(l.crashes),
        double(l.republishes), double(l.expiry_sweeps),
        double(l.swept_entries), double(l.suppressed_departures)})
    r.signature.add("lifecycle", v);
  const Counters& w = r.window;
  for (const auto& [name, v] :
       {std::pair{"publish_messages", w.publish_messages},
        {"map_lookups", w.map_lookups}, {"map_hops", w.map_hops},
        {"failed_routes", w.failed_routes}, {"ae_sessions", w.ae_sessions},
        {"ae_summary_bytes", w.ae_summary_bytes},
        {"ae_delta_bytes", w.ae_delta_bytes},
        {"notifications", w.notifications}, {"pubsub_hops", w.pubsub_hops},
        {"reselections", w.reselections}, {"probes", w.probes},
        {"lazy_repairs", w.lazy_repairs},
        {"bootstrap_probes", r.bootstrap_probes},
        {"bootstrap_map_hops", r.bootstrap_map_hops},
        {"bootstrap_map_lookups", r.bootstrap_map_lookups},
        {"bootstrap_pubsub_hops", r.bootstrap_pubsub_hops},
        {"bootstrap_notifications", r.bootstrap_notifications},
        {"bootstrap_predicate_evals", r.bootstrap_predicate_evals},
        {"bootstrap_reselections", r.bootstrap_reselections},
        {"entries", r.entries}})
    r.signature.add(name, static_cast<double>(v));
  r.signature.add("failed_lookups", static_cast<double>(r.failed_lookups));
  r.signature.add("lookup_hops", sum(r.lookup_hops));
  r.signature.add("stretch_sum", sum(r.stretch));
  r.signature.add("node_minutes", r.node_minutes);

  r.unchecked_nodes = check_quiet(system, outcomes, result);
  r.signature.add("unchecked_nodes", static_cast<double>(r.unchecked_nodes));
  if (traced) r.probes_timed = probe_layers(system, probe_seed);

  return r;
}

}  // namespace

RunResult run_churn_ae(const Options& options) {
  RunResult result;
  std::vector<Round> rounds;
  SpeedReference reference;
  double measured = 0.0;
  double rss_mib = 0.0;  // after round 0: independent of the round count
  const std::size_t min_rounds = options.trace ? 2 : 1;
  while (keep_going(measured, options, rounds.size(), min_rounds)) {
    // A traced run starts with one untraced round: its signature is the
    // reference every traced round must reproduce.
    const bool traced = options.trace && !rounds.empty();
    rounds.push_back(run_round(options.seed + 4, traced, result, reference));
    const Round& r = rounds.back();
    measured += r.maintain_s + r.lookup_s;
    // The operations are the window's map publish messages and facade
    // lookups. A publish fails when its route never reaches the map owner
    // (it is then not counted in publish_messages), a lookup when it gives
    // up short of the key's owner. Every round replays the fixed scenario,
    // so the failed share is the same in every run.
    result.attempted += r.window.publish_messages + r.window.failed_routes +
                        r.lookups;
    result.failed += r.window.failed_routes + r.failed_lookups;
    if (rounds.size() == 1) rss_mib = peak_rss_mib();
    const std::string diff = r.signature.diff(rounds.front().signature);
    result.check(diff.empty(), "churn-ae: round " +
                                   std::to_string(rounds.size() - 1) +
                                   " diverged from round 0 (" + diff + ")");
  }

  const Round& first = rounds.front();
  const Counters& w = first.window;
  const double sim_s = (kChurnWindowMs + kQuietWindowMs) / 1e3;
  const double per_node_min = 1.0 / first.node_minutes;
  std::vector<double> setup, world, join_rate, op_rate, publish_rate,
      lookup_rate, sim_rate, maintain, lookup_s, republish;
  std::vector<double> join_ms, lookup_us, fetch, rank, rtt_ns, measure_us,
      map_us, route_us;
  for (const Round& r : rounds) {
    const double host_s = r.maintain_s + r.lookup_s;
    setup.push_back(r.setup_s);
    world.push_back(r.world_s);
    join_rate.push_back(static_cast<double>(kNodes + r.churn_joins) /
                        (r.bootstrap_s + r.churn_join_s));
    // Every lookup, including those that give up in the router's loop
    // guard: a router that gave up sooner would not read as faster.
    op_rate.push_back(static_cast<double>(r.lookups) / r.lookup_s);
    publish_rate.push_back(static_cast<double>(r.window.publish_messages) /
                           host_s);
    lookup_rate.push_back(static_cast<double>(r.window.map_lookups) / host_s);
    sim_rate.push_back(sim_s / host_s);
    maintain.push_back(r.maintain_s);
    lookup_s.push_back(r.lookup_s);
    republish.push_back(r.republish_us);
    if (r.join_ms.empty()) continue;  // untraced
    join_ms.insert(join_ms.end(), r.join_ms.begin(), r.join_ms.end());
    lookup_us.insert(lookup_us.end(), r.lookup_us.begin(), r.lookup_us.end());
    fetch.push_back(r.select_fetch_s);
    rank.push_back(r.select_rank_s);
    rtt_ns.push_back(r.probes_timed.rtt_query_ns);
    measure_us.push_back(r.probes_timed.measure_us);
    map_us.push_back(r.probes_timed.map_lookup_us);
    route_us.push_back(r.probes_timed.route_us);
  }

  char line[320];
  std::snprintf(line, sizeof line,
                "churn-ae: %zu rounds, %.0f simulated s each at %.2f "
                "simulated s per host s; %zu of %zu lookups failed, %llu "
                "publish routes failed; %zu nodes unchecked",
                rounds.size(), sim_s, median(sim_rate), first.failed_lookups,
                first.lookups,
                static_cast<unsigned long long>(w.failed_routes),
                first.unchecked_nodes);
  result.note(line);
  const double slowdown = reference.slowdown();
  std::snprintf(line, sizeof line,
                "churn-ae raw: setup %.4f s, %.1f joins/s, %.0f ops/s, %.1f "
                "publishes/s, %.1f lookups/s; reference %.1f ns per load over "
                "%zu samples, slowdown %.4f",
                median(setup), median(join_rate), median(op_rate),
                median(publish_rate), median(lookup_rate),
                reference.ns_per_load(), reference.samples(), slowdown);
  result.note(line);

  if (!options.trace) {
    result.set("setup_s", median(setup) / slowdown, "s");
    result.set("join_per_s", median(join_rate) * slowdown, "joins/s");
    result.set("dht_ops_per_s", median(op_rate) * slowdown, "ops/s");
    result.set("map_publish_per_s", median(publish_rate) * slowdown,
               "publishes/s");
    result.set("map_lookup_per_s", median(lookup_rate) * slowdown,
               "lookups/s");
    result.set("peak_rss_mib", rss_mib, "MiB");
    result.set("stretch_p50", quantile(first.stretch, 0.5), "ratio");
    result.set("stretch_p99", quantile(first.stretch, 0.99), "ratio");
    result.set("probes_per_join",
               static_cast<double>(first.bootstrap_probes) / kNodes, "probes");
    result.set("hops_per_join",
               static_cast<double>(first.bootstrap_map_hops +
                                   first.bootstrap_pubsub_hops) /
                   kNodes,
               "hops");
    result.set("softstate_bytes_per_node", first.softstate_bytes_per_node,
               "B");
    return result;
  }

  const auto per_nm = [&](std::uint64_t v) {
    return static_cast<double>(v) * per_node_min;
  };
  const double joins = static_cast<double>(kNodes);
  result.set("core.join_ms_p50", quantile(join_ms, 0.5), "ms");
  result.set("core.join_ms_p99", quantile(join_ms, 0.99), "ms");
  result.set("core.reselections_per_join",
             static_cast<double>(first.bootstrap_reselections) / joins, "count");
  result.set("core.select_fetch_s", median(fetch), "s");
  result.set("core.select_rank_s", median(rank), "s");
  result.set("core.dht_op_us_p50", quantile(lookup_us, 0.5), "us");
  result.set("core.dht_op_us_p99", quantile(lookup_us, 0.99), "us");
  result.set("pubsub.notifications_per_join",
             static_cast<double>(first.bootstrap_notifications) / joins,
             "count");
  result.set("pubsub.hops_per_join",
             static_cast<double>(first.bootstrap_pubsub_hops) / joins, "hops");
  result.set("pubsub.predicate_evals_per_join",
             static_cast<double>(first.bootstrap_predicate_evals) / joins,
             "count");
  result.set("softstate.map_hops_per_join",
             static_cast<double>(first.bootstrap_map_hops) / joins, "hops");
  result.set("softstate.map_lookups_per_join",
             static_cast<double>(first.bootstrap_map_lookups) / joins, "count");
  result.set("softstate.map_lookup_us", median(map_us), "us");
  result.set("overlay.route_us", median(route_us), "us");
  result.set("net.rtt_query_ns", median(rtt_ns), "ns");
  result.set("proximity.measure_us", median(measure_us), "us");
  result.set("core.republish_us", median(republish), "us");
  result.set("core.reselections_per_node_min", per_nm(w.reselections),
             "count/node/min");
  result.set("core.failed_lookups", static_cast<double>(first.failed_lookups),
             "count");
  result.set("pubsub.notifications_per_node_min", per_nm(w.notifications),
             "count/node/min");
  result.set("softstate.publish_msgs_per_node_min", per_nm(w.publish_messages),
             "count/node/min");
  result.set("softstate.ae_sessions_per_node_min", per_nm(w.ae_sessions),
             "count/node/min");
  result.set("softstate.ae_summary_bytes_per_node_min",
             per_nm(w.ae_summary_bytes), "B/node/min");
  result.set("softstate.ae_delta_bytes_per_node_min", per_nm(w.ae_delta_bytes),
             "B/node/min");
  result.set("softstate.ae_bytes_per_node_min",
             per_nm(w.ae_summary_bytes + w.ae_delta_bytes), "B/node/min");
  result.set("softstate.failed_routes", static_cast<double>(w.failed_routes),
             "count");
  result.set("softstate.entries", static_cast<double>(first.entries), "count");
  result.set("overlay.lookup_hops_p50", quantile(first.lookup_hops, 0.5),
             "hops");
  result.set("overlay.lazy_repairs_per_node_min", per_nm(w.lazy_repairs),
             "count/node/min");
  result.set("net.probes_per_node_min", per_nm(w.probes), "count/node/min");
  result.set("net.world_build_s", median(world), "s");
  result.set("sim.maintain_s", median(maintain), "s");
  result.set("sim.lookup_s", median(lookup_s), "s");
  result.set("sim.lifecycle_events_per_sim_s",
             static_cast<double>(w.lifecycle_events) / sim_s, "1/s");
  result.set("sim.sim_s_per_s", median(sim_rate), "s/s");
  result.set("sim.ctrl_hops_per_node_min", per_nm(w.map_hops + w.pubsub_hops),
             "hops/node/min");
  return result;
}

}  // namespace perfbench
