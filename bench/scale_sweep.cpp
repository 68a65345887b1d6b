// Scale sweep — join / publish / lookup throughput, per-phase wall-clock,
// peak RSS and a bytes-per-node memory breakdown as the overlay grows,
// emitted to BENCH_scale.json.
//
// This is the bench behind the indexed-store + routing-fast-path work and
// the million-node memory diet (docs/performance.md). The world is built
// with the one-pass streamed pipeline (net/streamed_build.hpp): topology
// generation, latency assignment and the hierarchical RTT engine's tables
// are produced stub batch by stub batch, so the build's transient scratch
// is O(batch), not O(topology) — under the manual latency model the result
// is bit-identical to the classic two-pass build with the same seed.
//
// Each size n then builds one eCAN (join phase, landmark vectors,
// expressway tables) and reuses it across three legs:
//
//   indexed   — the production soft-state path: publish round, lookup
//               batch, idle + full expiry sweeps, with invariants checked
//               while entries are live. The store is the 64-byte compact
//               one by default (SCALE_COMPACT=0 for the full store).
//   memory    — a publish-only trial on the *other* store, so the JSON
//               carries both footprints and their ratio (the memory-diet
//               before/after claim: >= 4x at 100k nodes).
//   sharded   — the same publish/lookup/expire workload through
//               ShardedMapRunner at each SCALE_SHARDS count; every leg's
//               store digest must equal the sequential leg's digest
//               (state_hash), the bit-identity witness for the
//               stub-sharded engine.
//
// Knobs (also see common.hpp for SEED / FULL / THREADS / RTT_ENGINE):
//   SCALE_NODES=a,b,..  overlay sizes to sweep (default "1000,10000";
//                       FULL=1 default "1000,10000,50000,100000")
//   SCALE_QUERIES=n     lookups per size (default min(5n, 200000))
//   SCALE_COMPACT=0|1   compact 64-byte store for the indexed leg
//                       (default on)
//   SCALE_QUANTIZE=0|1  float32-quantized landmark vectors in the compact
//                       pool (default off; lossy — see MapConfig)
//   SCALE_SHARDS=a,b,.. sharded-runner leg shard counts (default
//                       "1,2,4,8"; empty string disables the leg)
//   SCALE_MEMORY_COMPARE_MAX=n  largest size that runs the memory leg's
//                       other-store publish (default 200000)
//   SCALE_BATCH_STUBS=n streamed-build batch size (default 256)
//   SCALE_SCALABLE_ROUTER=0|1  budgeted-fallback router (default on; 0
//                       reproduces the figure benches' sticky fallback,
//                       super-quadratic publish past ~50k nodes)
//   SCALE_RSS_BUDGET_MB=n  fail (exit 1) if any size's peak RSS exceeds
//                       this many MiB (default 0 = no budget)
//   BENCH_JSON=path     output path (default BENCH_scale.json)
#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>

#include "common.hpp"
#include "softstate/sharded_runner.hpp"

using namespace topo;

namespace {

class PhaseTimer {
 public:
  PhaseTimer() : last_(std::chrono::steady_clock::now()) {}
  /// Seconds since construction or the previous lap.
  double lap() {
    const auto now = std::chrono::steady_clock::now();
    const std::chrono::duration<double> elapsed = now - last_;
    last_ = now;
    return elapsed.count();
  }

 private:
  std::chrono::steady_clock::time_point last_;
};

constexpr int kIdleExpirySweeps = 64;
constexpr double kLookupTime = 1000.0;
constexpr double kExpireAllTime = 60'000.0 + 1.0;

/// The overlay half of a size-n trial, built once and shared by every
/// soft-state leg (indexed, memory-comparison, sharded):
/// the joined eCAN, per-node landmark vectors and numbers, built tables,
/// and the precomputed lookup workload. Rebuilding this per leg would
/// dominate the sweep at large n without measuring anything new.
struct Prepared {
  std::unique_ptr<overlay::EcanNetwork> ecan;
  std::vector<overlay::NodeId> nodes;
  std::vector<proximity::LandmarkVector> vectors;
  std::vector<util::BigUint> numbers;
  struct Query {
    overlay::NodeId querier = overlay::kInvalidNode;
    int level = 1;
    std::vector<std::uint32_t> cell;
  };
  std::vector<Query> queries;
  double join_s = 0.0;
  double vectors_s = 0.0;
  double tables_s = 0.0;
  bool overlay_ok = true;
  std::size_t peak_rss = 0;
};

Prepared prepare_overlay(bench::World& world, std::size_t n,
                         std::size_t queries, std::uint64_t seed,
                         bool check_invariants, bool dense_tables) {
  Prepared prep;
  bench::ScopedRssSampler rss(prep.peak_rss);
  util::Rng rng(seed);
  PhaseTimer timer;

  prep.ecan = std::make_unique<overlay::EcanNetwork>(2);
  overlay::EcanNetwork& ecan = *prep.ecan;
  prep.nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto host = static_cast<net::HostId>(
        rng.next_u64(world.topology.host_count()));
    prep.nodes.push_back(ecan.join_random(host, rng));
  }
  prep.join_s = timer.lap();

  // Dense by node id (fresh networks assign 0..n-1): the harness must not
  // add hash-map noise of its own to the phases it is timing. The landmark
  // number is derived exactly once here, as a node does when it measures
  // its landmark vector.
  prep.vectors.resize(n);
  prep.numbers.resize(n);
  for (const auto id : prep.nodes) {
    prep.vectors[id] = world.landmarks->measure(*world.oracle,
                                                ecan.node(id).host);
    prep.numbers[id] = world.landmarks->landmark_number(prep.vectors[id]);
  }
  prep.vectors_s = timer.lap();

  core::RandomSelector selector{util::Rng(seed + 1)};
  ecan.build_all_tables(selector, dense_tables);
  prep.tables_s = timer.lap();

  // The lookup workload, precomputed so the sharded leg can reference the
  // cell buffers across a round (a querier whose zone is coarser than
  // level 1 consumes one draw and is skipped).
  util::Rng query_rng(seed + 2);
  prep.queries.reserve(queries);
  for (std::size_t q = 0; q < queries; ++q) {
    const auto querier = prep.nodes[query_rng.next_u64(prep.nodes.size())];
    const int levels = ecan.node_level(querier);
    if (levels < 1) continue;
    Prepared::Query query;
    query.querier = querier;
    query.level = 1 + static_cast<int>(
        query_rng.next_u64(static_cast<std::uint64_t>(levels)));
    query.cell.resize(ecan.dims());
    ecan.cell_of_node_into(querier, query.level, query.cell);
    prep.queries.push_back(std::move(query));
  }

  if (check_invariants)
    prep.overlay_ok = ecan.check_invariants() && ecan.check_membership_index();
  return prep;
}

struct TrialResult {
  std::size_t n = 0;
  double join_s = 0.0;
  double vectors_s = 0.0;
  double tables_s = 0.0;
  double publish_s = 0.0;
  double lookup_s = 0.0;
  double expire_idle_s = 0.0;  // expiry sweeps with nothing expired
  double expire_s = 0.0;       // the sweep that drops everything
  std::size_t lookups = 0;
  std::size_t candidates_returned = 0;
  std::size_t total_entries = 0;
  std::size_t route_hops = 0;
  std::size_t softstate_bytes = 0;  // store + pool, at steady state
  std::uint64_t state_hash = 0;     // digest of the steady-state contents
  bool invariants_ok = true;
};

/// The soft-state phases over a prepared overlay. Templated over the map
/// service so the identical driver runs the compact production path
/// (CompactMapService) and the full store (MapService).
template <typename Service>
TrialResult run_phases(bench::World& world, Prepared& prep,
                       softstate::MapConfig map_config,
                       bool check_invariants) {
  TrialResult r;
  r.n = prep.nodes.size();
  r.join_s = prep.join_s;
  r.vectors_s = prep.vectors_s;
  r.tables_s = prep.tables_s;
  overlay::EcanNetwork& ecan = *prep.ecan;
  PhaseTimer timer;

  Service maps(ecan, *world.landmarks, map_config);
  for (const auto id : prep.nodes)
    maps.publish(id, prep.vectors[id], prep.numbers[id], 0.0);
  r.publish_s = timer.lap();

  std::vector<softstate::MapEntry> lookup_buffer;
  for (const Prepared::Query& q : prep.queries) {
    r.candidates_returned += maps.lookup_entries_into(
        q.querier, prep.vectors[q.querier], prep.numbers[q.querier], q.level,
        q.cell, kLookupTime, lookup_buffer);
    ++r.lookups;
  }
  r.lookup_s = timer.lap();
  r.total_entries = maps.total_entries();
  r.route_hops = maps.stats().route_hops;

  // Steady state: every entry live. This is where the memory footprint,
  // the content digest (the sharded legs must reproduce it bit for bit)
  // and the placement invariant are meaningful — after the full expiry
  // below the store is empty and all three are vacuous.
  r.softstate_bytes = maps.memory_bytes();
  r.state_hash = maps.state_hash();
  if (check_invariants)
    r.invariants_ok = prep.overlay_ok && maps.check_placement_invariant();
  timer.lap();  // exclude the checks from the expiry laps

  // Idle expiry: nothing has expired yet, so the store answers from the
  // front of its expiry order instead of rescanning every entry.
  for (int sweep = 0; sweep < kIdleExpirySweeps; ++sweep)
    maps.expire_before(30'000.0);
  r.expire_idle_s = timer.lap();
  maps.expire_before(kExpireAllTime);  // everything expires
  r.expire_s = timer.lap();
  return r;
}

/// Publish-only footprint of the *other* store over the same overlay —
/// the memory leg's before/after pair.
template <typename Service>
std::size_t publish_only_bytes(bench::World& world, Prepared& prep,
                               softstate::MapConfig map_config) {
  Service maps(*prep.ecan, *world.landmarks, map_config);
  for (const auto id : prep.nodes)
    maps.publish(id, prep.vectors[id], prep.numbers[id], 0.0);
  return maps.memory_bytes();
}

struct ShardResult {
  std::uint32_t shards = 0;
  double publish_s = 0.0;
  double lookup_s = 0.0;
  double expire_s = 0.0;
  std::size_t route_hops = 0;
  std::size_t candidates = 0;
  std::size_t expired = 0;
  std::uint64_t state_hash = 0;
  bool identical = false;  // digest equals the sequential indexed leg's
};

/// One publish/lookup/expire cycle through the stub-sharded runner.
template <typename Service>
ShardResult run_sharded(bench::World& world, Prepared& prep,
                        std::uint32_t shards,
                        softstate::MapConfig map_config,
                        std::uint64_t expected_hash) {
  using Runner = softstate::ShardedMapRunner<Service>;
  ShardResult sr;
  sr.shards = shards;
  overlay::EcanNetwork& ecan = *prep.ecan;

  Service maps(ecan, *world.landmarks, map_config);
  Runner runner(maps,
                softstate::shard_by_stub(ecan, world.topology, shards,
                                         ecan.slot_count()),
                shards, util::ThreadPool::global());

  std::vector<typename Runner::PublishRequest> requests;
  requests.reserve(prep.nodes.size());
  for (const auto id : prep.nodes)
    requests.push_back({id, &prep.vectors[id], &prep.numbers[id], 0.0, 1.0});

  std::vector<typename Runner::LookupQuery> queries;
  queries.reserve(prep.queries.size());
  for (const Prepared::Query& q : prep.queries)
    queries.push_back({q.querier, &prep.vectors[q.querier],
                       &prep.numbers[q.querier], q.level, q.cell});
  std::vector<std::vector<softstate::MapEntry>> results(queries.size());
  std::vector<std::size_t> counts(queries.size(), 0);

  PhaseTimer timer;
  sr.route_hops = runner.publish_round(requests, 0.0);
  sr.publish_s = timer.lap();
  sr.route_hops += runner.lookup_round(queries, kLookupTime, results, counts);
  sr.lookup_s = timer.lap();
  for (const std::size_t c : counts) sr.candidates += c;
  sr.state_hash = maps.state_hash();
  timer.lap();  // exclude the digest from the expiry lap
  sr.expired = runner.expire_round(kExpireAllTime);
  sr.expire_s = timer.lap();
  sr.identical = sr.state_hash == expected_hash;
  return sr;
}

std::vector<std::size_t> parse_size_list(const std::string& spec) {
  std::vector<std::size_t> values;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                    : comma - pos);
    if (!token.empty()) {
      const long long value = std::atoll(token.c_str());
      if (value > 0) values.push_back(static_cast<std::size_t>(value));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return values;
}

std::vector<std::size_t> node_counts() {
  auto counts = parse_size_list(util::env_string(
      "SCALE_NODES",
      bench::full_scale() ? "1000,10000,50000,100000" : "1000,10000"));
  if (counts.empty()) counts = {1000};
  return counts;
}

struct SweepRow {
  TrialResult indexed;
  std::vector<ShardResult> sharded;
  double prepare_rss_join_s = 0.0;
  std::size_t prepare_rss = 0;
  std::size_t trial_rss = 0;
  std::size_t overlay_bytes = 0;
  std::size_t full_softstate_bytes = 0;     // 0 when the memory leg was skipped
  std::size_t compact_softstate_bytes = 0;  // ditto
  bool sharded_ok() const {
    for (const ShardResult& sr : sharded)
      if (!sr.identical) return false;
    return true;
  }
  std::size_t peak_rss() const { return std::max(prepare_rss, trial_rss); }
  double memory_ratio() const {
    return compact_softstate_bytes != 0 && full_softstate_bytes != 0
               ? static_cast<double>(full_softstate_bytes) /
                     static_cast<double>(compact_softstate_bytes)
               : 0.0;
  }
};

void write_json(const std::string& path, const bench::World& world,
                const std::vector<SweepRow>& rows, bool compact_store,
                bool quantize, std::size_t rss_budget_mb) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return;
  }
  auto emit_trial = [&](const TrialResult& r) {
    out << "{\"n\": " << r.n << ", \"join_s\": " << r.join_s
        << ", \"vectors_s\": " << r.vectors_s
        << ", \"tables_s\": " << r.tables_s
        << ", \"publish_s\": " << r.publish_s
        << ", \"lookup_s\": " << r.lookup_s
        << ", \"expire_idle_s\": " << r.expire_idle_s
        << ", \"expire_s\": " << r.expire_s
        << ", \"join_per_s\": " << static_cast<double>(r.n) / r.join_s
        << ", \"publish_per_s\": "
        << static_cast<double>(r.n) / r.publish_s
        << ", \"lookup_per_s\": "
        << static_cast<double>(r.lookups) / r.lookup_s
        << ", \"lookups\": " << r.lookups
        << ", \"candidates_returned\": " << r.candidates_returned
        << ", \"total_entries\": " << r.total_entries
        << ", \"route_hops\": " << r.route_hops
        << ", \"softstate_bytes\": " << r.softstate_bytes
        << ", \"invariants_ok\": " << (r.invariants_ok ? "true" : "false")
        << "}";
  };
  out << "{\n"
      << "  \"bench\": \"scale_sweep\",\n"
      << "  \"seed\": " << bench::bench_seed() << ",\n"
      << "  \"host_count\": " << world.topology.host_count() << ",\n"
      << "  \"threads\": " << bench::bench_threads() << ",\n"
      << "  \"store\": \"" << (compact_store ? "compact" : "full") << "\",\n"
      << "  \"quantize\": " << (quantize ? "true" : "false") << ",\n"
      << "  \"idle_expiry_sweeps\": " << kIdleExpirySweeps << ",\n"
      << "  \"rss_budget_mb\": " << rss_budget_mb << ",\n"
      << "  \"topology_bytes\": " << world.topology.memory_bytes() << ",\n"
      << "  \"rtt_engine_bytes\": " << world.engine_table_bytes << ",\n"
      << "  \"streamed_build\": {\"peak_scratch_bytes\": "
      << world.streamed_scratch_peak
      << ", \"batches\": " << world.streamed_batches << "},\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    const std::size_t n = row.indexed.n;
    out << "    {\"n\": " << n << ",\n     \"indexed\": ";
    emit_trial(row.indexed);
    out << ",\n     \"memory\": {\"overlay_bytes\": " << row.overlay_bytes
        << ", \"softstate_bytes\": " << row.indexed.softstate_bytes
        << ", \"softstate_bytes_per_node\": "
        << static_cast<double>(row.indexed.softstate_bytes) /
               static_cast<double>(n)
        << ", \"entries\": " << row.indexed.total_entries;
    if (row.memory_ratio() > 0.0) {
      out << ", \"full_softstate_bytes\": " << row.full_softstate_bytes
          << ", \"compact_softstate_bytes\": " << row.compact_softstate_bytes
          << ", \"full_to_compact_ratio\": " << row.memory_ratio();
    }
    out << "}";
    out << ",\n     \"sharded\": [";
    for (std::size_t s = 0; s < row.sharded.size(); ++s) {
      const ShardResult& sr = row.sharded[s];
      out << (s == 0 ? "" : ", ")
          << "{\"shards\": " << sr.shards
          << ", \"publish_s\": " << sr.publish_s
          << ", \"lookup_s\": " << sr.lookup_s
          << ", \"expire_s\": " << sr.expire_s
          << ", \"publish_per_s\": " << static_cast<double>(n) / sr.publish_s
          << ", \"route_hops\": " << sr.route_hops
          << ", \"candidates\": " << sr.candidates
          << ", \"identical\": " << (sr.identical ? "true" : "false") << "}";
    }
    out << "]";
    out << ",\n     \"prepare_peak_rss_bytes\": " << row.prepare_rss
        << ",\n     \"peak_rss_bytes\": " << row.peak_rss() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  const auto bench_timer = bench::print_preamble(
      "Scale sweep: compact stores, streamed build, stub-sharded rounds");

  const std::uint64_t seed = bench::bench_seed();
  const auto counts = node_counts();
  const bool compact_store = util::env_bool("SCALE_COMPACT", true);
  const bool quantize = util::env_bool("SCALE_QUANTIZE", false);
  const auto shard_counts =
      parse_size_list(util::env_string("SCALE_SHARDS", "1,2,4,8"));
  const auto memory_compare_max = static_cast<std::size_t>(
      util::env_int("SCALE_MEMORY_COMPARE_MAX", 200'000));
  const auto rss_budget_mb =
      static_cast<std::size_t>(util::env_int("SCALE_RSS_BUDGET_MB", 0));

  softstate::MapConfig map_config;
  map_config.quantize_vectors = quantize;
  // Budgeted-fallback router: identical owners and entries, O(log n) hop
  // counts. Without it the classic router's sticky greedy tail makes the
  // publish phase super-quadratic past ~50k nodes (SCALE_SCALABLE_ROUTER=0
  // reproduces the classic hop sequences).
  map_config.scalable_router = util::env_bool("SCALE_SCALABLE_ROUTER", true);

  // The hierarchical RTT engine answers rtt(a,b) in O(1) on this generated
  // topology, so all wall-clock below is overlay + soft-state work, which
  // is what this sweep isolates. The streamed one-pass build bounds the
  // construction scratch; under kManual it is bit-identical to the classic
  // two-pass world at this seed.
  net::StreamedBuildOptions build_options;
  build_options.batch_stubs = static_cast<std::size_t>(
      util::env_int("SCALE_BATCH_STUBS", 256));
  bench::World world(net::tsk_large(), net::LatencyModel::kManual, 15, seed,
                     build_options);
  std::printf(
      "streamed build: %zu batches, peak scratch %.1f MiB, engine tables "
      "%.1f MiB, topology %.1f MiB\n",
      world.streamed_batches,
      static_cast<double>(world.streamed_scratch_peak) / (1024.0 * 1024.0),
      static_cast<double>(world.engine_table_bytes) / (1024.0 * 1024.0),
      static_cast<double>(world.topology.memory_bytes()) / (1024.0 * 1024.0));

  // Warm the allocator and page cache with a small discarded trial so no
  // measured trial pays one-off process start-up costs (the first trial in
  // a cold process otherwise reads ~30% slow).
  {
    Prepared warm = prepare_overlay(world, 512, 512, seed + 1,
                                    /*check_invariants=*/false,
                                    map_config.scalable_router);
    (void)run_phases<softstate::CompactMapService>(
        world, warm, map_config, /*check_invariants=*/false);
  }

  std::vector<SweepRow> rows;
  util::Table table({"n", "join/s", "publish/s", "lookup/s", "ss KiB/node",
                     "mem ratio", "shards", "rss MiB", "invariants"});
  bool all_ok = true;
  for (const std::size_t n : counts) {
    const auto queries = static_cast<std::size_t>(util::env_int(
        "SCALE_QUERIES",
        static_cast<std::int64_t>(std::min<std::size_t>(5 * n, 200'000))));
    SweepRow row;
    Prepared prep = prepare_overlay(world, n, queries, seed + 10 * n,
                                    /*check_invariants=*/true,
                                    map_config.scalable_router);
    row.prepare_rss = prep.peak_rss;
    row.overlay_bytes = prep.ecan->memory_bytes();
    {
      bench::ScopedRssSampler rss(row.trial_rss);
      if (compact_store) {
        row.indexed = run_phases<softstate::CompactMapService>(
            world, prep, map_config, /*check_invariants=*/true);
      } else {
        row.indexed = run_phases<softstate::MapService>(
            world, prep, map_config, /*check_invariants=*/true);
      }
    }
    // Memory leg: the other store's steady-state footprint over the same
    // overlay and workload; the ratio is the memory-diet claim.
    if (n <= memory_compare_max) {
      if (compact_store) {
        row.compact_softstate_bytes = row.indexed.softstate_bytes;
        row.full_softstate_bytes = publish_only_bytes<softstate::MapService>(
            world, prep, map_config);
      } else {
        row.full_softstate_bytes = row.indexed.softstate_bytes;
        row.compact_softstate_bytes =
            publish_only_bytes<softstate::CompactMapService>(world, prep,
                                                             map_config);
      }
    }
    // Sharded legs: same workload through the plan/apply runner; each
    // shard count must land the exact sequential store contents.
    for (const std::size_t shards : shard_counts) {
      if (compact_store) {
        row.sharded.push_back(run_sharded<softstate::CompactMapService>(
            world, prep, static_cast<std::uint32_t>(shards), map_config,
            row.indexed.state_hash));
      } else {
        row.sharded.push_back(run_sharded<softstate::MapService>(
            world, prep, static_cast<std::uint32_t>(shards), map_config,
            row.indexed.state_hash));
      }
    }

    all_ok = all_ok && row.indexed.invariants_ok && row.sharded_ok();
    if (rss_budget_mb != 0 &&
        row.peak_rss() > rss_budget_mb * 1024 * 1024) {
      std::printf("RSS budget exceeded at n=%zu: %.1f MiB > %zu MiB\n", n,
                  static_cast<double>(row.peak_rss()) / (1024.0 * 1024.0),
                  rss_budget_mb);
      all_ok = false;
    }
    table.add_row(
        {util::Table::integer(static_cast<long long>(n)),
         util::Table::num(static_cast<double>(n) / row.indexed.join_s, 0),
         util::Table::num(static_cast<double>(n) / row.indexed.publish_s, 0),
         util::Table::num(
             static_cast<double>(row.indexed.lookups) / row.indexed.lookup_s,
             0),
         util::Table::num(static_cast<double>(row.indexed.softstate_bytes) /
                              (static_cast<double>(n) * 1024.0),
                          2),
         row.memory_ratio() > 0.0
             ? util::Table::num(row.memory_ratio(), 2) + "x"
             : "-",
         row.sharded.empty() ? "-"
                             : (row.sharded_ok() ? "identical" : "DIVERGED"),
         util::Table::num(static_cast<double>(row.peak_rss()) /
                              (1024.0 * 1024.0),
                          1),
         row.indexed.invariants_ok ? "ok" : "VIOLATED"});
    rows.push_back(std::move(row));
  }
  std::cout << table.to_string();

  write_json(util::env_string("BENCH_JSON", "BENCH_scale.json"), world, rows,
             compact_store, quantize, rss_budget_mb);

  std::cout << "\nReading: publish/s and lookup/s should stay within a small\n"
               "factor across the sweep (per-op cost is O(route) = O(log n)\n"
               "with O(1) store work); 'mem ratio' is the full store's\n"
               "steady-state bytes over the compact store's on the same\n"
               "workload; 'shards' says whether every sharded leg's store\n"
               "digest matched the sequential run bit for bit.\n";
  return all_ok ? 0 : 1;
}
