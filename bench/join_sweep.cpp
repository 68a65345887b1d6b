// Join sweep — scalar facade join throughput with the selector's
// map-fetch vs ranking split, emitted to BENCH_join.json.
//
// One leg per overlay size n: join() per node over a seeded host
// sequence, with the selector's stage timing on for the whole leg. The
// leg also reports the deterministic state the joins leave behind (map
// entries, subscriptions, notifications, route hops, probes), which the
// same seed reproduces exactly on any machine.
//
// Knobs (also see common.hpp for SEED / FULL / THREADS / RTT_ENGINE):
//   JOIN_NODES=a,b,..   overlay sizes (default "1000,10000")
//   BENCH_JSON=path     output path (default BENCH_join.json)
#include <chrono>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/soft_state_overlay.hpp"

using namespace topo;

namespace {

std::vector<std::size_t> node_counts() {
  const std::string spec = util::env_string("JOIN_NODES", "1000,10000");
  std::vector<std::size_t> counts;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!token.empty()) counts.push_back(std::stoul(token));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (counts.empty()) counts = {1000};
  return counts;
}

struct LegResult {
  double join_s = 0.0;
  std::size_t nodes = 0;
  std::size_t map_entries = 0;
  std::size_t subscriptions = 0;
  std::uint64_t notifications = 0;
  std::uint64_t route_hops = 0;  // map + pub/sub messages
  std::uint64_t probes = 0;
  core::SelectorStageTiming stages;

  double per_s() const {
    return join_s > 0.0 ? static_cast<double>(nodes) / join_s : 0.0;
  }
};

core::SystemConfig sweep_config(std::uint64_t seed) {
  core::SystemConfig config;
  config.landmark_count = 15;
  config.landmark.scale_ms = 80.0;  // manual latency regime
  config.seed = seed;
  return config;
}

std::vector<net::HostId> host_sequence(const net::Topology& topology,
                                       std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<net::HostId> hosts;
  hosts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    hosts.push_back(static_cast<net::HostId>(rng.next_u64(
        topology.host_count())));
  return hosts;
}

LegResult run_scalar(const net::Topology& topology, std::uint64_t seed,
                     const std::vector<net::HostId>& hosts) {
  core::SoftStateOverlay system(topology, sweep_config(seed));
  system.selector().set_stage_timing(true);
  const auto start = std::chrono::steady_clock::now();
  for (const net::HostId host : hosts) system.join(host);
  LegResult leg;
  leg.join_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  leg.stages = system.selector().stage_timing();
  leg.nodes = system.ecan().size();
  leg.map_entries = system.maps().total_entries();
  leg.subscriptions = system.pubsub().active_subscriptions();
  leg.notifications = system.pubsub().stats().notifications;
  leg.route_hops = system.maps().stats().route_hops +
                   system.pubsub().stats().route_hops;
  leg.probes = system.oracle().probe_count();
  return leg;
}

void write_json(const std::string& path, const net::Topology& topology,
                const std::vector<std::pair<std::size_t, LegResult>>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return;
  }
  out << "{\n"
      << "  \"bench\": \"join_sweep\",\n"
      << "  \"seed\": " << bench::bench_seed() << ",\n"
      << "  \"host_count\": " << topology.host_count() << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [n, leg] = rows[i];
    out << "    {\"n\": " << n << ",\n     \"stages_ms\": {"
        << "\"map_fetch\": " << leg.stages.map_fetch_ms
        << ", \"rank\": " << leg.stages.rank_ms << "},\n"
        << "     \"scalar\": {\"join_s\": " << leg.join_s
        << ", \"join_per_s\": " << leg.per_s()
        << ", \"map_entries\": " << leg.map_entries
        << ", \"subscriptions\": " << leg.subscriptions
        << ", \"notifications\": " << leg.notifications
        << ", \"route_hops\": " << leg.route_hops
        << ", \"probes\": " << leg.probes << "}}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  const auto bench_timer =
      bench::print_preamble("Join sweep: scalar facade joins");

  const std::uint64_t seed = bench::bench_seed();
  const auto counts = node_counts();

  // The facade builds its own oracle per system, so the topology is the
  // only shared piece; the hierarchical engine makes RTT queries O(1) and
  // the measured wall-clock overlay + soft-state work.
  util::Rng topo_rng(seed);
  net::Topology topology =
      net::generate_transit_stub(net::tsk_large(), topo_rng);
  net::assign_latencies(topology, net::LatencyModel::kManual, topo_rng);

  std::vector<std::pair<std::size_t, LegResult>> rows;
  util::Table table({"n", "joins/s", "map fetch ms", "rank ms",
                     "notifications", "route hops", "probes"});
  for (const std::size_t n : counts) {
    const auto hosts = host_sequence(topology, seed + 11 * n, n);
    const LegResult leg = run_scalar(topology, seed, hosts);
    table.add_row({util::Table::integer(static_cast<long long>(n)),
                   util::Table::num(leg.per_s(), 0),
                   util::Table::num(leg.stages.map_fetch_ms, 1),
                   util::Table::num(leg.stages.rank_ms, 1),
                   util::Table::integer(
                       static_cast<long long>(leg.notifications)),
                   util::Table::integer(
                       static_cast<long long>(leg.route_hops)),
                   util::Table::integer(static_cast<long long>(leg.probes))});
    rows.emplace_back(n, leg);
  }
  std::cout << table.to_string();

  write_json(util::env_string("BENCH_JSON", "BENCH_join.json"), topology,
             rows);

  std::cout << "\nReading: joins/s is wall-clock; map fetch vs rank splits\n"
               "the selector's time between consulting the maps and\n"
               "ranking + RTT-probing candidates. The state columns are\n"
               "simulated and reproduce exactly for a given SEED.\n";
  return 0;
}
