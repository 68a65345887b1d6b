// topo_perfbench — the repository's end-to-end benchmark.
//
//   topo_perfbench --workload <churn-ae|softstate-100k>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload against the public API and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when an output check failed, 2 on a usage error. softstate-100k runs on
// THREADS worker threads (the variable that sizes the program's own pool).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

std::string Signature::diff(const Signature& other) const {
  const std::size_t n = std::min(items_.size(), other.items_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [name, value] = items_[i];
    const auto& [other_name, other_value] = other.items_[i];
    if (name != other_name || value != other_value) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s: %.17g vs %s: %.17g", name.c_str(),
                    value, other_name.c_str(), other_value);
      return buf;
    }
  }
  if (items_.size() != other.items_.size()) return "signature length differs";
  return {};
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

SpeedReference::SpeedReference() : next_(std::size_t{1} << 20) {
  // Sattolo's shuffle of the identity: next_ becomes one cycle through
  // every entry.
  for (std::size_t i = 0; i < next_.size(); ++i)
    next_[i] = static_cast<std::uint32_t>(i);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    std::swap(next_[i], next_[x % i]);
  }
}

void SpeedReference::sample() {
  const Clock::time_point t = Clock::now();
  std::uint32_t at = at_;
  for (int i = 0; i < kSteps; ++i) at = next_[at];
  samples_.push_back(seconds_since(t));
  at_ = at;
}

volatile double probe_sink = 0.0;
void keep(double value) { probe_sink = value; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The catalogue BENCHMARK.json lists; run.py cross-checks the two.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"join_per_s", "joins/s"},
    {"dht_ops_per_s", "ops/s"},
    {"map_publish_per_s", "publishes/s"},
    {"map_lookup_per_s", "lookups/s"},
    {"peak_rss_mib", "MiB"},
    {"stretch_p50", "ratio"},
    {"stretch_p99", "ratio"},
    {"probes_per_join", "probes"},
    {"hops_per_join", "hops"},
    {"softstate_bytes_per_node", "B"},
};

// A per-layer metric a workload does not exercise reads 0: that layer did
// no such work in that workload (README, "Per-layer metrics").
constexpr MetricSpec kPerLayer[] = {
    {"core.join_ms_p50", "ms"},
    {"core.join_ms_p99", "ms"},
    {"core.reselections_per_join", "count"},
    {"core.select_fetch_s", "s"},
    {"core.select_rank_s", "s"},
    {"core.dht_op_us_p50", "us"},
    {"core.dht_op_us_p99", "us"},
    {"core.republish_us", "us"},
    {"core.reselections_per_node_min", "count/node/min"},
    {"core.failed_lookups", "count"},
    {"pubsub.notifications_per_join", "count"},
    {"pubsub.hops_per_join", "hops"},
    {"pubsub.predicate_evals_per_join", "count"},
    {"pubsub.notifications_per_node_min", "count/node/min"},
    {"softstate.map_hops_per_join", "hops"},
    {"softstate.map_lookups_per_join", "count"},
    {"softstate.map_lookup_us", "us"},
    {"softstate.publish_msgs_per_node_min", "count/node/min"},
    {"softstate.ae_sessions_per_node_min", "count/node/min"},
    {"softstate.ae_summary_bytes_per_node_min", "B/node/min"},
    {"softstate.ae_delta_bytes_per_node_min", "B/node/min"},
    {"softstate.ae_bytes_per_node_min", "B/node/min"},
    {"softstate.failed_routes", "count"},
    {"softstate.shard_publish_s", "s"},
    {"softstate.shard_lookup_s", "s"},
    {"softstate.shard_expire_s", "s"},
    {"softstate.hops_per_publish", "hops"},
    {"softstate.hops_per_lookup", "hops"},
    {"softstate.candidates_per_lookup", "count"},
    {"softstate.entries", "count"},
    {"overlay.route_us", "us"},
    {"overlay.lookup_hops_p50", "hops"},
    {"overlay.lazy_repairs_per_node_min", "count/node/min"},
    {"overlay.build_s", "s"},
    {"net.rtt_query_ns", "ns"},
    {"net.probes_per_node_min", "count/node/min"},
    {"net.world_build_s", "s"},
    {"proximity.measure_us", "us"},
    {"sim.maintain_s", "s"},
    {"sim.lookup_s", "s"},
    {"sim.lifecycle_events_per_sim_s", "1/s"},
    {"sim.sim_s_per_s", "s/s"},
    {"sim.ctrl_hops_per_node_min", "hops/node/min"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "topo_perfbench: %s\nusage: topo_perfbench --workload "
               "<churn-ae|softstate-100k> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  return 2;
}

/// Orders `result.metrics` by the catalogue and checks every name and unit
/// against it; per-layer metrics a workload did not report read 0.
template <std::size_t N>
void conform(RunResult& result, const MetricSpec (&catalogue)[N],
             bool fill_missing) {
  std::map<std::string, Metric> by_name;
  for (Metric& m : result.metrics) {
    const bool known = std::any_of(
        std::begin(catalogue), std::end(catalogue),
        [&](const MetricSpec& s) { return m.name == s.name && m.unit == s.unit; });
    result.check(known, "metric outside the catalogue: " + m.name + " [" +
                            m.unit + "]");
    result.check(std::isfinite(m.value), "non-finite metric " + m.name);
    by_name[m.name] = m;
  }
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : catalogue) {
    const auto it = by_name.find(spec.name);
    if (it != by_name.end()) {
      ordered.push_back(it->second);
    } else {
      result.check(fill_missing, std::string("missing metric ") + spec.name);
      ordered.push_back({spec.name, 0.0, spec.unit});
    }
  }
  result.metrics = std::move(ordered);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 600)
        return usage("bad --seconds");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
      have_trace = true;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");

  RunResult result;
  try {
    if (options.workload == "churn-ae") {
      result = run_churn_ae(options);
    } else if (options.workload == "softstate-100k") {
      result = run_softstate_100k(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "topo_perfbench: %s\n", e.what());
    return 1;
  }

  if (options.trace)
    conform(result, kPerLayer, /*fill_missing=*/true);
  else
    conform(result, kEndToEnd, /*fill_missing=*/false);
  for (const Metric& m : result.metrics)
    result.check(options.trace || m.value > 0.0,
                 "end-to-end metric reads 0: " + m.name);
  result.check(result.attempted >= 1, "no operation attempted");

  for (const std::string& line : result.notes)
    std::printf("%s\n", line.c_str());
  for (const std::string& problem : result.problems)
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
