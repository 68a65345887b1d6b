// Shared plumbing of the end-to-end benchmark: options, the metric
// catalogue, the per-round simulation signature and small statistics
// helpers. Each workload lives in its own translation unit and returns a
// RunResult; main.cpp validates it against the catalogue and prints the
// closing JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Host seconds of measured work per run (set-up and checks excluded).
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Failed checks, printed to stderr; any entry makes the run incorrect.
  std::vector<std::string> problems;
  /// Human-readable lines printed before the JSON (reference figures).
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Every simulated count and stretch figure one round produced. All rounds
/// of a run replay the same seeded inputs, so every round — traced or
/// not — must reproduce the first round's signature bit for bit; a
/// difference means timing or tracing leaked into the simulation.
class Signature {
 public:
  void add(const std::string& name, double value) {
    items_.emplace_back(name, value);
  }
  /// Empty when equal, else the first differing item.
  std::string diff(const Signature& other) const;

 private:
  std::vector<std::pair<std::string, double>> items_;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double sum(const std::vector<double>& values);

/// Keeps a timed probe's result observable so its calls are not elided.
void keep(double value);

/// The machine's memory speed during a run, from a fixed kernel timed
/// between pieces of measured work: a pointer chase around one random
/// cycle through 4 MiB, more than a core's own caches hold, so that its
/// loads go to the cache and memory that a shared machine's other tenants
/// also use. Such a machine can change speed by a third within minutes as
/// those tenants come and go (seen on a 4-vCPU virtual machine), and the
/// program's rates follow the kernel's. The end-to-end times and rates are
/// scaled to a nominal kNominalNsPerLoad per load, so that runs made at
/// different moments compare; the raw figures are printed beside them.
class SpeedReference {
 public:
  static constexpr int kSteps = 4096;
  static constexpr double kNominalNsPerLoad = 200.0;

  SpeedReference();
  /// Runs and times one chase of kSteps loads.
  void sample();
  double ns_per_load() const { return median(samples_) * 1e9 / kSteps; }
  /// Median load time over the nominal one: rates are multiplied by it,
  /// times divided by it.
  double slowdown() const { return ns_per_load() / kNominalNsPerLoad; }
  std::size_t samples() const { return samples_.size(); }

 private:
  std::vector<std::uint32_t> next_;
  std::vector<double> samples_;
  std::uint32_t at_ = 0;
};

/// Peak resident set of this process so far (getrusage), in MiB.
double peak_rss_mib();

/// True once `elapsed` measured seconds cover the requested run length.
/// Every run completes at least `min_rounds` whole rounds.
inline bool keep_going(double elapsed, const Options& options,
                       std::size_t rounds_done, std::size_t min_rounds) {
  return rounds_done < min_rounds || elapsed < options.seconds;
}

RunResult run_churn_ae(const Options& options);
RunResult run_softstate_100k(const Options& options);

}  // namespace perfbench
