// Landmark infrastructure (paper Section 4 and Appendix).
//
// A set of m landmark hosts is scattered in the network. Every node
// measures its RTT to each landmark, producing its *landmark vector*
// <l1, ..., lm> — a point in the m-dimensional *landmark space*. Nodes that
// are physically close have nearby landmark vectors (coarsely).
//
// Derived quantities:
//   * landmark ordering — landmarks sorted by increasing RTT (the
//     Topologically-Aware-CAN binning criterion);
//   * landmark number — the Hilbert-curve index of the (quantized) vector,
//     a scalar that preserves locality and is used as the DHT key under
//     which a node's proximity information is stored (Appendix).
#pragma once

#include <cstdint>
#include <vector>

#include "geom/hilbert.hpp"
#include "net/graph.hpp"
#include "net/rtt_oracle.hpp"
#include "util/biguint.hpp"
#include "util/rng.hpp"

namespace topo::proximity {

/// RTTs from one host to each landmark, in ms.
using LandmarkVector = std::vector<double>;

/// Euclidean distance between two landmark vectors.
double vector_distance(const LandmarkVector& a, const LandmarkVector& b);

/// Squared Euclidean distance — the comparison-only variant. Ordering by
/// squared distance equals ordering by distance (sqrt is monotone), so
/// ranking and selection comparators use this and skip the sqrt; keep
/// vector_distance for anything that *reports* a distance.
double squared_distance(const LandmarkVector& a, const LandmarkVector& b);

/// Dense ranking kernel over a dim-major SoA buffer:
/// out[i] = sum_d (soa[d * count + i] - query[d])^2 for i < count. Each
/// dimension's pass is a contiguous streaming loop over `count` lanes
/// (auto-vectorizable), and the per-candidate accumulation order matches
/// squared_distance(), so the results are bit-identical to the scalar
/// calls.
void squared_distances_soa(std::span<const double> soa, std::size_t count,
                           const LandmarkVector& query,
                           std::span<double> out);

struct LandmarkConfig {
  int bits_per_dim = 6;  // grid resolution per landmark-space axis ("x")
  /// Number of leading vector components used to compute the landmark
  /// number (the Appendix's "landmark vector index" optimization);
  /// 0 = use the full vector.
  int vector_index_size = 0;
  /// Latency that maps to the far edge of the landmark-space grid; larger
  /// RTTs are clamped. Set from the topology diameter by the experiment
  /// drivers.
  double scale_ms = 400.0;
};

class LandmarkSet {
 public:
  LandmarkSet(std::vector<net::HostId> landmark_hosts,
              LandmarkConfig config);

  /// Picks `count` distinct random hosts from the topology as landmarks.
  static LandmarkSet choose_random(const net::Topology& topology, int count,
                                   util::Rng& rng, LandmarkConfig config);

  int count() const { return static_cast<int>(hosts_.size()); }
  const std::vector<net::HostId>& hosts() const { return hosts_; }
  const LandmarkConfig& config() const { return config_; }

  /// Measures the landmark vector of `host`. Costs count() RTT probes on
  /// the oracle (the paper treats these as the fixed joining overhead,
  /// separate from the candidate-probe budget).
  LandmarkVector measure(net::RttOracle& oracle, net::HostId host) const;

  /// Landmarks sorted by increasing RTT: the landmark ordering.
  std::vector<int> ordering(const LandmarkVector& vector) const;

  /// Scalar landmark number: Hilbert index of the quantized vector (or of
  /// its leading vector_index_size components).
  util::BigUint landmark_number(const LandmarkVector& vector) const;

  /// Allocation-free variant: `coords_scratch` (size >= curve dims) holds
  /// the quantized coordinates and is clobbered by the in-place encode.
  util::BigUint landmark_number(const LandmarkVector& vector,
                                std::span<std::uint32_t> coords_scratch) const;

  /// Grid dimensionality of the landmark-number curve (min(m,
  /// vector_index_size) when the index optimization is on, m otherwise) —
  /// the minimum scratch size of the allocation-free landmark_number.
  int number_dims() const { return curve_.dims(); }

  /// Total bits of a landmark number.
  int number_bits() const { return curve_.index_bits(); }

  /// Landmark number scaled to [0, 1) — handy as a 1-d locality key.
  double unit_number(const LandmarkVector& vector) const;

 private:
  /// Quantizes `vector`'s leading number_dims() components onto the
  /// landmark-space grid.
  void quantize_into(const LandmarkVector& vector,
                     std::span<std::uint32_t> out) const;

  std::vector<net::HostId> hosts_;
  LandmarkConfig config_;
  geom::HilbertCurve curve_;
};

/// Lehmer rank of a landmark ordering in [0, m!), used to bin nodes with
/// similar orderings (Topologically-Aware CAN layout). m <= 20.
std::uint64_t ordering_rank(const std::vector<int>& ordering);

/// m! for m <= 20.
std::uint64_t factorial(int m);

}  // namespace topo::proximity
