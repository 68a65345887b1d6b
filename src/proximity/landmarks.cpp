#include "proximity/landmarks.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "geom/zone.hpp"
#include "util/assert.hpp"

namespace topo::proximity {

double vector_distance(const LandmarkVector& a, const LandmarkVector& b) {
  TO_EXPECTS(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

double squared_distance(const LandmarkVector& a, const LandmarkVector& b) {
  TO_EXPECTS(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

void squared_distances_soa(std::span<const double> soa, std::size_t count,
                           const LandmarkVector& query,
                           std::span<double> out) {
  TO_EXPECTS(soa.size() == count * query.size());
  TO_EXPECTS(out.size() >= count);
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(count),
            0.0);
  // Dim-major passes: each inner loop reads/writes `count` contiguous
  // doubles with a broadcast query component — the shape compilers turn
  // into packed fused multiply-adds. Accumulating dimension-by-dimension
  // per candidate matches squared_distance()'s summation order, so the
  // two paths agree bit-for-bit.
  for (std::size_t d = 0; d < query.size(); ++d) {
    const double q = query[d];
    const double* lane = soa.data() + d * count;
    for (std::size_t i = 0; i < count; ++i) {
      const double diff = lane[i] - q;
      out[i] += diff * diff;
    }
  }
}

LandmarkSet::LandmarkSet(std::vector<net::HostId> landmark_hosts,
                         LandmarkConfig config)
    : hosts_(std::move(landmark_hosts)),
      config_(config),
      curve_(config.vector_index_size > 0
                 ? std::min<int>(config.vector_index_size,
                                 static_cast<int>(hosts_.size()))
                 : static_cast<int>(hosts_.size()),
             config.bits_per_dim) {
  TO_EXPECTS(!hosts_.empty());
  TO_EXPECTS(config_.bits_per_dim >= 1);
  TO_EXPECTS(config_.scale_ms > 0.0);
}

LandmarkSet LandmarkSet::choose_random(const net::Topology& topology,
                                       int count, util::Rng& rng,
                                       LandmarkConfig config) {
  TO_EXPECTS(count >= 1);
  TO_EXPECTS(static_cast<std::size_t>(count) <= topology.host_count());
  const auto indices =
      rng.sample_indices(topology.host_count(), static_cast<std::size_t>(count));
  std::vector<net::HostId> hosts;
  hosts.reserve(indices.size());
  for (const std::size_t i : indices)
    hosts.push_back(static_cast<net::HostId>(i));
  return LandmarkSet(std::move(hosts), config);
}

LandmarkVector LandmarkSet::measure(net::RttOracle& oracle,
                                    net::HostId host) const {
  LandmarkVector vector;
  vector.reserve(hosts_.size());
  for (const net::HostId landmark : hosts_)
    vector.push_back(oracle.probe_rtt(host, landmark));
  return vector;
}

std::vector<int> LandmarkSet::ordering(const LandmarkVector& vector) const {
  TO_EXPECTS(vector.size() == hosts_.size());
  std::vector<int> order(vector.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return vector[static_cast<std::size_t>(a)] <
           vector[static_cast<std::size_t>(b)];
  });
  return order;
}

void LandmarkSet::quantize_into(const LandmarkVector& vector,
                                std::span<std::uint32_t> out) const {
  TO_EXPECTS(vector.size() == hosts_.size());
  const auto dims = static_cast<std::size_t>(curve_.dims());
  TO_EXPECTS(out.size() >= dims);
  for (std::size_t i = 0; i < dims; ++i) {
    const double unit =
        std::min(vector[i] / config_.scale_ms, std::nextafter(1.0, 0.0));
    out[i] = geom::grid_coord(unit, curve_.bits());
  }
}

util::BigUint LandmarkSet::landmark_number(
    const LandmarkVector& vector) const {
  const auto dims = static_cast<std::size_t>(curve_.dims());
  std::vector<std::uint32_t> coords(dims);
  quantize_into(vector, coords);
  return curve_.index(coords);
}

util::BigUint LandmarkSet::landmark_number(
    const LandmarkVector& vector,
    std::span<std::uint32_t> coords_scratch) const {
  const auto dims = static_cast<std::size_t>(curve_.dims());
  TO_EXPECTS(coords_scratch.size() >= dims);
  const std::span<std::uint32_t> coords = coords_scratch.first(dims);
  quantize_into(vector, coords);
  // Aliased call: the quantized coords double as the encoder's working
  // buffer, so the whole derivation is allocation-free.
  return curve_.index(coords, coords);
}

double LandmarkSet::unit_number(const LandmarkVector& vector) const {
  return landmark_number(vector).to_unit(curve_.index_bits());
}

std::uint64_t factorial(int m) {
  TO_EXPECTS(m >= 0 && m <= 20);
  std::uint64_t f = 1;
  for (int i = 2; i <= m; ++i) f *= static_cast<std::uint64_t>(i);
  return f;
}

std::uint64_t ordering_rank(const std::vector<int>& ordering) {
  const auto m = static_cast<int>(ordering.size());
  TO_EXPECTS(m <= 20);
  std::uint64_t rank = 0;
  for (int i = 0; i < m; ++i) {
    // Count smaller elements to the right (Lehmer code digit).
    int smaller = 0;
    for (int j = i + 1; j < m; ++j)
      if (ordering[static_cast<std::size_t>(j)] <
          ordering[static_cast<std::size_t>(i)])
        ++smaller;
    rank += static_cast<std::uint64_t>(smaller) * factorial(m - 1 - i);
  }
  return rank;
}

}  // namespace topo::proximity
