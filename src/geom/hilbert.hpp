// Hilbert space-filling curve in arbitrary dimension.
//
// The paper (Appendix) reduces an n-dimensional landmark vector to a scalar
// *landmark number* with a space-filling curve, and maps landmark numbers
// back into d-dimensional positions inside overlay zones. Both directions
// need a bijection between grid coordinates and curve positions that
// preserves locality; the Hilbert curve is the paper's cited choice.
//
// Implementation: Skilling's compact algorithm ("Programming the Hilbert
// curve", AIP 2004), which converts between axis coordinates and the
// "transpose" form of the Hilbert index in O(dims * bits) bit operations.
// Indices can span up to dims*bits <= 256 bits (e.g. 30 landmarks x 8 bits),
// hence util::BigUint.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/biguint.hpp"

namespace topo::geom {

class HilbertCurve {
 public:
  /// `dims` axes, each with `bits` bits of resolution (coordinates in
  /// [0, 2^bits)). dims*bits must fit in BigUint.
  HilbertCurve(int dims, int bits);

  int dims() const { return dims_; }
  int bits() const { return bits_; }
  int index_bits() const { return dims_ * bits_; }

  /// Distance along the curve of the cell at `coords` (size dims).
  util::BigUint index(std::span<const std::uint32_t> coords) const;

  /// Allocation-free variant for hot callers: `scratch` (size dims)
  /// receives a working copy of `coords` and is clobbered by the in-place
  /// transpose conversion. `coords` and `scratch` may alias exactly, in
  /// which case the caller's buffer is consumed directly.
  util::BigUint index(std::span<const std::uint32_t> coords,
                      std::span<std::uint32_t> scratch) const;

  /// Inverse: cell coordinates of curve position `index`.
  std::vector<std::uint32_t> coords(const util::BigUint& index) const;

  /// Inverse into a caller-provided buffer of size dims() — the map
  /// service calls this once per published/looked-up record, so the hot
  /// path must not allocate.
  void coords_into(const util::BigUint& index,
                   std::span<std::uint32_t> out) const;

 private:
  /// Encodes one tuple in place (axes -> transpose -> packed index),
  /// destroying the input. `limit` is the precomputed coordinate bound.
  util::BigUint index_in_place(std::span<std::uint32_t> x,
                               std::uint32_t limit) const;
  void axes_to_transpose(std::span<std::uint32_t> x) const;
  void transpose_to_axes(std::span<std::uint32_t> x) const;
  util::BigUint interleave(std::span<const std::uint32_t> x) const;
  std::vector<std::uint32_t> deinterleave(const util::BigUint& index) const;

  int dims_;
  int bits_;
};

}  // namespace topo::geom
