#include "geom/hilbert.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace topo::geom {

HilbertCurve::HilbertCurve(int dims, int bits) : dims_(dims), bits_(bits) {
  TO_EXPECTS(dims >= 1);
  TO_EXPECTS(bits >= 1 && bits <= 32);
  TO_EXPECTS(dims * bits <= util::BigUint::kBits);
}

// Skilling: AxestoTranspose. On entry x holds axis coordinates; on exit it
// holds the Hilbert index in "transpose" form (bit j of the index group k
// lives in x[k], see interleave()).
void HilbertCurve::axes_to_transpose(std::span<std::uint32_t> x) const {
  const auto n = static_cast<std::size_t>(dims_);
  const std::uint32_t m = 1u << (bits_ - 1);
  // Inverse undo.
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    const std::uint32_t p = q - 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (x[i] & q) {
        x[0] ^= p;  // invert
      } else {      // exchange
        const std::uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (std::size_t i = 1; i < n; ++i) x[i] ^= x[i - 1];
  std::uint32_t t = 0;
  for (std::uint32_t q = m; q > 1; q >>= 1)
    if (x[n - 1] & q) t ^= q - 1;
  for (std::size_t i = 0; i < n; ++i) x[i] ^= t;
}

// Skilling: TransposetoAxes (exact inverse of the above).
void HilbertCurve::transpose_to_axes(std::span<std::uint32_t> x) const {
  const auto n = static_cast<std::size_t>(dims_);
  const std::uint32_t top = bits_ >= 32 ? 0u : (2u << (bits_ - 1));
  // Gray decode by H ^ (H/2).
  std::uint32_t t = x[n - 1] >> 1;
  for (std::size_t i = n - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (std::uint32_t q = 2; q != top && q != 0; q <<= 1) {
    const std::uint32_t p = q - 1;
    for (std::size_t ii = n; ii-- > 0;) {
      if (x[ii] & q) {
        x[0] ^= p;
      } else {
        const std::uint32_t tt = (x[0] ^ x[ii]) & p;
        x[0] ^= tt;
        x[ii] ^= tt;
      }
    }
  }
}

// Pack the transpose form into a single integer: the index's bit at
// position (bit_level * dims + axis_slot) takes bit `bit_level` of
// x[dims-1-axis_slot]; most significant index bits come from the most
// significant coordinate bits of x[0].
util::BigUint HilbertCurve::interleave(
    std::span<const std::uint32_t> x) const {
  util::BigUint out;
  int pos = index_bits() - 1;
  for (int level = bits_ - 1; level >= 0; --level) {
    for (int axis = 0; axis < dims_; ++axis, --pos) {
      if ((x[static_cast<std::size_t>(axis)] >> level) & 1u)
        out.set_bit(pos, true);
    }
  }
  TO_ENSURES(pos == -1);
  return out;
}

std::vector<std::uint32_t> HilbertCurve::deinterleave(
    const util::BigUint& index) const {
  std::vector<std::uint32_t> x(static_cast<std::size_t>(dims_), 0);
  int pos = index_bits() - 1;
  for (int level = bits_ - 1; level >= 0; --level) {
    for (int axis = 0; axis < dims_; ++axis, --pos) {
      if (index.bit(pos))
        x[static_cast<std::size_t>(axis)] |= 1u << level;
    }
  }
  return x;
}

util::BigUint HilbertCurve::index_in_place(std::span<std::uint32_t> x,
                                           std::uint32_t limit) const {
  for (const std::uint32_t c : x) TO_EXPECTS(c <= limit);
  axes_to_transpose(x);
  return interleave(x);
}

util::BigUint HilbertCurve::index(
    std::span<const std::uint32_t> coords) const {
  TO_EXPECTS(coords.size() == static_cast<std::size_t>(dims_));
  std::vector<std::uint32_t> x(coords.begin(), coords.end());
  const std::uint32_t limit =
      bits_ >= 32 ? ~0u : ((1u << bits_) - 1);
  return index_in_place(x, limit);
}

util::BigUint HilbertCurve::index(std::span<const std::uint32_t> coords,
                                  std::span<std::uint32_t> scratch) const {
  TO_EXPECTS(coords.size() == static_cast<std::size_t>(dims_));
  TO_EXPECTS(scratch.size() >= coords.size());
  const std::uint32_t limit =
      bits_ >= 32 ? ~0u : ((1u << bits_) - 1);
  std::span<std::uint32_t> x = scratch.first(coords.size());
  if (coords.data() != scratch.data())
    std::copy(coords.begin(), coords.end(), x.begin());
  return index_in_place(x, limit);
}

std::vector<std::uint32_t> HilbertCurve::coords(
    const util::BigUint& index) const {
  std::vector<std::uint32_t> x(static_cast<std::size_t>(dims_), 0);
  coords_into(index, x);
  return x;
}

void HilbertCurve::coords_into(const util::BigUint& index,
                               std::span<std::uint32_t> out) const {
  TO_EXPECTS(out.size() == static_cast<std::size_t>(dims_));
  std::fill(out.begin(), out.end(), 0u);
  int pos = index_bits() - 1;
  for (int level = bits_ - 1; level >= 0; --level) {
    for (int axis = 0; axis < dims_; ++axis, --pos) {
      if (index.bit(pos))
        out[static_cast<std::size_t>(axis)] |= 1u << level;
    }
  }
  transpose_to_axes(out);
}

}  // namespace topo::geom
