#include "hilbert/hilbert_curve.h"

#include <vector>

#include "common/check.h"
#include "common/simd.h"

namespace ldv {

namespace {

// Skilling's in-place transforms between axis coordinates and the
// "transposed" Hilbert index representation (b bits per axis, n axes).

void AxesToTranspose(std::uint32_t* x, std::uint32_t b, std::uint32_t n) {
  std::uint32_t m = 1u << (b - 1);
  // Inverse undo.
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    std::uint32_t p = q - 1;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        std::uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (std::uint32_t i = 1; i < n; ++i) x[i] ^= x[i - 1];
  std::uint32_t t = 0;
  for (std::uint32_t q = m; q > 1; q >>= 1) {
    if (x[n - 1] & q) t ^= q - 1;
  }
  for (std::uint32_t i = 0; i < n; ++i) x[i] ^= t;
}

void TransposeToAxes(std::uint32_t* x, std::uint32_t b, std::uint32_t n) {
  std::uint32_t big = 2u << (b - 1);
  // Gray decode by H ^ (H/2).
  std::uint32_t t = x[n - 1] >> 1;
  for (std::uint32_t i = n - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (std::uint32_t q = 2; q != big; q <<= 1) {
    std::uint32_t p = q - 1;
    for (std::uint32_t i = n; i-- > 0;) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        std::uint32_t t2 = (x[0] ^ x[i]) & p;
        x[0] ^= t2;
        x[i] ^= t2;
      }
    }
  }
}

}  // namespace

HilbertCurve::HilbertCurve(std::uint32_t dimensions, std::uint32_t bits_per_dimension)
    : dims_(dimensions), bits_(bits_per_dimension) {
  LDIV_CHECK_GE(dims_, 1u);
  LDIV_CHECK_GE(bits_, 1u);
  LDIV_CHECK_LE(bits_, 32u);
  LDIV_CHECK(Fits(dims_, bits_)) << "Hilbert index must fit in 64 bits";
}

std::uint64_t HilbertCurve::Encode(std::span<const std::uint32_t> coords) const {
  LDIV_CHECK_EQ(coords.size(), dims_);
  std::uint32_t x[64];
  for (std::uint32_t i = 0; i < dims_; ++i) {
    LDIV_CHECK_LT(coords[i], 1u << bits_);
    x[i] = coords[i];
  }
  if (dims_ == 1) return coords[0];  // the 1-D curve is the identity
  AxesToTranspose(x, bits_, dims_);
  // Interleave the transposed form, most significant bit plane first.
  std::uint64_t index = 0;
  for (std::uint32_t bit = bits_; bit-- > 0;) {
    for (std::uint32_t i = 0; i < dims_; ++i) {
      index = (index << 1) | ((x[i] >> bit) & 1u);
    }
  }
  return index;
}

void HilbertCurve::EncodeBlock(const std::uint32_t* const* cols, std::uint32_t shift,
                               std::size_t row_begin, std::size_t count,
                               std::uint64_t* out) const {
  if (dims_ == 1) {  // the 1-D curve is the identity
    for (std::size_t r = 0; r < count; ++r) out[r] = cols[0][row_begin + r] >> shift;
    return;
  }
  simd::HilbertEncodeBlock(cols, dims_, bits_, shift, row_begin, count, out);
}

void HilbertCurve::Decode(std::uint64_t index, std::span<std::uint32_t> coords) const {
  LDIV_CHECK_EQ(coords.size(), dims_);
  if (dims_ == 1) {
    coords[0] = static_cast<std::uint32_t>(index);
    return;
  }
  std::uint32_t x[64] = {0};
  for (std::uint32_t bit = 0; bit < bits_; ++bit) {
    for (std::uint32_t i = dims_; i-- > 0;) {
      x[i] |= static_cast<std::uint32_t>(index & 1u) << bit;
      index >>= 1;
    }
  }
  TransposeToAxes(x, bits_, dims_);
  for (std::uint32_t i = 0; i < dims_; ++i) coords[i] = x[i];
}

std::uint32_t HilbertCurve::BitsForDomain(std::uint64_t domain_size) {
  std::uint32_t bits = 1;
  while ((std::uint64_t{1} << bits) < domain_size) ++bits;
  return bits;
}

}  // namespace ldv
