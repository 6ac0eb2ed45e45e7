#ifndef LDIV_HILBERT_HILBERT_CURVE_H_
#define LDIV_HILBERT_HILBERT_CURVE_H_

#include <cstdint>
#include <span>

namespace ldv {

/// d-dimensional Hilbert space-filling curve encoder.
///
/// The Hilbert baseline of Ghinita et al. [16] maps every tuple's QI vector
/// to its position along a Hilbert curve and anonymizes in 1-D order; the
/// curve's locality guarantees that consecutive tuples have similar QI
/// values. This implementation follows John Skilling, "Programming the
/// Hilbert curve" (AIP Conf. Proc. 707, 2004): coordinates are converted to
/// the transposed Hilbert index via Gray-code arithmetic in O(d * b) time.
///
/// `dimensions * bits_per_dimension` must be at most 64 so the index fits a
/// single machine word (the paper's workloads need at most 7 attributes of
/// 7 bits).
class HilbertCurve {
 public:
  HilbertCurve(std::uint32_t dimensions, std::uint32_t bits_per_dimension);

  std::uint32_t dimensions() const { return dims_; }
  std::uint32_t bits_per_dimension() const { return bits_; }

  /// Position of `coords` along the curve. Each coordinate must be below
  /// 2^bits_per_dimension.
  std::uint64_t Encode(std::span<const std::uint32_t> coords) const;

  /// Encode for a block of rows in columnar form: row r of the block takes
  /// coordinate cols[i][row_begin + r] >> shift on axis i, and its curve
  /// position lands in out[r]. Bit-exact with Encode on every row, but
  /// runs on the SIMD kernels (several rows walk the curve per step), so
  /// the bulk per-row paths should prefer it. Shifted coordinates must be
  /// below 2^bits_per_dimension.
  void EncodeBlock(const std::uint32_t* const* cols, std::uint32_t shift,
                   std::size_t row_begin, std::size_t count, std::uint64_t* out) const;

  /// Inverse of Encode: recovers coordinates from a curve position.
  void Decode(std::uint64_t index, std::span<std::uint32_t> coords) const;

  /// Smallest bit width that can represent values in [0, domain_size).
  static std::uint32_t BitsForDomain(std::uint64_t domain_size);

  /// Whether a curve of `dimensions` x `bits_per_dimension` (at least 1)
  /// fits the 64-bit index, as the constructor CHECKs. At one bit per
  /// dimension at most 64 dimensions fit, so the Hilbert order of a table
  /// with more QI attributes is refused up front.
  static bool Fits(std::uint64_t dimensions, std::uint64_t bits_per_dimension) {
    return dimensions <= 64 / bits_per_dimension;
  }

 private:
  std::uint32_t dims_;
  std::uint32_t bits_;
};

}  // namespace ldv

#endif  // LDIV_HILBERT_HILBERT_CURVE_H_
