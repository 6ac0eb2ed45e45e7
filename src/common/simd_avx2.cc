// AVX2 kernel tier: 256-bit lanes (four 64-bit rows or four window slots
// per step). This translation unit alone is compiled with -mavx2 (see
// CMakeLists); its code only runs after the CPUID dispatch in simd.cc has
// confirmed AVX2, so no other object file ever contains AVX2 encodings.
// Index-chasing loops (row gathers, box containment) have no AVX2 body:
// their hardware gathers measured within noise of the scalar loops.

#include "common/simd.h"

#ifdef __AVX2__

#include <immintrin.h>

#include "common/mix.h"

namespace ldv {
namespace simd {
namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;  // 2^40 + 435

// (h ^ v) * kFnvPrime on four 64-bit lanes; same shift-and-add product
// decomposition as the SSE2 tier, twice as wide.
void FnvFoldColumnAvx2(std::uint64_t* hashes, const std::uint32_t* col, std::size_t n) {
  const __m256i c435 = _mm256_set1_epi64x(435);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vh = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hashes + i));
    const __m256i vc = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + i)));
    const __m256i t = _mm256_xor_si256(vh, vc);
    const __m256i lo = _mm256_mul_epu32(t, c435);
    const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(t, 32), c435);
    const __m256i r = _mm256_add_epi64(_mm256_slli_epi64(t, 40),
                                       _mm256_add_epi64(lo, _mm256_slli_epi64(hi, 32)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hashes + i), r);
  }
  for (; i < n; ++i) hashes[i] = (hashes[i] ^ col[i]) * kFnvPrime;
}

void StrideAccumulateAvx2(std::uint64_t* acc, const std::uint32_t* col, std::uint64_t stride,
                          std::size_t n) {
  const __m256i vsl = _mm256_set1_epi64x(static_cast<long long>(stride & 0xffffffffULL));
  const __m256i vsh = _mm256_set1_epi64x(static_cast<long long>(stride >> 32));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i vc = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + i)));
    const __m256i prod = _mm256_add_epi64(_mm256_mul_epu32(vc, vsl),
                                          _mm256_slli_epi64(_mm256_mul_epu32(vc, vsh), 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), _mm256_add_epi64(va, prod));
  }
  for (; i < n; ++i) acc[i] += stride * col[i];
}

// The 8-slot window in two 4-key compares: each compare masks its four
// slots' bits, the halves OR down to one 64-bit lane, and the selected
// bits add into fstar[i] through one scalar IEEE add, like the scalar
// tier.
void WindowProbeAddAvx2(const std::uint64_t* keys, const std::uint64_t* bits,
                        std::uint64_t slot_mask, const std::uint64_t* probes, std::size_t n,
                        double* fstar) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t home = MixU64(probes[i]) & slot_mask;
    const __m256i vp = _mm256_set1_epi64x(static_cast<long long>(probes[i]));
    const __m256i* k = reinterpret_cast<const __m256i*>(keys + home);
    const __m256i* b = reinterpret_cast<const __m256i*>(bits + home);
    const __m256i eq_lo = _mm256_cmpeq_epi64(_mm256_loadu_si256(k), vp);
    const __m256i eq_hi = _mm256_cmpeq_epi64(_mm256_loadu_si256(k + 1), vp);
    const __m256i lo = _mm256_and_si256(eq_lo, _mm256_loadu_si256(b));
    const __m256i hi = _mm256_and_si256(eq_hi, _mm256_loadu_si256(b + 1));
    const __m256i hit4 = _mm256_or_si256(lo, hi);
    __m128i hit = _mm_or_si128(_mm256_castsi256_si128(hit4), _mm256_extracti128_si256(hit4, 1));
    hit = _mm_or_si128(hit, _mm_unpackhi_epi64(hit, hit));
    _mm_store_sd(fstar + i, _mm_add_sd(_mm_load_sd(fstar + i), _mm_castsi128_pd(hit)));
  }
}

// Four rows per step on 64-bit lanes; same branchless mask form as the
// SSE2 tier (see simd_sse2.cc for the derivation).
void HilbertEncodeBlockAvx2(const std::uint32_t* const* cols, std::size_t d, std::uint32_t bits,
                            std::uint32_t shift, std::size_t row_begin, std::size_t count,
                            std::uint64_t* out) {
  const std::uint32_t m = 1u << (bits - 1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  const __m128i vshift = _mm_cvtsi32_si128(static_cast<int>(shift));
  __m256i x[64];
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    for (std::size_t i = 0; i < d; ++i) {
      const __m128i v = _mm_srl_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols[i] + row_begin + r)), vshift);
      x[i] = _mm256_cvtepu32_epi64(v);
    }
    for (std::uint32_t q = m; q > 1; q >>= 1) {
      const __m256i vp = _mm256_set1_epi64x(q - 1);
      const __m128i vq = _mm_cvtsi32_si128(__builtin_ctz(q));
      for (std::size_t i = 0; i < d; ++i) {
        const __m256i bit = _mm256_and_si256(_mm256_srl_epi64(x[i], vq), one);
        const __m256i sel = _mm256_sub_epi64(zero, bit);
        const __m256i t = _mm256_and_si256(_mm256_xor_si256(x[0], x[i]), vp);
        const __m256i tn = _mm256_andnot_si256(sel, t);
        x[0] = _mm256_xor_si256(x[0], _mm256_or_si256(tn, _mm256_and_si256(sel, vp)));
        x[i] = _mm256_xor_si256(x[i], tn);
      }
    }
    for (std::size_t i = 1; i < d; ++i) x[i] = _mm256_xor_si256(x[i], x[i - 1]);
    __m256i vt = zero;
    for (std::uint32_t q = m; q > 1; q >>= 1) {
      const __m256i bit =
          _mm256_and_si256(_mm256_srl_epi64(x[d - 1], _mm_cvtsi32_si128(__builtin_ctz(q))), one);
      vt = _mm256_xor_si256(
          vt, _mm256_and_si256(_mm256_sub_epi64(zero, bit), _mm256_set1_epi64x(q - 1)));
    }
    for (std::size_t i = 0; i < d; ++i) x[i] = _mm256_xor_si256(x[i], vt);
    __m256i index = zero;
    for (std::uint32_t bit = bits; bit-- > 0;) {
      const __m128i vb = _mm_cvtsi32_si128(static_cast<int>(bit));
      for (std::size_t i = 0; i < d; ++i) {
        index = _mm256_or_si256(_mm256_slli_epi64(index, 1),
                                _mm256_and_si256(_mm256_srl_epi64(x[i], vb), one));
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + r), index);
  }
  if (r < count) {
    detail::kScalarKernels.hilbert_encode_block(cols, d, bits, shift, row_begin + r, count - r,
                                                out + r);
  }
}

}  // namespace

namespace detail {

const Kernels* Avx2Kernels() {
  static const Kernels table = {
      FnvFoldColumnAvx2,
      StrideAccumulateAvx2,
      WindowProbeAddAvx2,
      HilbertEncodeBlockAvx2,
  };
  return &table;
}

}  // namespace detail
}  // namespace simd
}  // namespace ldv

#else  // !__AVX2__

namespace ldv {
namespace simd {
namespace detail {

const Kernels* Avx2Kernels() { return nullptr; }

}  // namespace detail
}  // namespace simd
}  // namespace ldv

#endif  // __AVX2__
