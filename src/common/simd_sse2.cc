// SSE2 kernel tier: 128-bit integer lanes (two 64-bit rows or two window
// slots per step). SSE2 is the x86-64 baseline, so this translation unit
// needs no extra target flags; it compiles to an empty stub elsewhere.
// The tier stays because hosts without AVX2 run on it, and on them it
// measurably speeds up the suppression-KL window probes and the Hilbert
// encode over the scalar bodies.

#include "common/simd.h"

#ifdef __SSE2__

#include <emmintrin.h>

#include "common/mix.h"

namespace ldv {
namespace simd {
namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;  // 2^40 + 435

// (h ^ v) * kFnvPrime on two 64-bit lanes: the prime is 2^40 + 435, so the
// product splits into (t << 40) + lo32(t) * 435 + (hi32(t) * 435 << 32),
// each partial product computable with _mm_mul_epu32.
void FnvFoldColumnSse2(std::uint64_t* hashes, const std::uint32_t* col, std::size_t n) {
  const __m128i c435 = _mm_set1_epi64x(435);
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i vh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(hashes + i));
    const __m128i vc = _mm_unpacklo_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(col + i)), zero);
    const __m128i t = _mm_xor_si128(vh, vc);
    const __m128i lo = _mm_mul_epu32(t, c435);
    const __m128i hi = _mm_mul_epu32(_mm_srli_epi64(t, 32), c435);
    const __m128i r = _mm_add_epi64(_mm_slli_epi64(t, 40),
                                    _mm_add_epi64(lo, _mm_slli_epi64(hi, 32)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(hashes + i), r);
  }
  for (; i < n; ++i) hashes[i] = (hashes[i] ^ col[i]) * kFnvPrime;
}

// acc[i] += stride * col[i]: the 64-bit stride splits into 32-bit halves,
// stride * v = lo(stride) * v + (hi(stride) * v << 32) mod 2^64.
void StrideAccumulateSse2(std::uint64_t* acc, const std::uint32_t* col, std::uint64_t stride,
                          std::size_t n) {
  const __m128i vsl = _mm_set1_epi64x(static_cast<long long>(stride & 0xffffffffULL));
  const __m128i vsh = _mm_set1_epi64x(static_cast<long long>(stride >> 32));
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
    const __m128i vc = _mm_unpacklo_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(col + i)), zero);
    const __m128i prod = _mm_add_epi64(_mm_mul_epu32(vc, vsl),
                                       _mm_slli_epi64(_mm_mul_epu32(vc, vsh), 32));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + i), _mm_add_epi64(va, prod));
  }
  for (; i < n; ++i) acc[i] += stride * col[i];
}

// Two slots per step over the 8-slot window. SSE2 has no 64-bit compare:
// a 64-bit lane is equal when both of its 32-bit halves are, so the
// 32-bit compare is ANDed with its half-swapped copy. The selected bits
// add into fstar[i] through one scalar IEEE add, like the scalar tier.
void WindowProbeAddSse2(const std::uint64_t* keys, const std::uint64_t* bits,
                        std::uint64_t slot_mask, const std::uint64_t* probes, std::size_t n,
                        double* fstar) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t home = MixU64(probes[i]) & slot_mask;
    const __m128i vp = _mm_set1_epi64x(static_cast<long long>(probes[i]));
    __m128i hit = _mm_setzero_si128();
    for (std::size_t j = 0; j < 8; j += 2) {
      const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys + home + j));
      const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bits + home + j));
      const __m128i eq32 = _mm_cmpeq_epi32(k, vp);
      const __m128i eq64 = _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
      hit = _mm_or_si128(hit, _mm_and_si128(eq64, b));
    }
    hit = _mm_or_si128(hit, _mm_unpackhi_epi64(hit, hit));
    _mm_store_sd(fstar + i, _mm_add_sd(_mm_load_sd(fstar + i), _mm_castsi128_pd(hit)));
  }
}

// Two rows per step on 64-bit lanes. The data-dependent branch of
// Skilling's walk ("if the q bit of x[i] is set") becomes a full-lane mask
// built from that bit: sel = 0 - ((x[i] >> log2 q) & 1), then
//   x[0] ^= (sel & p) | (~sel & t),   x[i] ^= ~sel & t
// which reproduces both branch arms at once (for i == 0, t is zero and
// only the sel & p term fires, exactly like the scalar code).
void HilbertEncodeBlockSse2(const std::uint32_t* const* cols, std::size_t d, std::uint32_t bits,
                            std::uint32_t shift, std::size_t row_begin, std::size_t count,
                            std::uint64_t* out) {
  const std::uint32_t m = 1u << (bits - 1);
  const __m128i zero = _mm_setzero_si128();
  const __m128i one = _mm_set1_epi64x(1);
  const __m128i vshift = _mm_cvtsi32_si128(static_cast<int>(shift));
  __m128i x[64];
  std::size_t r = 0;
  for (; r + 2 <= count; r += 2) {
    for (std::size_t i = 0; i < d; ++i) {
      const __m128i v = _mm_srl_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(cols[i] + row_begin + r)), vshift);
      x[i] = _mm_unpacklo_epi32(v, zero);
    }
    for (std::uint32_t q = m; q > 1; q >>= 1) {
      const __m128i vp = _mm_set1_epi64x(q - 1);
      const __m128i vq = _mm_cvtsi32_si128(__builtin_ctz(q));
      for (std::size_t i = 0; i < d; ++i) {
        const __m128i bit = _mm_and_si128(_mm_srl_epi64(x[i], vq), one);
        const __m128i sel = _mm_sub_epi64(zero, bit);
        const __m128i t = _mm_and_si128(_mm_xor_si128(x[0], x[i]), vp);
        const __m128i tn = _mm_andnot_si128(sel, t);
        x[0] = _mm_xor_si128(x[0], _mm_or_si128(tn, _mm_and_si128(sel, vp)));
        x[i] = _mm_xor_si128(x[i], tn);
      }
    }
    for (std::size_t i = 1; i < d; ++i) x[i] = _mm_xor_si128(x[i], x[i - 1]);
    __m128i vt = zero;
    for (std::uint32_t q = m; q > 1; q >>= 1) {
      const __m128i bit =
          _mm_and_si128(_mm_srl_epi64(x[d - 1], _mm_cvtsi32_si128(__builtin_ctz(q))), one);
      vt = _mm_xor_si128(vt, _mm_and_si128(_mm_sub_epi64(zero, bit), _mm_set1_epi64x(q - 1)));
    }
    for (std::size_t i = 0; i < d; ++i) x[i] = _mm_xor_si128(x[i], vt);
    __m128i index = zero;
    for (std::uint32_t bit = bits; bit-- > 0;) {
      const __m128i vb = _mm_cvtsi32_si128(static_cast<int>(bit));
      for (std::size_t i = 0; i < d; ++i) {
        index = _mm_or_si128(_mm_slli_epi64(index, 1),
                             _mm_and_si128(_mm_srl_epi64(x[i], vb), one));
      }
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + r), index);
  }
  if (r < count) {
    detail::kScalarKernels.hilbert_encode_block(cols, d, bits, shift, row_begin + r, count - r,
                                                out + r);
  }
}

}  // namespace

namespace detail {

const Kernels* Sse2Kernels() {
  static const Kernels table = {
      FnvFoldColumnSse2,
      StrideAccumulateSse2,
      WindowProbeAddSse2,
      HilbertEncodeBlockSse2,
  };
  return &table;
}

}  // namespace detail
}  // namespace simd
}  // namespace ldv

#else  // !__SSE2__

namespace ldv {
namespace simd {
namespace detail {

const Kernels* Sse2Kernels() { return nullptr; }

}  // namespace detail
}  // namespace simd
}  // namespace ldv

#endif  // __SSE2__
