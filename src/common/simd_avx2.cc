// AVX2 kernel tier: 256-bit lanes (four 64-bit rows or eight 32-bit
// candidates per step) plus hardware gathers for the index-chasing
// kernels. This translation unit alone is compiled with -mavx2 (see
// CMakeLists); its code only runs after the CPUID dispatch in simd.cc has
// confirmed AVX2, so no other object file ever contains AVX2 encodings.
//
// Compiled with -ffp-contract=off: KlAccumulate's bit-equality across
// tiers requires single-rounded multiplies and adds.

#include "common/simd.h"

#ifdef __AVX2__

#include <immintrin.h>

#include <cmath>

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

void MinMaxGatherU32Avx2(const std::uint32_t* values, const std::uint32_t* idx, std::size_t n,
                         std::uint32_t* mn, std::uint32_t* mx) {
  std::uint32_t lo = values[idx[0]], hi = lo;
  std::size_t i = 0;
  if (n >= 8) {
    __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo));
    __m256i vhi = vlo;
    for (; i + 8 <= n; i += 8) {
      const __m256i vidx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
      const __m256i v = _mm256_i32gather_epi32(reinterpret_cast<const int*>(values), vidx, 4);
      vlo = _mm256_min_epu32(vlo, v);
      vhi = _mm256_max_epu32(vhi, v);
    }
    alignas(32) std::uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vlo);
    for (int j = 0; j < 8; ++j) lo = lanes[j] < lo ? lanes[j] : lo;
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vhi);
    for (int j = 0; j < 8; ++j) hi = lanes[j] > hi ? lanes[j] : hi;
  }
  for (; i < n; ++i) {
    const std::uint32_t v = values[idx[i]];
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
  }
  *mn = lo;
  *mx = hi;
}

void GatherU32Avx2(const std::uint32_t* values, const std::uint32_t* idx, std::size_t n,
                   std::uint32_t* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vidx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m256i v = _mm256_i32gather_epi32(reinterpret_cast<const int*>(values), vidx, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
  }
  for (; i < n; ++i) out[i] = values[idx[i]];
}

// Eight candidates per step: the per-attribute lo/hi bounds come in
// through hardware gathers over the SoA bound arrays, the containment
// test is two signed compares (coordinates < 2^31 by contract), and hits
// leave through the movemask in ascending candidate order.
std::size_t StabCandidatesAvx2(const std::uint32_t* candidates, std::size_t n,
                               const std::uint32_t* point, const std::uint32_t* const* lo,
                               const std::uint32_t* const* hi, std::size_t d,
                               std::uint32_t* hits) {
  const __m256i ones = _mm256_set1_epi32(-1);
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vg = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(candidates + i));
    __m256i inside = ones;
    for (std::size_t a = 1; a < d; ++a) {
      const __m256i vpt = _mm256_set1_epi32(static_cast<int>(point[a]));
      const __m256i vlo =
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(lo[a]), vg, 4);
      const __m256i vhi =
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(hi[a]), vg, 4);
      const __m256i ge = _mm256_andnot_si256(_mm256_cmpgt_epi32(vlo, vpt), ones);
      const __m256i lt = _mm256_cmpgt_epi32(vhi, vpt);
      inside = _mm256_and_si256(inside, _mm256_and_si256(ge, lt));
      if (_mm256_movemask_ps(_mm256_castsi256_ps(inside)) == 0) break;
    }
    int m = _mm256_movemask_ps(_mm256_castsi256_ps(inside));
    while (m != 0) {
      const int j = __builtin_ctz(static_cast<unsigned>(m));
      hits[count++] = candidates[i + static_cast<std::size_t>(j)];
      m &= m - 1;
    }
  }
  for (; i < n; ++i) {
    const std::uint32_t g = candidates[i];
    bool inside = true;
    for (std::size_t a = 1; a < d; ++a) {
      const std::uint32_t v = point[a];
      if (v < lo[a][g] || v >= hi[a][g]) {
        inside = false;
        break;
      }
    }
    if (inside) hits[count++] = g;
  }
  return count;
}

// One 4-double register is exactly the four virtual lanes of the KL
// accumulation geometry; logs still go through scalar std::log on the
// single-rounded quotients, so every tier adds the identical term
// sequence into the identical lane.
void KlAccumulateAvx2(const double* count, const double* fstar_n, double n, std::size_t len,
                      double acc[4]) {
  __m256d vacc = _mm256_loadu_pd(acc);
  const __m256d vn = _mm256_set1_pd(n);
  alignas(32) double ratio[4], lg[4];
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256d c = _mm256_loadu_pd(count + i);
    _mm256_store_pd(ratio, _mm256_div_pd(c, _mm256_loadu_pd(fstar_n + i)));
    lg[0] = std::log(ratio[0]);
    lg[1] = std::log(ratio[1]);
    lg[2] = std::log(ratio[2]);
    lg[3] = std::log(ratio[3]);
    vacc = _mm256_add_pd(vacc, _mm256_mul_pd(_mm256_div_pd(c, vn), _mm256_load_pd(lg)));
  }
  _mm256_storeu_pd(acc, vacc);
  for (; i < len; ++i) {
    const double r = count[i] / fstar_n[i];
    const double l = std::log(r);
    acc[i & 3] += (count[i] / n) * l;
  }
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
      FnvFoldColumnAvx2,  StrideAccumulateAvx2, MinMaxGatherU32Avx2, GatherU32Avx2,
      StabCandidatesAvx2, KlAccumulateAvx2,     WindowProbeAddAvx2,  HilbertEncodeBlockAvx2,
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
