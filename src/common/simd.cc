// Scalar reference kernels and the runtime dispatch of the SIMD layer.

#include "common/simd.h"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/flat_map.h"

namespace ldv {
namespace simd {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;  // 2^40 + 435

void FnvFoldColumnScalar(std::uint64_t* hashes, const std::uint32_t* col, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) hashes[i] = (hashes[i] ^ col[i]) * kFnvPrime;
}

void StrideAccumulateScalar(std::uint64_t* acc, const std::uint32_t* col, std::uint64_t stride,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += stride * col[i];
}

void WindowProbeAddScalar(const std::uint64_t* keys, const std::uint64_t* bits,
                          std::uint64_t slot_mask, const std::uint64_t* probes, std::size_t n,
                          double* fstar) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t home = MixU64(probes[i]) & slot_mask;
    const std::uint64_t hit = WindowTable::Select(keys + home, bits + home, probes[i]);
    fstar[i] += std::bit_cast<double>(hit);
  }
}

// Skilling's axes-to-transpose walk followed by the MSB-first bit
// interleave, one row at a time -- the arithmetic matches
// HilbertCurve::Encode exactly (integers, so bit-exactness is free).
void HilbertEncodeBlockScalar(const std::uint32_t* const* cols, std::size_t d,
                              std::uint32_t bits, std::uint32_t shift, std::size_t row_begin,
                              std::size_t count, std::uint64_t* out) {
  std::uint32_t x[64];
  const std::uint32_t m = 1u << (bits - 1);
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t i = 0; i < d; ++i) x[i] = cols[i][row_begin + r] >> shift;
    for (std::uint32_t q = m; q > 1; q >>= 1) {
      const std::uint32_t p = q - 1;
      for (std::size_t i = 0; i < d; ++i) {
        if (x[i] & q) {
          x[0] ^= p;
        } else {
          const std::uint32_t t = (x[0] ^ x[i]) & p;
          x[0] ^= t;
          x[i] ^= t;
        }
      }
    }
    for (std::size_t i = 1; i < d; ++i) x[i] ^= x[i - 1];
    std::uint32_t t = 0;
    for (std::uint32_t q = m; q > 1; q >>= 1) {
      if (x[d - 1] & q) t ^= q - 1;
    }
    for (std::size_t i = 0; i < d; ++i) x[i] ^= t;
    std::uint64_t index = 0;
    for (std::uint32_t bit = bits; bit-- > 0;) {
      for (std::size_t i = 0; i < d; ++i) {
        index = (index << 1) | ((x[i] >> bit) & 1u);
      }
    }
    out[r] = index;
  }
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

const detail::Kernels* TableFor(Level level) {
  switch (level) {
    case Level::kAvx2:
      return detail::Avx2Kernels();
    case Level::kSse2:
      return detail::Sse2Kernels();
    case Level::kScalar:
      break;
  }
  return &detail::kScalarKernels;
}

Level Detect() {
#if defined(__x86_64__) || defined(__i386__)
  if (detail::Avx2Kernels() != nullptr && __builtin_cpu_supports("avx2")) return Level::kAvx2;
  if (detail::Sse2Kernels() != nullptr && __builtin_cpu_supports("sse2")) return Level::kSse2;
#endif
  return Level::kScalar;
}

Level Clamp(Level level) {
  const Level best = DetectedLevel();
  return static_cast<int>(level) > static_cast<int>(best) ? best : level;
}

// Initial level: DetectedLevel() clamped by LDIV_SIMD, read once.
Level InitialLevel() {
  const char* env = std::getenv("LDIV_SIMD");
  if (env == nullptr || env[0] == '\0') return DetectedLevel();
  if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
  if (std::strcmp(env, "sse2") == 0) return Clamp(Level::kSse2);
  if (std::strcmp(env, "avx2") == 0) return Clamp(Level::kAvx2);
  std::fprintf(stderr, "ldiv: ignoring unknown LDIV_SIMD value '%s' (want scalar|sse2|avx2)\n",
               env);
  return DetectedLevel();
}

std::atomic<const detail::Kernels*>& ActiveTable() {
  static std::atomic<const detail::Kernels*> table{TableFor(InitialLevel())};
  return table;
}

std::atomic<Level>& ActiveLevelSlot() {
  static std::atomic<Level> level{InitialLevel()};
  return level;
}

const detail::Kernels& Active() { return *ActiveTable().load(std::memory_order_relaxed); }

}  // namespace

namespace detail {

const Kernels kScalarKernels = {
    FnvFoldColumnScalar,
    StrideAccumulateScalar,
    WindowProbeAddScalar,
    HilbertEncodeBlockScalar,
};

}  // namespace detail

const char* LevelName(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kSse2:
      return "sse2";
    case Level::kScalar:
      break;
  }
  return "scalar";
}

Level DetectedLevel() {
  static const Level detected = Detect();
  return detected;
}

Level ActiveLevel() { return ActiveLevelSlot().load(std::memory_order_relaxed); }

void ForceLevel(Level level) {
  const Level clamped = Clamp(level);
  ActiveLevelSlot().store(clamped, std::memory_order_relaxed);
  ActiveTable().store(TableFor(clamped), std::memory_order_relaxed);
}

void FnvFoldColumn(std::uint64_t* hashes, const std::uint32_t* col, std::size_t n) {
  Active().fnv_fold_column(hashes, col, n);
}

void StrideAccumulate(std::uint64_t* acc, const std::uint32_t* col, std::uint64_t stride,
                      std::size_t n) {
  Active().stride_accumulate(acc, col, stride, n);
}

void WindowProbeAdd(const std::uint64_t* keys, const std::uint64_t* bits, std::uint64_t slot_mask,
                    const std::uint64_t* probes, std::size_t n, double* fstar) {
  Active().window_probe_add(keys, bits, slot_mask, probes, n, fstar);
}

void HilbertEncodeBlock(const std::uint32_t* const* cols, std::size_t d, std::uint32_t bits,
                        std::uint32_t shift, std::size_t row_begin, std::size_t count,
                        std::uint64_t* out) {
  Active().hilbert_encode_block(cols, d, bits, shift, row_begin, count, out);
}

}  // namespace simd
}  // namespace ldv
