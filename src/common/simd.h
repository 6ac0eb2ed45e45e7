#ifndef LDIV_COMMON_SIMD_H_
#define LDIV_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace ldv {
namespace simd {

/// Instruction-set tiers of the kernel library. Every kernel has one
/// implementation per tier; the scalar tier is the portable reference the
/// others are tested against.
enum class Level : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Lower-case tier name ("scalar" / "sse2" / "avx2"), as accepted by the
/// LDIV_SIMD environment variable and recorded in BENCH_micro.json.
const char* LevelName(Level level);

/// The best tier this process can run: the highest level that is both
/// compiled in (x86 translation units compile to empty stubs elsewhere)
/// and reported by the CPU at startup.
Level DetectedLevel();

/// The tier the kernels currently dispatch to: DetectedLevel() clamped by
/// the LDIV_SIMD environment variable (scalar | sse2 | avx2; read once, at
/// first use; values above DetectedLevel() are clamped, unknown values are
/// ignored with a warning) and by any later ForceLevel() call.
Level ActiveLevel();

/// Forces dispatch to `level` (clamped to DetectedLevel()) until the next
/// call. For tests and benchmarks; call only between kernel invocations --
/// the switch is not synchronized against kernels already running.
void ForceLevel(Level level);

// ---------------------------------------------------------------------------
// Kernels. Only loops whose vector tiers measurably pay end to end live
// here; the rest stay inline at their callers. Every kernel produces
// byte-identical output at every tier: three are integer kernels, exact by
// nature, and WindowProbeAdd's one floating-point operation is a single
// IEEE add per probe.
// ---------------------------------------------------------------------------

/// FNV-1a column fold: hashes[i] = (hashes[i] ^ col[i]) * 0x100000001b3.
/// One call per attribute column folds per-row signature hashes without
/// materializing rows (the multiply splits into shift-and-add form,
/// h * prime = (h << 40) + h * 435, which 64-bit SIMD lanes can do).
void FnvFoldColumn(std::uint64_t* hashes, const std::uint32_t* col, std::size_t n);

/// Mixed-radix accumulate: acc[i] += stride * col[i]. The per-column pass
/// of packed point-id construction (strides up to 2^64 split into 32-bit
/// halves for the lane multiplies).
void StrideAccumulate(std::uint64_t* acc, const std::uint32_t* col, std::uint64_t stride,
                      std::size_t n);

/// Branch-free probes of a frozen WindowTable (common/flat_map.h): for
/// each i in [0, n), with home h = MixU64(probes[i]) & slot_mask, ORs the
/// bits of every slot of [h, h + 8) whose key equals probes[i] and adds
/// the result, read as a double, to fstar[i]. A key in the table adds its
/// exact value; an absent key selects 0 and adds +0.0, which leaves any
/// fstar[i] >= +0.0 bit-for-bit unchanged. `keys` and `bits` hold
/// slot_mask + 1 + 8 slots. The select is exact integer work and the add
/// is one IEEE addition at every tier, so the result is bit-identical
/// across tiers.
void WindowProbeAdd(const std::uint64_t* keys, const std::uint64_t* bits, std::uint64_t slot_mask,
                    const std::uint64_t* probes, std::size_t n, double* fstar);

/// Batch Hilbert encode (Skilling's transform + bit interleave) of rows
/// [row_begin, row_begin + count) over d coordinate columns, each
/// coordinate right-shifted by `shift`: out[i] is the curve index of row
/// row_begin + i. Requires d >= 2 (d == 1 is the identity -- callers
/// shortcut it), d * bits <= 64 and (cols[a][r] >> shift) < 2^bits. The
/// SIMD tiers run the transform branchlessly on 64-bit row lanes;
/// bit-exact with HilbertCurve::Encode.
void HilbertEncodeBlock(const std::uint32_t* const* cols, std::size_t d, std::uint32_t bits,
                        std::uint32_t shift, std::size_t row_begin, std::size_t count,
                        std::uint64_t* out);

namespace detail {

/// Dispatch table of one tier's kernel implementations. simd.cc owns the
/// scalar table; simd_sse2.cc / simd_avx2.cc export theirs when compiled
/// on x86 (and a null pointer elsewhere), so dispatch degrades to scalar
/// on other architectures without any build-system branching.
struct Kernels {
  void (*fnv_fold_column)(std::uint64_t*, const std::uint32_t*, std::size_t);
  void (*stride_accumulate)(std::uint64_t*, const std::uint32_t*, std::uint64_t, std::size_t);
  void (*window_probe_add)(const std::uint64_t*, const std::uint64_t*, std::uint64_t,
                           const std::uint64_t*, std::size_t, double*);
  void (*hilbert_encode_block)(const std::uint32_t* const*, std::size_t, std::uint32_t,
                               std::uint32_t, std::size_t, std::size_t, std::uint64_t*);
};

extern const Kernels kScalarKernels;

/// The SSE2 tier's table, or nullptr when not compiled in (non-x86).
const Kernels* Sse2Kernels();

/// The AVX2 tier's table, or nullptr when not compiled in.
const Kernels* Avx2Kernels();

}  // namespace detail

}  // namespace simd
}  // namespace ldv

#endif  // LDIV_COMMON_SIMD_H_
