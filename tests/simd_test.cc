// Tests of the SIMD kernel layer (src/common/simd.h): every kernel, at
// every compiled-in tier the host can run, cross-checked against the
// scalar reference on randomized inputs -- including unaligned tails
// (lengths that are not lane multiples and pointers offset off alignment),
// n smaller than one lane, and n == 0. The window probe, the layer's one
// floating-point kernel, is checked for BIT-identical sums across tiers,
// which is the determinism guarantee the suppression estimator relies on.

#include "common/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "hilbert/hilbert_curve.h"

namespace ldv {
namespace {

using simd::Level;

// The tiers the host can actually run, scalar first.
std::vector<Level> RunnableLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (simd::DetectedLevel() >= Level::kSse2) levels.push_back(Level::kSse2);
  if (simd::DetectedLevel() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  return levels;
}

// Restores the dispatch level active at construction on scope exit.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::ActiveLevel()) {}
  ~LevelGuard() { simd::ForceLevel(saved_); }

 private:
  Level saved_;
};

// The lengths every kernel is exercised at: empty, below one lane, exactly
// one SSE2/AVX2 lane, lane multiples, and off-multiple tails.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 65, 1000, 1023};

TEST(SimdDispatch, LevelNamesRoundTrip) {
  EXPECT_STREQ(simd::LevelName(Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(Level::kSse2), "sse2");
  EXPECT_STREQ(simd::LevelName(Level::kAvx2), "avx2");
}

TEST(SimdDispatch, ForceLevelClampsToDetected) {
  LevelGuard guard;
  simd::ForceLevel(Level::kAvx2);
  EXPECT_LE(static_cast<int>(simd::ActiveLevel()), static_cast<int>(simd::DetectedLevel()));
  simd::ForceLevel(Level::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), Level::kScalar);
}

TEST(SimdKernels, FnvFoldColumnMatchesScalar) {
  LevelGuard guard;
  Rng rng(11);
  for (std::size_t n : kLengths) {
    // +1 slack so the kernel can also run from an odd (unaligned) offset.
    std::vector<std::uint64_t> seed(n + 1);
    std::vector<std::uint32_t> col(n + 1);
    for (auto& h : seed) h = rng.Next64();
    for (auto& v : col) v = rng.Next32();
    for (std::size_t off : {std::size_t{0}, std::size_t{1}}) {
      std::vector<std::uint64_t> want(seed.begin() + off, seed.end());
      simd::ForceLevel(Level::kScalar);
      simd::FnvFoldColumn(want.data(), col.data() + off, n);
      for (Level level : RunnableLevels()) {
        std::vector<std::uint64_t> got(seed.begin() + off, seed.end());
        simd::ForceLevel(level);
        simd::FnvFoldColumn(got.data(), col.data() + off, n);
        EXPECT_EQ(got, want) << simd::LevelName(level) << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(SimdKernels, StrideAccumulateMatchesScalar) {
  LevelGuard guard;
  Rng rng(12);
  const std::uint64_t strides[] = {1, 79, 158u * 79, 0x123456789abcULL,
                                   0xfedcba9876543210ULL};
  for (std::size_t n : kLengths) {
    std::vector<std::uint64_t> seed(n + 1);
    std::vector<std::uint32_t> col(n + 1);
    for (auto& a : seed) a = rng.Next64();
    for (auto& v : col) v = rng.Next32();
    for (std::uint64_t stride : strides) {
      std::vector<std::uint64_t> want(seed.begin() + 1, seed.end());
      simd::ForceLevel(Level::kScalar);
      simd::StrideAccumulate(want.data(), col.data() + 1, stride, n);
      for (Level level : RunnableLevels()) {
        std::vector<std::uint64_t> got(seed.begin() + 1, seed.end());
        simd::ForceLevel(level);
        simd::StrideAccumulate(got.data(), col.data() + 1, stride, n);
        EXPECT_EQ(got, want) << simd::LevelName(level) << " n=" << n << " stride=" << stride;
      }
    }
  }
}

// A hand-laid window table of 1024 home slots (plus the 8 padding
// slots): probe i's key sits at offset i % 8 past its home, so every
// window offset 0-7 is hit, except every ninth probe, which stays out of
// the table (half of those probe the empty-slot key itself). Start values
// are non-zero and of either sign, and every tier must match scalar bit
// for bit -- and scalar must add exactly the placed mass, or +0.0.
TEST(SimdKernels, WindowProbeAddMatchesScalar) {
  LevelGuard guard;
  Rng rng(18);
  constexpr std::uint64_t kSlotMask = 1023;
  unsigned offsets_hit = 0;
  for (std::size_t n = 0; n <= 37; ++n) {
    std::vector<std::uint64_t> keys(kSlotMask + 1 + 8, WindowTable::kEmptyKey);
    std::vector<std::uint64_t> bits(kSlotMask + 1 + 8, 0);
    std::vector<std::uint64_t> probes(n);
    std::vector<double> start(n), expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      start[i] = rng.NextDouble() * 8.0 - 4.0;
      expected[i] = start[i] + 0.0;
      if (i % 9 == 8) {
        probes[i] = i % 2 == 0 ? WindowTable::kEmptyKey : rng.Next64() >> 1;
        continue;
      }
      probes[i] = rng.Next64() >> 1;
      const double mass = rng.NextDouble() + 0.5;
      const std::uint64_t slot = (MixU64(probes[i]) & kSlotMask) + i % 8;
      if (keys[slot] != WindowTable::kEmptyKey) continue;  // taken: probe stays absent
      keys[slot] = probes[i];
      bits[slot] = std::bit_cast<std::uint64_t>(mass);
      expected[i] = start[i] + mass;
      offsets_hit |= 1u << (i % 8);
    }
    std::vector<double> want = start;
    simd::ForceLevel(Level::kScalar);
    simd::WindowProbeAdd(keys.data(), bits.data(), kSlotMask, probes.data(), n, want.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(want[i]), std::bit_cast<std::uint64_t>(expected[i]))
          << "scalar n=" << n << " probe " << i;
    }
    for (Level level : RunnableLevels()) {
      std::vector<double> got = start;
      simd::ForceLevel(level);
      simd::WindowProbeAdd(keys.data(), bits.data(), kSlotMask, probes.data(), n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
            << simd::LevelName(level) << " n=" << n << " probe " << i;
      }
    }
  }
  EXPECT_EQ(offsets_hit, 0xffu);
}

TEST(SimdKernels, HilbertEncodeBlockMatchesCurveEncode) {
  LevelGuard guard;
  Rng rng(18);
  struct Case {
    std::uint32_t dims, bits, shift;
  };
  const Case cases[] = {{2, 7, 0}, {3, 5, 0}, {4, 7, 1}, {7, 7, 0}, {7, 9, 2}, {16, 4, 0}};
  for (const Case& c : cases) {
    HilbertCurve curve(c.dims, c.bits);
    for (std::size_t n : kLengths) {
      // Columns with one row of unaligned slack; raw values stay below
      // 2^(bits + shift) so the shifted coordinates fit the grid.
      std::vector<std::vector<std::uint32_t>> columns(c.dims,
                                                      std::vector<std::uint32_t>(n + 1));
      std::vector<const std::uint32_t*> cols(c.dims);
      for (std::uint32_t a = 0; a < c.dims; ++a) {
        for (auto& v : columns[a]) v = rng.Below(1u << (c.bits + c.shift));
        cols[a] = columns[a].data();
      }
      std::vector<std::uint64_t> want(n);
      std::vector<std::uint32_t> coords(c.dims);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::uint32_t a = 0; a < c.dims; ++a) coords[a] = cols[a][1 + r] >> c.shift;
        want[r] = curve.Encode(coords);
      }
      for (Level level : RunnableLevels()) {
        std::vector<std::uint64_t> got(n);
        simd::ForceLevel(level);
        simd::HilbertEncodeBlock(cols.data(), c.dims, c.bits, c.shift, 1, n, got.data());
        EXPECT_EQ(got, want) << simd::LevelName(level) << " dims=" << c.dims
                             << " bits=" << c.bits << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace ldv
