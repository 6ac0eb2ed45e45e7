#ifndef LDIV_COMMON_MIX_H_
#define LDIV_COMMON_MIX_H_

#include <cstdint>

namespace ldv {

/// splitmix64 finalizer: full-avalanche mixing of a 64-bit key. Hot-path
/// keys (packed point ids, signature hashes) are highly structured, so
/// they must be scrambled before masking into a power-of-two table.
/// Dependency-free, so the SIMD kernel translation units (which compile
/// with their own target flags) can hash probes without pulling in
/// anything else.
inline std::uint64_t MixU64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace ldv

#endif  // LDIV_COMMON_MIX_H_
