// FNV-1a (64-bit), the fold behind every replay digest and fingerprint:
// scheduler fingerprints, tracer digests, chaos run digests and model-checker
// violation digests. Not a security primitive.
#pragma once

#include <cstdint>

namespace moonshot {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ull;

/// Folds the eight bytes of `v` into `acc`, least significant byte first.
inline void fnv1a_fold(std::uint64_t& acc, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    acc ^= (v >> (8 * i)) & 0xff;
    acc *= 0x100000001b3ull;  // the 64-bit FNV prime
  }
}

}  // namespace moonshot
