// Field arithmetic for Ed25519: GF(p) with p = 2^255 - 19.
//
// Representation: five 51-bit limbs (little-endian), multiplication via
// unsigned __int128. This implementation favours clarity and testability; it
// is NOT constant-time and must not be used where timing side channels
// matter. For this research library (deterministic simulation + tests) that
// trade-off is appropriate and documented.
//
// Limb bounds (lazy reduction). fe_add, fe_sub and fe_neg never carry; fe_mul,
// fe_sq and fe_carry carry once per call, fe_sq_n once per squaring. What may
// chain without a carry follows from three bounds:
//   - reduced: every limb < 2^51 + 2^18. Returned by fe_mul, fe_sq, fe_sq_n,
//     fe_carry, fe_invert, fe_pow_p58, fe_frombytes, fe_from_u64 and the
//     constants below.
//   - subtrahend: every limb <= the matching limb of 4p (2^53 - 76 for limb 0,
//     2^53 - 4 above). Holds for a reduced element, a sum of up to three
//     reduced elements, and any fe_neg result.
//   - mul input: every limb < 2^54. Holds for a sum of up to seven reduced
//     elements, for any fe_neg result, and for fe_sub(a, b) when a is a sum of
//     up to three reduced elements and b a subtrahend (a + 4p - b stays below
//     7 * 2^51 + 3 * 2^18).
// So the second operand of fe_sub and fe_neg must be a subtrahend, and an
// fe_sub result feeds only fe_mul, fe_sq or fe_carry. With inputs < 2^54 the
// u128 column sums of fe_mul stay below 2^115 and 19 times the top carry
// below 2^64, which is what fixes the 2^54 bound. Debug builds assert these
// bounds at every call.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "support/bytes.hpp"

namespace moonshot::crypto {

/// An element of GF(2^255 - 19); see the limb bounds above.
struct Fe {
  std::uint64_t v[5] = {0, 0, 0, 0, 0};
};

namespace fe_detail {
inline constexpr std::uint64_t kMask = (1ull << 51) - 1;
inline constexpr std::uint64_t kFourP0 = 4 * ((1ull << 51) - 19);  // limb 0 of 4p
inline constexpr std::uint64_t kFourP = 4 * ((1ull << 51) - 1);    // limbs 1..4 of 4p
using u128 = unsigned __int128;

constexpr bool is_mul_input(const Fe& a) {
  for (std::uint64_t x : a.v)
    if (x >> 54) return false;
  return true;
}

constexpr bool is_subtrahend(const Fe& b) {
  if (b.v[0] > kFourP0) return false;
  for (int i = 1; i < 5; ++i)
    if (b.v[i] > kFourP) return false;
  return true;
}

/// The one reduction of fe_mul/fe_sq: column sums r0..r4 (< 2^115) to the
/// reduced limbs o0..o4, the top carry folding back into limb 0 with weight
/// 19 (2^255 ≡ 19 mod p). Two rounds of five independent carries instead of
/// one serial chain: the rounds are short, so a dependent chain of squarings
/// waits on ~2 carry steps, not ~6. Limbs travel as scalars, not an Fe, so
/// loops keep them in registers. The kernel is forced inline: left to its
/// heuristics, GCC emits fe_mul out of line inside the group formulas.
[[gnu::always_inline]] inline void carry_wide(u128 r0, u128 r1, u128 r2, u128 r3, u128 r4,
                                              std::uint64_t& o0, std::uint64_t& o1,
                                              std::uint64_t& o2, std::uint64_t& o3,
                                              std::uint64_t& o4) {
  // Round 1: every column keeps its low 51 bits plus the carry of the column
  // below (< 2^64). Round 2 repeats that on the 64-bit results, whose carries
  // are < 2^13, so limb 0 ends below 2^51 + 19 * 2^13 and the rest below
  // 2^51 + 2^13.
  const std::uint64_t c0 = static_cast<std::uint64_t>(r0 >> 51);
  const std::uint64_t c1 = static_cast<std::uint64_t>(r1 >> 51);
  const std::uint64_t c2 = static_cast<std::uint64_t>(r2 >> 51);
  const std::uint64_t c3 = static_cast<std::uint64_t>(r3 >> 51);
  const std::uint64_t c4 = static_cast<std::uint64_t>(r4 >> 51);
  const std::uint64_t t0 = (static_cast<std::uint64_t>(r0) & kMask) + 19 * c4;
  const std::uint64_t t1 = (static_cast<std::uint64_t>(r1) & kMask) + c0;
  const std::uint64_t t2 = (static_cast<std::uint64_t>(r2) & kMask) + c1;
  const std::uint64_t t3 = (static_cast<std::uint64_t>(r3) & kMask) + c2;
  const std::uint64_t t4 = (static_cast<std::uint64_t>(r4) & kMask) + c3;
  o0 = (t0 & kMask) + 19 * (t4 >> 51);
  o1 = (t1 & kMask) + (t0 >> 51);
  o2 = (t2 & kMask) + (t1 >> 51);
  o3 = (t3 & kMask) + (t2 >> 51);
  o4 = (t4 & kMask) + (t3 >> 51);
}

/// a <- a^2 on scalar limbs (inputs < 2^54, result reduced).
[[gnu::always_inline]] inline void sq_inplace(std::uint64_t& a0, std::uint64_t& a1,
                                              std::uint64_t& a2, std::uint64_t& a3,
                                              std::uint64_t& a4) {
  // Cross terms a_i*a_j (i != j) appear twice, so 15 wide products suffice
  // instead of 25.
  const std::uint64_t a0_2 = 2 * a0, a1_2 = 2 * a1, a2_2 = 2 * a2, a3_2 = 2 * a3;
  const std::uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;
  carry_wide((u128)a0 * a0 + (u128)a1_2 * a4_19 + (u128)a2_2 * a3_19,
             (u128)a0_2 * a1 + (u128)a2_2 * a4_19 + (u128)a3 * a3_19,
             (u128)a0_2 * a2 + (u128)a1 * a1 + (u128)a3_2 * a4_19,
             (u128)a0_2 * a3 + (u128)a1_2 * a2 + (u128)a4 * a4_19,
             (u128)a0_2 * a4 + (u128)a1_2 * a3 + (u128)a2 * a2, a0, a1, a2, a3, a4);
}
}  // namespace fe_detail

inline Fe fe_zero() { return Fe{}; }
/// Small constant c (any 64-bit c; c >> 51 lands in limb 1).
inline Fe fe_from_u64(std::uint64_t c) { return Fe{{c & fe_detail::kMask, c >> 51, 0, 0, 0}}; }
inline Fe fe_one() { return fe_from_u64(1); }

/// a + b, limbwise, no carry.
inline Fe fe_add(const Fe& a, const Fe& b) {
  return Fe{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3],
             a.v[4] + b.v[4]}};
}

/// a + 4p - b, limbwise, no carry; b must be a subtrahend.
inline Fe fe_sub(const Fe& a, const Fe& b) {
  using fe_detail::kFourP;
  assert(fe_detail::is_subtrahend(b));
  return Fe{{a.v[0] + fe_detail::kFourP0 - b.v[0], a.v[1] + kFourP - b.v[1],
             a.v[2] + kFourP - b.v[2], a.v[3] + kFourP - b.v[3], a.v[4] + kFourP - b.v[4]}};
}

/// 4p - b, limbwise, no carry; b must be a subtrahend, and so is the result.
inline Fe fe_neg(const Fe& b) { return fe_sub(fe_zero(), b); }

/// Carries any element with limbs < 2^54 to a reduced one.
inline Fe fe_carry(const Fe& a) {
  assert(fe_detail::is_mul_input(a));
  Fe r;
  fe_detail::carry_wide(a.v[0], a.v[1], a.v[2], a.v[3], a.v[4], r.v[0], r.v[1], r.v[2], r.v[3],
                        r.v[4]);
  return r;
}

[[gnu::always_inline]] inline Fe fe_mul(const Fe& a, const Fe& b) {
  using fe_detail::u128;
  assert(fe_detail::is_mul_input(a) && fe_detail::is_mul_input(b));
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const std::uint64_t b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3, b4_19 = 19 * b4;
  Fe r;
  fe_detail::carry_wide(
      (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 + (u128)a3 * b2_19 + (u128)a4 * b1_19,
      (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 + (u128)a3 * b3_19 + (u128)a4 * b2_19,
      (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3 * b4_19 + (u128)a4 * b3_19,
      (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 + (u128)a4 * b4_19,
      (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 + (u128)a4 * b0, r.v[0],
      r.v[1], r.v[2], r.v[3], r.v[4]);
  return r;
}

/// Dedicated squaring, ~40% fewer word multiplies than fe_mul(a, a). Point
/// doubling and the exponentiation chains are squaring-heavy, so this
/// carries the hot path.
[[gnu::always_inline]] inline Fe fe_sq(const Fe& a) {
  assert(fe_detail::is_mul_input(a));
  std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  fe_detail::sq_inplace(a0, a1, a2, a3, a4);
  return Fe{{a0, a1, a2, a3, a4}};
}

/// a^(2^n): n successive squarings, the limbs kept in registers throughout.
Fe fe_sq_n(const Fe& a, int n);

/// a^(p-2), the multiplicative inverse (0 maps to 0): the addition chain of
/// fe_pow_p58 up to a^(2^250 - 1), then 5 squarings and a multiply by a^11
/// (254 squarings and 11 multiplies in all).
Fe fe_invert(const Fe& a);
/// Inverts n nonzero elements with a single fe_invert (Montgomery's trick:
/// prefix products, one inversion, unwind). Used when building precomputed
/// point tables, where hundreds of Z coordinates need inverting at once.
/// Precondition: every input is nonzero.
void fe_batch_invert(Fe* out, const Fe* in, std::size_t n);
/// a^((p-5)/8) — used during square-root extraction for point decompression.
Fe fe_pow_p58(const Fe& a);

/// sqrt(-1) = 2^((p-1)/4), as canonical limbs.
inline constexpr Fe fe_sqrtm1{{1718705420411056, 234908883556509, 2233514472574048,
                               2117202627021982, 765476049583133}};

/// Canonical 32-byte little-endian encoding (value fully reduced mod p).
/// Accepts any limbs below 2^63.
void fe_tobytes(std::uint8_t out[32], const Fe& a);
/// Loads 32 little-endian bytes; the top bit (bit 255) is ignored per RFC 8032.
Fe fe_frombytes(const std::uint8_t in[32]);

/// True iff a ≡ 0 (mod p).
bool fe_iszero(const Fe& a);
/// Parity of the canonical representative (bit 0 of the encoding).
bool fe_isnegative(const Fe& a);
/// True iff a ≡ b (mod p).
bool fe_equal(const Fe& a, const Fe& b);

}  // namespace moonshot::crypto
