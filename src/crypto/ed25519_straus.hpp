// Fast variable-time scalar multiplication kernels for Ed25519.
//
// Three pieces, all layered on ed25519_group.hpp:
//   - sc_wnaf: width-w non-adjacent-form recoding of a 256-bit scalar into
//     signed odd digits, the standard way to trade table size for additions.
//   - ge_wnaf_table / ge_multi_scalarmult_vartime: Straus/Shamir interleaving
//     — every term shares ONE doubling chain, each contributing a mixed
//     addition (ge_madd/ge_msub against an affine table entry) only where its
//     wNAF digit is nonzero. This is what makes verification's double-scalar
//     (and batch verification's many-scalar) products cheap.
//   - a precomputed radix-16 comb for the fixed base point B, which removes
//     doublings from n*B entirely (it backs ge_scalarmult_base).
//
// Everything here is VARIABLE-TIME: branch patterns depend on scalar bits.
// That is safe only for public inputs — verification scalars (challenge
// hashes, signature S values, batch coefficients) — never for secret keys.
// Signing only uses ge_scalarmult_base, whose comb lookup is data-dependent
// too; this library is documented non-constant-time throughout (see
// ed25519_fe.hpp), so the kernels match the existing threat model.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/ed25519_group.hpp"

namespace moonshot::crypto {

/// Digits produced per scalar by sc_wnaf. 256 scalar bits plus headroom for
/// the carry the centered-digit encoding can push past the top bit.
inline constexpr int kWnafDigits = 258;

/// Recodes a 256-bit little-endian scalar into width-w NAF: out[i] is zero or
/// an odd digit in (-2^(w-1), 2^(w-1)), and any two nonzero digits are at
/// least w positions apart. sum(out[i] * 2^i) == s. Width must be in [2, 8].
void sc_wnaf(signed char out[kWnafDigits], const std::uint8_t s_le[32], int width);

/// Splits s = lo + 2^128 * hi (both halves 32-byte little-endian, top halves
/// zero). The split is exact, not modular, so it holds over the integers.
/// Feeding both halves to ge_multi_scalarmult_vartime against P and 2^128*P
/// halves the length of the shared doubling chain.
void sc_split128(std::uint8_t lo[32], std::uint8_t hi[32], const std::uint8_t s_le[32]);

/// Odd multiples of a point in affine form for mixed addition: odd[i] holds
/// (2i+1) * P, with 2^(width-2) entries matching sc_wnaf digits of `width`.
struct GeWnafTable {
  int width = 0;
  std::vector<GePrecomp> odd;
};

/// Builds the odd-multiple table for p: one doubling, 2^(width-2)-1 adds and
/// one batched inversion to bring every entry to Z = 1.
GeWnafTable ge_wnaf_table(const GePoint& p, int width);

/// One scalar*point term of a multi-scalar product. Pointers are borrowed and
/// must outlive the call. Either `scalar` (32 little-endian bytes, recoded to
/// wNAF of the table's width) or a pre-recoded sparse digit list: digit dig[i]
/// is applied at bit position pos[i], must be odd with |dig[i]| < 2^(width-1)
/// (so it indexes table->odd[|dig|/2]), and positions need not be sorted.
/// Sparse digits let callers with structurally sparse coefficients (e.g.
/// batch-verification randomizers) skip recoding and table building entirely.
/// A sparse term may alternatively name a single affine point via `affine`
/// instead of a table; its digits must then be +1/-1.
struct GeMultiTerm {
  const GeWnafTable* table = nullptr;
  const std::uint8_t* scalar = nullptr;
  const std::uint16_t* pos = nullptr;
  const signed char* dig = nullptr;
  int count = 0;
  const GePrecomp* affine = nullptr;
};

/// Computes sum_i(terms[i].scalar * terms[i].point) + base_scalar * B using
/// one interleaved double-and-add chain over all terms (Straus' trick). The
/// base-point term may be omitted by passing nullptr; when present it is
/// split via sc_split128 and evaluated against wide static tables for B and
/// 2^128*B, so a full-length base scalar never lengthens the doubling chain.
/// Callers that want the same property for their own terms pass split halves
/// against tables for P and 2^128*P (see sc_split128); the chain length is
/// the bit length of the LONGEST scalar passed in. Doublings skip the unused
/// T coordinate except directly before an addition (ge_double_partial).
GePoint ge_multi_scalarmult_vartime(const std::vector<GeMultiTerm>& terms,
                                    const std::uint8_t* base_scalar_le);

}  // namespace moonshot::crypto
