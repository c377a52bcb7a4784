// Group arithmetic on the Ed25519 curve: -x^2 + y^2 = 1 + d x^2 y^2 over
// GF(2^255 - 19), using extended twisted-Edwards coordinates (X:Y:Z:T) with
// x = X/Z, y = Y/Z, T = XY/Z. Formulas from Hisil–Wong–Carter–Dawson 2008
// ("add-2008-hwcd-3" and "dbl-2008-hwcd", a = -1).
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/ed25519_fe.hpp"

namespace moonshot::crypto {

/// A curve point in extended coordinates.
struct GePoint {
  Fe X, Y, Z, T;
};

/// An affine (Z = 1) table entry: (y+x, y-x, 2dxy). Mixed addition against
/// one of these (ge_madd, 7 multiplications) hoists every product that
/// depends only on the entry.
struct GePrecomp {
  Fe ypx, ymx, xy2d;
};

/// Curve constant d = -121665/121666, as canonical limbs.
inline constexpr Fe ge_d{{929955233495203, 466365720129213, 1662059464998953,
                          2033849074728123, 1442794654840575}};
/// Curve constant 2d, used by the addition formulas.
inline constexpr Fe ge_2d{{1859910466990425, 932731440258426, 1072319116312658,
                           1815898335770999, 633789495995903}};

// Every GePoint coordinate is a reduced field element (ed25519_fe.hpp), which
// is what lets the formulas below run without a carry pass outside
// fe_mul/fe_sq. GePrecomp entries hold a lazy sum and difference of reduced
// elements: mul inputs, not subtrahends.

/// The identity element (0 : 1 : 1 : 0).
inline GePoint ge_identity() { return GePoint{fe_zero(), fe_one(), fe_one(), fe_zero()}; }
/// The standard base point B (y = 4/5, x even); derived once on first use.
const GePoint& ge_basepoint();

namespace ge_detail {
/// The shared body of every addition formula (add-2008-hwcd-3, a = -1, with
/// the operand-only terms hoisted): ymx/ypx are the second operand's Y-X and
/// Y+X, C = T1 * 2d * T2 and D = 2 * Z1 * Z2. Subtracting the second operand
/// instead swaps ymx with ypx (done by the caller) and C's sign (`sub`).
inline GePoint add_core(const GePoint& p, const Fe& ymx, const Fe& ypx, const Fe& C,
                        const Fe& D, bool sub) {
  const Fe A = fe_mul(fe_sub(p.Y, p.X), ymx);
  const Fe B = fe_mul(fe_add(p.Y, p.X), ypx);
  const Fe E = fe_sub(B, A);
  const Fe H = fe_add(B, A);
  const Fe F = sub ? fe_add(D, C) : fe_sub(D, C);
  const Fe G = sub ? fe_sub(D, C) : fe_add(D, C);
  return GePoint{fe_mul(E, F), fe_mul(G, H), fe_mul(F, G), fe_mul(E, H)};
}
}  // namespace ge_detail

/// Unified point addition (works for doubling too, but ge_double is faster).
GePoint ge_add(const GePoint& p, const GePoint& q);

/// Point doubling that skips the T coordinate unless need_t is set. The
/// doubling formula never reads T, so runs of doublings (between additions in
/// a scalar-mult ladder) can elide one field multiplication each.
inline GePoint ge_double_partial(const GePoint& p, bool need_t) {
  // dbl-2008-hwcd with a = -1: A = X^2, B = Y^2, C = 2Z^2, E = (X+Y)^2 - A - B,
  // G = B - A, F = G - C, H = -A - B. E, F and H subtract one sum instead of
  // two terms in turn, so every difference stays a mul input without a carry.
  const Fe A = fe_sq(p.X);
  const Fe B = fe_sq(p.Y);
  const Fe zz = fe_sq(p.Z);
  const Fe AB = fe_add(A, B);
  const Fe E = fe_sub(fe_sq(fe_add(p.X, p.Y)), AB);
  const Fe G = fe_sub(B, A);
  const Fe F = fe_sub(B, fe_add(A, fe_add(zz, zz)));
  const Fe H = fe_neg(AB);
  return GePoint{fe_mul(E, F), fe_mul(G, H), fe_mul(F, G), need_t ? fe_mul(E, H) : fe_zero()};
}
/// Point doubling.
inline GePoint ge_double(const GePoint& p) { return ge_double_partial(p, true); }
/// Point negation.
GePoint ge_neg(const GePoint& p);

/// Mixed addition p + q with affine q (Z = 1): D = 2 * Z1 needs no multiply.
inline GePoint ge_madd(const GePoint& p, const GePrecomp& q) {
  return ge_detail::add_core(p, q.ymx, q.ypx, fe_mul(p.T, q.xy2d), fe_add(p.Z, p.Z), false);
}
/// Mixed subtraction p - q with affine q (Z = 1).
inline GePoint ge_msub(const GePoint& p, const GePrecomp& q) {
  return ge_detail::add_core(p, q.ypx, q.ymx, fe_mul(p.T, q.xy2d), fe_add(p.Z, p.Z), true);
}

/// Scalar multiplication n*P; n is a 256-bit little-endian scalar. Plain
/// double-and-add reference ladder; the fast paths live in ed25519_straus.hpp.
GePoint ge_scalarmult(const std::uint8_t n_le[32], const GePoint& p);
/// n*B for the standard base point, via a precomputed radix-16 comb table
/// (implemented in ed25519_straus.cpp).
GePoint ge_scalarmult_base(const std::uint8_t n_le[32]);

/// Projective equality: same affine point?
bool ge_equal(const GePoint& p, const GePoint& q);
/// True iff p is the identity.
bool ge_is_identity(const GePoint& p);

/// Compresses to 32 bytes: canonical y with the sign of x in bit 255.
void ge_tobytes(std::uint8_t out[32], const GePoint& p);
/// Decompresses; fails (nullopt) if the encoding is not a curve point.
std::optional<GePoint> ge_frombytes(const std::uint8_t in[32]);

}  // namespace moonshot::crypto
