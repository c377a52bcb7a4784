#include "crypto/ed25519_group.hpp"

namespace moonshot::crypto {

const GePoint& ge_basepoint() {
  static const GePoint cached = [] {
    // B has y = 4/5 and even x, so its encoding is enc(4/5) with sign bit 0.
    const Fe y = fe_mul(fe_from_u64(4), fe_invert(fe_from_u64(5)));
    std::uint8_t enc[32];
    fe_tobytes(enc, y);  // sign bit (bit 255) is 0: x chosen even
    const auto p = ge_frombytes(enc);
    return *p;  // decompression of the standard base point cannot fail
  }();
  return cached;
}

GePoint ge_add(const GePoint& p, const GePoint& q) {
  return ge_detail::add_core(p, fe_sub(q.Y, q.X), fe_add(q.Y, q.X),
                             fe_mul(fe_mul(p.T, ge_2d), q.T), fe_mul(fe_add(p.Z, p.Z), q.Z), false);
}

GePoint ge_neg(const GePoint& p) {
  // Carried, so the coordinates stay reduced.
  return GePoint{fe_carry(fe_neg(p.X)), p.Y, p.Z, fe_carry(fe_neg(p.T))};
}

GePoint ge_scalarmult(const std::uint8_t n_le[32], const GePoint& p) {
  GePoint r = ge_identity();
  for (int bit = 255; bit >= 0; --bit) {
    r = ge_double(r);
    if ((n_le[bit >> 3] >> (bit & 7)) & 1) r = ge_add(r, p);
  }
  return r;
}

bool ge_equal(const GePoint& p, const GePoint& q) {
  // (X1/Z1 == X2/Z2) and (Y1/Z1 == Y2/Z2), cross-multiplied.
  return fe_equal(fe_mul(p.X, q.Z), fe_mul(q.X, p.Z)) &&
         fe_equal(fe_mul(p.Y, q.Z), fe_mul(q.Y, p.Z));
}

bool ge_is_identity(const GePoint& p) {
  return fe_iszero(p.X) && fe_equal(p.Y, p.Z);
}

void ge_tobytes(std::uint8_t out[32], const GePoint& p) {
  const Fe zinv = fe_invert(p.Z);
  const Fe x = fe_mul(p.X, zinv);
  const Fe y = fe_mul(p.Y, zinv);
  fe_tobytes(out, y);
  if (fe_isnegative(x)) out[31] |= 0x80;
}

std::optional<GePoint> ge_frombytes(const std::uint8_t in[32]) {
  const bool sign = (in[31] & 0x80) != 0;
  const Fe y = fe_frombytes(in);

  // Solve -x^2 + y^2 = 1 + d x^2 y^2  =>  x^2 = (y^2 - 1) / (d y^2 + 1).
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(ge_d, y2), fe_one());

  // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8).
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow_p58(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (fe_equal(vx2, u)) {
    // x is a root.
  } else if (fe_iszero(fe_add(vx2, u))) {
    // v x^2 == -u: x * sqrt(-1) is a root.
    x = fe_mul(x, fe_sqrtm1);
  } else {
    return std::nullopt;  // not a quadratic residue: invalid encoding
  }

  if (fe_iszero(x)) {
    // x == 0 with sign bit set is non-canonical (RFC 8032 §5.1.3 step 4).
    if (sign) return std::nullopt;
  } else if (fe_isnegative(x) != sign) {
    x = fe_carry(fe_neg(x));
  }

  GePoint p;
  p.X = x;
  p.Y = y;
  p.Z = fe_one();
  p.T = fe_mul(x, y);
  return p;
}

}  // namespace moonshot::crypto
