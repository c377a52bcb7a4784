#include "crypto/ed25519_fe.hpp"

#include <cstring>

namespace moonshot::crypto {

namespace {
using fe_detail::kMask;
using fe_detail::u128;

/// One carry pass: propagates limb overflow, folding the top carry back into
/// limb 0 with weight 19 (since 2^255 ≡ 19 mod p).
void carry_pass(std::uint64_t t[5]) {
  for (int i = 0; i < 4; ++i) {
    t[i + 1] += t[i] >> 51;
    t[i] &= kMask;
  }
  const std::uint64_t c = t[4] >> 51;
  t[4] &= kMask;
  t[0] += 19 * c;
}

/// a^(2^250 - 1) via the standard addition chain (249 squarings, 10
/// multiplies); a^11 is left in *a11 for fe_invert's tail.
Fe pow_2_250_1(const Fe& a, Fe* a11) {
  const Fe a2 = fe_sq(a);                         // a^2
  const Fe a9 = fe_mul(fe_sq_n(a2, 2), a);        // a^9
  *a11 = fe_mul(a9, a2);                          // a^11
  const Fe a31 = fe_mul(fe_sq(*a11), a9);         // a^(2^5 - 1)
  const Fe t10 = fe_mul(fe_sq_n(a31, 5), a31);    // a^(2^10 - 1)
  const Fe t20 = fe_mul(fe_sq_n(t10, 10), t10);   // a^(2^20 - 1)
  const Fe t40 = fe_mul(fe_sq_n(t20, 20), t20);   // a^(2^40 - 1)
  const Fe t50 = fe_mul(fe_sq_n(t40, 10), t10);   // a^(2^50 - 1)
  const Fe t100 = fe_mul(fe_sq_n(t50, 50), t50);  // a^(2^100 - 1)
  const Fe t200 = fe_mul(fe_sq_n(t100, 100), t100);  // a^(2^200 - 1)
  return fe_mul(fe_sq_n(t200, 50), t50);             // a^(2^250 - 1)
}
}  // namespace

Fe fe_sq_n(const Fe& a, int n) {
  // Out of line, so each run of squarings gets the registers to itself.
  assert(fe_detail::is_mul_input(a));
  std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  for (int i = 0; i < n; ++i) fe_detail::sq_inplace(a0, a1, a2, a3, a4);
  return Fe{{a0, a1, a2, a3, a4}};
}

Fe fe_invert(const Fe& a) {
  // p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11.
  Fe a11;
  const Fe t250 = pow_2_250_1(a, &a11);
  return fe_mul(fe_sq_n(t250, 5), a11);
}

void fe_batch_invert(Fe* out, const Fe* in, std::size_t n) {
  if (n == 0) return;
  // Prefix products: out[i] = in[0] * ... * in[i].
  out[0] = in[0];
  for (std::size_t i = 1; i < n; ++i) out[i] = fe_mul(out[i - 1], in[i]);
  // One inversion of the full product, then unwind.
  Fe acc = fe_invert(out[n - 1]);
  for (std::size_t i = n; i-- > 1;) {
    out[i] = fe_mul(acc, out[i - 1]);
    acc = fe_mul(acc, in[i]);
  }
  out[0] = acc;
}

Fe fe_pow_p58(const Fe& a) {
  // (p - 5) / 8 = 2^252 - 3 = (2^250 - 1) * 2^2 + 1: 251 squarings and 11
  // multiplies, versus ~127 multiplies for generic square-and-multiply.
  // Point decompression runs this once per decoded point, which makes it the
  // hottest exponentiation in signature verification.
  Fe a11;
  const Fe t250 = pow_2_250_1(a, &a11);
  return fe_mul(fe_sq_n(t250, 2), a);
}

void fe_tobytes(std::uint8_t out[32], const Fe& a) {
  std::uint64_t t[5];
  std::memcpy(t, a.v, sizeof(t));
  carry_pass(t);
  carry_pass(t);
  carry_pass(t);
  // Now the value V is in [0, 2^255) with limbs < 2^51. Conditionally
  // subtract p: V >= p  iff  V + 19 >= 2^255.
  std::uint64_t u[5];
  std::memcpy(u, t, sizeof(u));
  u[0] += 19;
  for (int i = 0; i < 4; ++i) {
    u[i + 1] += u[i] >> 51;
    u[i] &= kMask;
  }
  const bool ge_p = (u[4] >> 51) != 0;
  u[4] &= kMask;
  const std::uint64_t* r = ge_p ? u : t;  // u == V - p when ge_p

  // Pack 5x51-bit limbs into 32 little-endian bytes via a 128-bit accumulator
  // (51 unread bits of the previous limb can still be pending when the next
  // limb is shifted in, so 64 bits of accumulator would lose bits).
  std::memset(out, 0, 32);
  u128 acc = 0;
  int acc_bits = 0;
  int out_i = 0;
  for (int i = 0; i < 5; ++i) {
    acc |= static_cast<u128>(r[i]) << acc_bits;
    acc_bits += 51;
    while (acc_bits >= 8 && out_i < 32) {
      out[out_i++] = static_cast<std::uint8_t>(acc & 0xff);
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (out_i < 32) out[out_i] = static_cast<std::uint8_t>(acc & 0xff);
}

Fe fe_frombytes(const std::uint8_t in[32]) {
  auto load = [&](int byte, int shift, int bits) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      if (byte + i < 32) v |= static_cast<std::uint64_t>(in[byte + i]) << (8 * i);
    return (v >> shift) & ((bits == 64 ? ~0ull : ((1ull << bits) - 1)));
  };
  Fe r;
  r.v[0] = load(0, 0, 51);
  r.v[1] = load(6, 3, 51);
  r.v[2] = load(12, 6, 51);
  r.v[3] = load(19, 1, 51);
  r.v[4] = load(24, 12, 51);  // drops bit 255 automatically (51 bits from bit 204)
  return r;
}

bool fe_iszero(const Fe& a) {
  std::uint8_t b[32];
  fe_tobytes(b, a);
  std::uint8_t acc = 0;
  for (auto x : b) acc |= x;
  return acc == 0;
}

bool fe_isnegative(const Fe& a) {
  std::uint8_t b[32];
  fe_tobytes(b, a);
  return (b[0] & 1) != 0;
}

bool fe_equal(const Fe& a, const Fe& b) {
  std::uint8_t ba[32], bb[32];
  fe_tobytes(ba, a);
  fe_tobytes(bb, b);
  return std::memcmp(ba, bb, 32) == 0;
}

}  // namespace moonshot::crypto
