#include "crypto/ed25519.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "crypto/ed25519_fe.hpp"
#include "crypto/ed25519_group.hpp"
#include "crypto/ed25519_scalar.hpp"
#include "support/hex.hpp"
#include "support/prng.hpp"

namespace moonshot::crypto {
namespace {

Ed25519Seed seed_from_hex(const char* h) {
  return Ed25519Seed::from_view(*from_hex(h));
}

// --- Field arithmetic --------------------------------------------------------

TEST(Ed25519Field, AddSubIdentities) {
  const Fe a = fe_from_u64(12345);
  EXPECT_TRUE(fe_equal(fe_add(a, fe_zero()), a));
  EXPECT_TRUE(fe_iszero(fe_sub(a, a)));
  EXPECT_TRUE(fe_equal(fe_add(a, fe_neg(a)), fe_zero()));
}

TEST(Ed25519Field, MulCommutesAndDistributes) {
  Prng prng(31);
  for (int i = 0; i < 20; ++i) {
    const Fe a = fe_from_u64(prng.next_u64() >> 14);
    const Fe b = fe_from_u64(prng.next_u64() >> 14);
    const Fe c = fe_from_u64(prng.next_u64() >> 14);
    EXPECT_TRUE(fe_equal(fe_mul(a, b), fe_mul(b, a)));
    EXPECT_TRUE(fe_equal(fe_mul(a, fe_add(b, c)), fe_add(fe_mul(a, b), fe_mul(a, c))));
  }
}

TEST(Ed25519Field, InvertIsInverse) {
  Prng prng(32);
  for (int i = 0; i < 10; ++i) {
    const Fe a = fe_from_u64((prng.next_u64() >> 14) | 1);
    EXPECT_TRUE(fe_equal(fe_mul(a, fe_invert(a)), fe_one()));
  }
}

TEST(Ed25519Field, SqrtM1Squared) {
  // sqrt(-1)^2 == -1.
  EXPECT_TRUE(fe_equal(fe_sq(fe_sqrtm1), fe_neg(fe_one())));
}

TEST(Ed25519Field, ToFromBytesRoundTrip) {
  Prng prng(33);
  for (int i = 0; i < 20; ++i) {
    std::uint8_t in[32];
    for (auto& b : in) b = static_cast<std::uint8_t>(prng.next_u64());
    in[31] &= 0x7f;  // stay below 2^255
    const Fe f = fe_frombytes(in);
    std::uint8_t out[32];
    fe_tobytes(out, f);
    // Values < p round-trip exactly; values in [p, 2^255) reduce, so only
    // compare when clearly below p (top byte < 0x7f is sufficient).
    if (in[31] < 0x7f) {
      EXPECT_EQ(Bytes(in, in + 32), Bytes(out, out + 32));
    }
  }
}

TEST(Ed25519Field, CanonicalReductionOfP) {
  // Encoding of p itself must be zero.
  std::uint8_t p_bytes[32];
  std::memset(p_bytes, 0xff, 32);
  p_bytes[0] = 0xed;
  p_bytes[31] = 0x7f;
  const Fe f = fe_frombytes(p_bytes);
  EXPECT_TRUE(fe_iszero(f));
}

TEST(Ed25519Field, CurveConstantsMatchDefiningEquations) {
  // The constants are compile-time limbs; each is pinned by its defining
  // equation: sqrt(-1)^2 = -1, d * 121666 = -121665 and 2d = d + d.
  static_assert(fe_sqrtm1.v[0] != 0 && ge_d.v[0] != 0 && ge_2d.v[0] != 0);
  EXPECT_TRUE(fe_equal(fe_sq(fe_sqrtm1), fe_neg(fe_one())));
  EXPECT_TRUE(fe_equal(fe_mul(ge_d, fe_from_u64(121666)), fe_neg(fe_from_u64(121665))));
  EXPECT_TRUE(fe_equal(ge_2d, fe_add(ge_d, ge_d)));
  // Canonical limbs: each encodes and decodes to itself.
  for (const Fe& c : {fe_sqrtm1, ge_d, ge_2d}) {
    std::uint8_t b[32];
    fe_tobytes(b, c);
    EXPECT_EQ(0, std::memcmp(fe_frombytes(b).v, c.v, sizeof(c.v)));
  }
}

TEST(Ed25519Field, InvertTimesInputIsOneOn10kDraws) {
  Prng prng(34);
  int checked = 0;
  for (int i = 0; i < 10'000; ++i) {
    std::uint8_t b[32];
    for (int k = 0; k < 32; k += 8) {
      const std::uint64_t w = prng.next_u64();
      std::memcpy(b + k, &w, 8);
    }
    const Fe a = fe_frombytes(b);
    if (fe_iszero(a)) continue;
    ASSERT_TRUE(fe_equal(fe_mul(fe_invert(a), a), fe_one())) << "draw " << i;
    ++checked;
  }
  EXPECT_GT(checked, 9'990);
}

// --- Field kernel against a test-local reference -------------------------------
//
// The reference holds canonical values in four 64-bit words and multiplies by
// 512-bit schoolbook products folded with 2^256 ≡ 38 (mod p); it shares no
// code with the 5x51-bit kernel, so the two can only agree by being right.

using Ref = std::array<std::uint64_t, 4>;
using u128 = unsigned __int128;

constexpr Ref kRefP = {0xffffffffffffffedull, ~0ull, ~0ull, 0x7fffffffffffffffull};

Ref ref_canon(Ref a) {
  // a < 2^256 < 3p, so at most two subtractions.
  auto ge_p = [&] {
    for (int i = 3; i >= 0; --i)
      if (a[i] != kRefP[i]) return a[i] > kRefP[i];
    return true;
  };
  while (ge_p()) {
    std::uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
      const u128 d = static_cast<u128>(a[i]) - kRefP[i] - borrow;
      a[i] = static_cast<std::uint64_t>(d);
      borrow = static_cast<std::uint64_t>(d >> 64) & 1;
    }
  }
  return a;
}

/// Canonical value of the 512-bit little-endian integer w.
Ref ref_reduce(const std::uint64_t w[8]) {
  Ref r{};
  u128 c = 0;
  for (int i = 0; i < 4; ++i) {
    c += static_cast<u128>(w[i]) + static_cast<u128>(w[i + 4]) * 38;
    r[i] = static_cast<std::uint64_t>(c);
    c >>= 64;
  }
  // Fold what spilled past 2^256 (twice: the first fold can carry once more).
  for (int round = 0; round < 2; ++round) {
    u128 f = c * 38;
    for (int i = 0; i < 4; ++i) {
      f += r[i];
      r[i] = static_cast<std::uint64_t>(f);
      f >>= 64;
    }
    c = f;
  }
  return ref_canon(r);
}

Ref ref_mul(const Ref& a, const Ref& b) {
  std::uint64_t w[8] = {0};
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 t = static_cast<u128>(a[i]) * b[j] + w[i + j] + carry;
      w[i + j] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    w[i + 4] = carry;
  }
  return ref_reduce(w);
}

/// Canonical value of any limb vector: sum v[i] * 2^(51 i) mod p.
Ref ref_of(const Fe& f) {
  std::uint64_t w[8] = {0};
  for (int i = 0; i < 5; ++i) {
    const int bit = 51 * i;
    const u128 shifted = static_cast<u128>(f.v[i]) << (bit % 64);
    u128 c = 0;
    for (int k = bit / 64, part = 0; k < 8; ++k, ++part) {
      c += w[k];
      if (part == 0) c += static_cast<std::uint64_t>(shifted);
      if (part == 1) c += static_cast<std::uint64_t>(shifted >> 64);
      w[k] = static_cast<std::uint64_t>(c);
      c >>= 64;
    }
  }
  return ref_reduce(w);
}

Ref ref_sq_n(Ref a, int n) {
  for (int k = 0; k < n; ++k) a = ref_mul(a, a);
  return a;
}

/// base^e by plain square-and-multiply, e as four little-endian words.
Ref ref_pow(const Ref& base, const Ref& e) {
  Ref r = {1, 0, 0, 0};
  for (int bit = 255; bit >= 0; --bit) {
    r = ref_mul(r, r);
    if ((e[bit / 64] >> (bit % 64)) & 1) r = ref_mul(r, base);
  }
  return r;
}

Ref ref_bytes_of(const Fe& f) {
  std::uint8_t b[32];
  fe_tobytes(b, f);
  Ref r{};
  std::memcpy(r.data(), b, 32);
  return r;
}

/// The largest limb a reduced element may carry (ed25519_fe.hpp).
constexpr std::uint64_t kReducedMax = (1ull << 51) + (1ull << 18) - 1;

/// A reduced element with random limbs anywhere in the documented bound, so
/// draws cover both non-canonical limbs and values in [p, 2^255 + ...).
Fe random_reduced(Prng& prng) {
  Fe f;
  for (auto& x : f.v) x = prng.next_u64() % (kReducedMax + 1);
  return f;
}

TEST(Ed25519FieldKernel, MulSqSqnInvertMatchReference) {
  Prng prng(35);
  const Ref p_minus_2 = {0xffffffffffffffebull, ~0ull, ~0ull, 0x7fffffffffffffffull};
  const Ref p_minus_5_over_8 = {0xfffffffffffffffdull, ~0ull, ~0ull, 0x0fffffffffffffffull};
  for (int i = 0; i < 400; ++i) {
    const Fe a = random_reduced(prng);
    const Fe b = random_reduced(prng);
    const Ref ra = ref_of(a), rb = ref_of(b);
    ASSERT_EQ(ref_bytes_of(fe_mul(a, b)), ref_mul(ra, rb)) << "mul, draw " << i;
    ASSERT_EQ(ref_bytes_of(fe_sq(a)), ref_mul(ra, ra)) << "sq, draw " << i;
    ASSERT_TRUE(fe_equal(fe_sq(a), fe_mul(a, a))) << "sq vs mul, draw " << i;
    const int n = static_cast<int>(prng.next_u64() % 24);
    ASSERT_EQ(ref_bytes_of(fe_sq_n(a, n)), ref_sq_n(ra, n)) << "sq_n(" << n << "), draw " << i;
    if (i % 8 == 0) {
      ASSERT_EQ(ref_bytes_of(fe_invert(a)), ref_pow(ra, p_minus_2)) << "invert, draw " << i;
      ASSERT_EQ(ref_bytes_of(fe_pow_p58(a)), ref_pow(ra, p_minus_5_over_8))
          << "pow_p58, draw " << i;
    }
  }
  EXPECT_EQ(ref_bytes_of(fe_invert(fe_zero())), (Ref{0, 0, 0, 0}));  // 0 maps to 0
}

TEST(Ed25519FieldKernel, LargestLazyInputsMatchReference) {
  // Feed mul/sq the largest inputs the limb bounds allow: chains of add/sub
  // with no carry between them, built from reduced elements at the top of
  // their range (every limb kReducedMax) and from random ones.
  Prng prng(36);
  Fe top;
  for (auto& x : top.v) x = kReducedMax;
  for (int i = 0; i < 200; ++i) {
    const Fe r[3] = {i == 0 ? top : random_reduced(prng), i == 0 ? top : random_reduced(prng),
                     i == 0 ? top : random_reduced(prng)};
    const Fe sum3 = fe_add(fe_add(r[0], r[1]), r[2]);  // largest subtrahend
    Fe sum7 = sum3;
    for (int k = 0; k < 4; ++k) sum7 = fe_add(sum7, i == 0 ? top : random_reduced(prng));
    const Fe big_sub = fe_sub(sum3, fe_zero());  // a + 4p - 0: the largest difference
    const Fe sub_of_sum = fe_sub(sum3, sum3);    // subtrahend at its own bound
    const Fe neg_sum = fe_neg(sum3);
    const Fe neg_top = fe_neg(fe_zero());        // 4p itself
    const Fe sub_neg = fe_sub(r[0], neg_top);    // an fe_neg result as subtrahend
    const Fe inputs[] = {sum3, sum7, big_sub, sub_of_sum, neg_sum, neg_top, sub_neg};
    for (const Fe& in : inputs) ASSERT_TRUE(fe_detail::is_mul_input(in));
    ASSERT_TRUE(fe_detail::is_subtrahend(sum3) && fe_detail::is_subtrahend(neg_sum));
    // The reference reads each lazy value limb by limb, so it checks the
    // add/sub results as well as the products.
    for (const Fe& x : inputs) {
      const Ref rx = ref_of(x);
      ASSERT_EQ(ref_bytes_of(x), rx) << "draw " << i;
      ASSERT_EQ(ref_bytes_of(fe_carry(x)), rx) << "draw " << i;
      ASSERT_EQ(ref_bytes_of(fe_sq(x)), ref_mul(rx, rx)) << "draw " << i;
      ASSERT_EQ(ref_bytes_of(fe_sq_n(x, 3)), ref_sq_n(rx, 3)) << "draw " << i;
      for (const Fe& y : inputs)
        ASSERT_EQ(ref_bytes_of(fe_mul(x, y)), ref_mul(rx, ref_of(y))) << "draw " << i;
    }
  }
}

// --- Group arithmetic --------------------------------------------------------

TEST(Ed25519Group, BasepointOnCurve) {
  // -x^2 + y^2 == 1 + d x^2 y^2 for the base point.
  const GePoint& B = ge_basepoint();
  const Fe zinv = fe_invert(B.Z);
  const Fe x = fe_mul(B.X, zinv);
  const Fe y = fe_mul(B.Y, zinv);
  const Fe x2 = fe_sq(x), y2 = fe_sq(y);
  const Fe lhs = fe_sub(y2, x2);
  const Fe rhs = fe_add(fe_one(), fe_mul(ge_d, fe_mul(x2, y2)));
  EXPECT_TRUE(fe_equal(lhs, rhs));
}

TEST(Ed25519Group, DoubleMatchesAdd) {
  const GePoint& B = ge_basepoint();
  EXPECT_TRUE(ge_equal(ge_double(B), ge_add(B, B)));
  const GePoint B2 = ge_double(B);
  EXPECT_TRUE(ge_equal(ge_double(B2), ge_add(B2, B2)));
}

TEST(Ed25519Group, IdentityLaws) {
  const GePoint& B = ge_basepoint();
  EXPECT_TRUE(ge_equal(ge_add(B, ge_identity()), B));
  EXPECT_TRUE(ge_is_identity(ge_add(B, ge_neg(B))));
}

TEST(Ed25519Group, ScalarMultDistributes) {
  // (a+b)*B == a*B + b*B for small scalars.
  std::uint8_t a[32] = {0}, b[32] = {0}, ab[32] = {0};
  a[0] = 77;
  b[0] = 55;
  ab[0] = 132;
  const GePoint lhs = ge_scalarmult_base(ab);
  const GePoint rhs = ge_add(ge_scalarmult_base(a), ge_scalarmult_base(b));
  EXPECT_TRUE(ge_equal(lhs, rhs));
}

TEST(Ed25519Group, CompressDecompressRoundTrip) {
  std::uint8_t n[32] = {0};
  for (std::uint8_t k : {1, 2, 3, 9, 200}) {
    n[0] = k;
    const GePoint p = ge_scalarmult_base(n);
    std::uint8_t enc[32];
    ge_tobytes(enc, p);
    const auto q = ge_frombytes(enc);
    ASSERT_TRUE(q.has_value());
    EXPECT_TRUE(ge_equal(p, *q));
  }
}

TEST(Ed25519Group, RejectsNonCurvePoint) {
  // y = 2 gives x^2 = (y^2-1)/(dy^2+1); brute-check this y is invalid.
  std::uint8_t enc[32] = {0};
  enc[0] = 0x06;  // small y unlikely on curve
  int rejected = 0;
  for (int i = 0; i < 8; ++i) {
    enc[0] = static_cast<std::uint8_t>(4 + i);
    if (!ge_frombytes(enc).has_value()) ++rejected;
  }
  EXPECT_GT(rejected, 0);  // at least some are off-curve (QR density ~1/2)
}

// --- Scalar arithmetic ---------------------------------------------------------

TEST(Ed25519Scalar, ReduceSmallIsIdentity) {
  std::uint8_t in[64] = {0};
  in[0] = 42;
  std::uint8_t out[32];
  sc_reduce512(out, in);
  EXPECT_EQ(out[0], 42);
  for (int i = 1; i < 32; ++i) EXPECT_EQ(out[i], 0);
}

TEST(Ed25519Scalar, ReduceLIsZero) {
  // L reduces to 0.
  std::uint8_t in[64] = {0};
  const auto l = *from_hex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::memcpy(in, l.data(), 32);
  std::uint8_t out[32];
  sc_reduce512(out, in);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], 0) << i;
}

TEST(Ed25519Scalar, MulAddSmall) {
  // 3*4+5 = 17 mod L.
  std::uint8_t a[32] = {3}, b[32] = {4}, c[32] = {5}, out[32];
  sc_muladd(out, a, b, c);
  EXPECT_EQ(out[0], 17);
  for (int i = 1; i < 32; ++i) EXPECT_EQ(out[i], 0);
}

TEST(Ed25519Scalar, CanonicalCheck) {
  std::uint8_t s[32] = {0};
  EXPECT_TRUE(sc_is_canonical(s));  // zero < L
  const auto l = *from_hex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::memcpy(s, l.data(), 32);
  EXPECT_FALSE(sc_is_canonical(s));  // L itself is non-canonical
  s[0] -= 1;                          // L - 1
  EXPECT_TRUE(sc_is_canonical(s));
}

// --- RFC 8032 test vectors ------------------------------------------------------

TEST(Ed25519, Rfc8032Test1) {
  const auto seed =
      seed_from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(to_hex(pub.view()),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  const auto sig = ed25519_sign(seed, {});
  EXPECT_EQ(to_hex(sig.view()),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(ed25519_verify(pub, {}, sig));
}

TEST(Ed25519, Rfc8032Test2) {
  const auto seed =
      seed_from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(to_hex(pub.view()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  const Bytes msg{0x72};
  const auto sig = ed25519_sign(seed, msg);
  EXPECT_EQ(to_hex(sig.view()),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(ed25519_verify(pub, msg, sig));
}

TEST(Ed25519, Rfc8032Test3) {
  const auto seed =
      seed_from_hex("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(to_hex(pub.view()),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025");
  const Bytes msg{0xaf, 0x82};
  const auto sig = ed25519_sign(seed, msg);
  EXPECT_EQ(to_hex(sig.view()),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a");
  EXPECT_TRUE(ed25519_verify(pub, msg, sig));
}

TEST(Ed25519Scalar, FromSparseMatchesReference) {
  // sc_from_sparse(±2^p terms) must equal the same sum computed with
  // sc_muladd over the dense encodings of 2^p.
  Prng prng(91);
  for (int trial = 0; trial < 50; ++trial) {
    std::uint16_t pos[16];
    signed char sign[16];
    std::uint8_t acc[32] = {0};  // running dense sum mod L
    const std::uint8_t one[32] = {1};
    for (int i = 0; i < 16; ++i) {
      pos[i] = static_cast<std::uint16_t>(prng.next_below(128));
      sign[i] = (prng.next_u64() & 1) ? 1 : -1;
      std::uint8_t pw[32] = {0};
      pw[pos[i] / 8] = static_cast<std::uint8_t>(1u << (pos[i] % 8));
      if (sign[i] < 0) {
        // acc += (L - 2^p)  ==  acc - 2^p (mod L): L-1 * 2^p + ... easier:
        // negate via sc_muladd(out, pw, L-1, acc) since -1 ≡ L-1 (mod L).
        const auto lm1 =
            *from_hex("ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
        sc_muladd(acc, pw, lm1.data(), acc);
      } else {
        sc_muladd(acc, pw, one, acc);
      }
    }
    std::uint8_t got[32];
    sc_from_sparse(got, pos, sign, 16);
    EXPECT_EQ(Bytes(got, got + 32), Bytes(acc, acc + 32)) << "trial " << trial;
  }
}

TEST(Ed25519Scalar, FromSparseEdges) {
  std::uint8_t out[32];
  sc_from_sparse(out, nullptr, nullptr, 0);  // empty sum = 0
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], 0);

  // Single negative term: -2^0 ≡ L - 1.
  const std::uint16_t p0 = 0;
  const signed char neg = -1;
  sc_from_sparse(out, &p0, &neg, 1);
  EXPECT_EQ(to_hex(BytesView(out, 32)),
            "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");

  // +2^p and -2^p cancel.
  const std::uint16_t pp[2] = {100, 100};
  const signed char ss[2] = {1, -1};
  sc_from_sparse(out, pp, ss, 2);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], 0);
}

// --- Behavioural properties -------------------------------------------------------

TEST(Ed25519, SignVerifyRoundTrip) {
  Prng prng(77);
  for (int i = 0; i < 5; ++i) {
    Ed25519Seed seed;
    Bytes sb(32);
    prng.fill(sb);
    seed = Ed25519Seed::from_view(sb);
    Bytes msg(1 + prng.next_below(100));
    prng.fill(msg);
    const auto pub = ed25519_public_key(seed);
    const auto sig = ed25519_sign(seed, msg);
    EXPECT_TRUE(ed25519_verify(pub, msg, sig));
  }
}

TEST(Ed25519, RejectsTamperedSignature) {
  const auto seed =
      seed_from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto pub = ed25519_public_key(seed);
  const Bytes msg = to_bytes("moonshot");
  const auto sig = ed25519_sign(seed, msg);
  for (std::size_t i : {0u, 31u, 32u, 63u}) {
    auto bad = sig;
    bad.data[i] ^= 0x01;
    EXPECT_FALSE(ed25519_verify(pub, msg, bad)) << "byte " << i;
  }
}

TEST(Ed25519, RejectsWrongMessage) {
  const auto seed =
      seed_from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto pub = ed25519_public_key(seed);
  const auto sig = ed25519_sign(seed, to_bytes("message-a"));
  EXPECT_FALSE(ed25519_verify(pub, to_bytes("message-b"), sig));
}

TEST(Ed25519, RejectsWrongKey) {
  const auto seed1 =
      seed_from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto seed2 =
      seed_from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  const auto sig = ed25519_sign(seed1, to_bytes("msg"));
  EXPECT_FALSE(ed25519_verify(ed25519_public_key(seed2), to_bytes("msg"), sig));
}

TEST(Ed25519, RejectsNonCanonicalS) {
  const auto seed =
      seed_from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const auto pub = ed25519_public_key(seed);
  auto sig = ed25519_sign(seed, {});
  // Force S >= L by setting its top byte to 0xff.
  sig.data[63] = 0xff;
  EXPECT_FALSE(ed25519_verify(pub, {}, sig));
}

}  // namespace
}  // namespace moonshot::crypto
