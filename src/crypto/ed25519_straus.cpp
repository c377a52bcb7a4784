#include "crypto/ed25519_straus.hpp"

#include <cstring>

namespace moonshot::crypto {

namespace {

// ---------------------------------------------------------------------------
// wNAF recoding
// ---------------------------------------------------------------------------

// 320-bit scratch integer, little-endian 64-bit limbs. The recoding loop
// needs add/sub of a small digit and right shifts; 5 limbs give headroom for
// the carry past bit 255.
struct Scratch {
  std::uint64_t v[5];
};

bool scratch_is_zero(const Scratch& k) {
  return (k.v[0] | k.v[1] | k.v[2] | k.v[3] | k.v[4]) == 0;
}

void scratch_add_small(Scratch& k, std::uint64_t d) {
  for (int i = 0; i < 5 && d; ++i) {
    const std::uint64_t prev = k.v[i];
    k.v[i] += d;
    d = (k.v[i] < prev) ? 1 : 0;
  }
}

void scratch_sub_small(Scratch& k, std::uint64_t d) {
  for (int i = 0; i < 5 && d; ++i) {
    const std::uint64_t prev = k.v[i];
    k.v[i] -= d;
    d = (k.v[i] > prev) ? 1 : 0;
  }
}

/// Right shift by s bits, 1 <= s <= 64.
void scratch_shr(Scratch& k, int s) {
  if (s == 64) {
    for (int i = 0; i < 4; ++i) k.v[i] = k.v[i + 1];
    k.v[4] = 0;
    return;
  }
  for (int i = 0; i < 4; ++i) k.v[i] = (k.v[i] >> s) | (k.v[i + 1] << (64 - s));
  k.v[4] >>= s;
}

// ---------------------------------------------------------------------------
// Static base-point tables
// ---------------------------------------------------------------------------

// Fixed-base comb: 64 radix-16 nibble columns. comb[j][i-1] = i * 16^j * B
// for i in 1..15, so n*B is at most 64 mixed additions and zero doublings.
constexpr int kCombCols = 64;
constexpr int kCombMults = 15;

// Odd multiples of B and of 2^128*B for the Straus loop's base-point term
// (the base scalar is split in half; see sc_split128). Width 8 is the widest
// sc_wnaf supports: 64 entries, nonzero digits every >= 8 bits.
constexpr int kBaseWnafWidth = 8;
constexpr int kBaseOdd = 1 << (kBaseWnafWidth - 2);

struct BaseTables {
  GePrecomp comb[kCombCols][kCombMults];
  GePrecomp odd[kBaseOdd];       // (2i+1) * B
  GePrecomp odd_hi[kBaseOdd];    // (2i+1) * 2^128 * B
};

/// Brings every point to Z = 1 with one fe_invert (Montgomery batch) and
/// arranges it for mixed addition.
std::vector<GePrecomp> to_precomp(const std::vector<GePoint>& pts) {
  const std::size_t n = pts.size();
  std::vector<Fe> zs(n), zinvs(n);
  for (std::size_t i = 0; i < n; ++i) zs[i] = pts[i].Z;
  fe_batch_invert(zinvs.data(), zs.data(), n);
  std::vector<GePrecomp> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Fe x = fe_mul(pts[i].X, zinvs[i]);
    const Fe y = fe_mul(pts[i].Y, zinvs[i]);
    out[i] = GePrecomp{fe_add(y, x), fe_sub(y, x), fe_mul(fe_mul(x, y), ge_2d)};
  }
  return out;
}

const BaseTables& base_tables() {
  static const BaseTables cached = [] {
    // Build every table point in extended coordinates first, then normalise
    // them all with a single fe_invert.
    std::vector<GePoint> pts;
    pts.reserve(kCombCols * kCombMults + 2 * kBaseOdd);

    GePoint base_hi = ge_identity();  // becomes 2^128 * B (the j == 32 column)
    GePoint col = ge_basepoint();     // 16^j * B
    for (int j = 0; j < kCombCols; ++j) {
      if (j == 32) base_hi = col;
      GePoint cur = col;  // i * 16^j * B
      for (int i = 0; i < kCombMults; ++i) {
        pts.push_back(cur);
        if (i + 1 < kCombMults) cur = ge_add(cur, col);
      }
      if (j + 1 < kCombCols) {
        for (int k = 0; k < 4; ++k) col = ge_double(col);
      }
    }

    for (const GePoint& base : {ge_basepoint(), base_hi}) {
      const GePoint b2 = ge_double(base);
      GePoint cur = base;  // (2i+1) * base
      for (int i = 0; i < kBaseOdd; ++i) {
        pts.push_back(cur);
        if (i + 1 < kBaseOdd) cur = ge_add(cur, b2);
      }
    }

    const std::vector<GePrecomp> pre = to_precomp(pts);
    BaseTables bt;
    std::size_t at = 0;
    for (int j = 0; j < kCombCols; ++j)
      for (int i = 0; i < kCombMults; ++i) bt.comb[j][i] = pre[at++];
    for (int i = 0; i < kBaseOdd; ++i) bt.odd[i] = pre[at++];
    for (int i = 0; i < kBaseOdd; ++i) bt.odd_hi[i] = pre[at++];
    return bt;
  }();
  return cached;
}

// Nonzero wNAF digits are at least 2 apart, so a 258-digit recoding has at
// most 130 of them.
constexpr int kMaxSparseDigits = kWnafDigits / 2 + 1;

/// Sparse wNAF: emits only the nonzero digits as (position, digit) pairs,
/// positions strictly increasing. Returns the pair count. This is the native
/// output shape of the recoder — the dense form in sc_wnaf is a scatter of it.
int wnaf_sparse(std::uint16_t pos[kMaxSparseDigits], signed char dig[kMaxSparseDigits],
                const std::uint8_t s_le[32], int width) {
  Scratch k{};
  for (int i = 0; i < 4; ++i) {
    std::uint64_t limb = 0;
    for (int b = 0; b < 8; ++b)
      limb |= static_cast<std::uint64_t>(s_le[8 * i + b]) << (8 * b);
    k.v[i] = limb;
  }
  k.v[4] = 0;

  const std::int64_t half = std::int64_t{1} << (width - 1);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  int i = 0;
  int n = 0;
  while (!scratch_is_zero(k)) {
    if (k.v[0] & 1) {
      // Centered odd digit in (-2^(w-1), 2^(w-1)); subtracting it zeroes the
      // low `width` bits, so the next w-1 digits are guaranteed zero — skip
      // straight past them.
      std::int64_t d = static_cast<std::int64_t>(k.v[0] & mask);
      if (d >= half) d -= half << 1;
      pos[n] = static_cast<std::uint16_t>(i);
      dig[n] = static_cast<signed char>(d);
      ++n;
      if (d > 0)
        scratch_sub_small(k, static_cast<std::uint64_t>(d));
      else
        scratch_add_small(k, static_cast<std::uint64_t>(-d));
      scratch_shr(k, width);
      i += width;
    } else {
      // Jump over the whole run of zero bits in one shift.
      const int tz = k.v[0] ? __builtin_ctzll(k.v[0]) : 64;
      scratch_shr(k, tz);
      i += tz;
    }
  }
  return n;
}

}  // namespace

void sc_wnaf(signed char out[kWnafDigits], const std::uint8_t s_le[32], int width) {
  std::memset(out, 0, kWnafDigits);
  std::uint16_t pos[kMaxSparseDigits];
  signed char dig[kMaxSparseDigits];
  const int n = wnaf_sparse(pos, dig, s_le, width);
  for (int i = 0; i < n; ++i) out[pos[i]] = dig[i];
}

void sc_split128(std::uint8_t lo[32], std::uint8_t hi[32], const std::uint8_t s_le[32]) {
  // 2^128 is byte-aligned, so the split is two copies.
  std::memcpy(lo, s_le, 16);
  std::memset(lo + 16, 0, 16);
  std::memcpy(hi, s_le + 16, 16);
  std::memset(hi + 16, 0, 16);
}

GeWnafTable ge_wnaf_table(const GePoint& p, int width) {
  std::vector<GePoint> pts(std::size_t{1} << (width - 2));
  pts[0] = p;
  const GePoint p2 = ge_double(p);
  for (std::size_t i = 1; i < pts.size(); ++i) pts[i] = ge_add(pts[i - 1], p2);
  return GeWnafTable{width, to_precomp(pts)};
}

GePoint ge_multi_scalarmult_vartime(const std::vector<GeMultiTerm>& terms,
                                    const std::uint8_t* base_scalar_le) {
  const std::size_t n = terms.size();

  // Recode every scalar sparsely and bucket the nonzero digits by bit level
  // (counting sort). The main loop then touches exactly the digits that exist
  // instead of scanning all terms at every level — for batch verification
  // (hundreds of terms, ~1 digit per `width` levels each) the dense scan
  // would dominate the curve arithmetic it schedules. Terms `n` and `n + 1`
  // are the two halves of the base scalar, split at 2^128 so a full-length
  // base scalar never lengthens the doubling chain.
  struct Hit {
    std::uint16_t level = 0;
    std::uint16_t term = 0;
    signed char digit = 0;
  };
  std::vector<Hit> hits;
  hits.reserve(40 * (n + 2));
  std::uint16_t pos[kMaxSparseDigits];
  signed char dig[kMaxSparseDigits];
  int top = -1;
  auto emit = [&](const std::uint16_t* p, const signed char* d, int cnt, std::size_t term) {
    for (int i = 0; i < cnt; ++i) {
      hits.push_back(Hit{p[i], static_cast<std::uint16_t>(term), d[i]});
      if (p[i] > top) top = p[i];
    }
  };
  auto recode = [&](const std::uint8_t* s, int width, std::size_t term) {
    emit(pos, dig, wnaf_sparse(pos, dig, s, width), term);
  };
  for (std::size_t t = 0; t < n; ++t) {
    if (terms[t].scalar)
      recode(terms[t].scalar, terms[t].table->width, t);
    else
      emit(terms[t].pos, terms[t].dig, terms[t].count, t);
  }
  if (base_scalar_le) {
    std::uint8_t lo[32], hi[32];
    sc_split128(lo, hi, base_scalar_le);
    recode(lo, kBaseWnafWidth, n);
    recode(hi, kBaseWnafWidth, n + 1);
  }

  // off[i] .. off[i+1] indexes sorted hits at level i. The sort is stable, so
  // within a level additions run in term order (then base lo, base hi).
  std::uint32_t off[kWnafDigits + 1] = {0};
  for (const Hit& h : hits) ++off[h.level + 1];
  for (int i = 0; i < kWnafDigits; ++i) off[i + 1] += off[i];
  std::vector<Hit> sorted(hits.size());
  {
    std::uint32_t cursor[kWnafDigits];
    std::memcpy(cursor, off, sizeof(cursor));
    for (const Hit& h : hits) sorted[cursor[h.level]++] = h;
  }

  // Every term's odd multiples, affine, indexed by term (then base lo, hi).
  const BaseTables& bt = base_tables();
  std::vector<const GePrecomp*> odd(n + 2);
  for (std::size_t t = 0; t < n; ++t)
    odd[t] = terms[t].affine ? terms[t].affine : terms[t].table->odd.data();
  odd[n] = bt.odd;
  odd[n + 1] = bt.odd_hi;

  GePoint r = ge_identity();
  for (int i = top; i >= 0; --i) {
    const std::uint32_t b = off[i], e = off[i + 1];
    // T feeds only the addition formulas, so it is computed just for the
    // doubling directly preceding an addition.
    r = ge_double_partial(r, e > b);
    for (std::uint32_t k = b; k < e; ++k) {
      const Hit& h = sorted[k];
      const int d = h.digit;
      const GePrecomp& pc = odd[h.term][static_cast<std::size_t>(d < 0 ? -d : d) >> 1];
      r = d > 0 ? ge_madd(r, pc) : ge_msub(r, pc);
    }
  }
  return r;
}

GePoint ge_scalarmult_base(const std::uint8_t n_le[32]) {
  // Comb evaluation: one mixed addition per nonzero nibble, no doublings.
  // Covers the full 256 bits, so unreduced (e.g. clamped) scalars work.
  const BaseTables& t = base_tables();
  GePoint r = ge_identity();
  for (int j = 0; j < kCombCols; ++j) {
    const unsigned d = (n_le[j >> 1] >> ((j & 1) * 4)) & 0xf;
    if (d) r = ge_madd(r, t.comb[j][d - 1]);
  }
  return r;
}

}  // namespace moonshot::crypto
