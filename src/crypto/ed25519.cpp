#include "crypto/ed25519.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "crypto/ed25519_group.hpp"
#include "crypto/ed25519_scalar.hpp"
#include "crypto/ed25519_straus.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "support/prng.hpp"

namespace moonshot::crypto {

namespace {

struct ExpandedKey {
  std::uint8_t scalar[32];  // clamped secret scalar s
  std::uint8_t prefix[32];  // nonce-derivation prefix
};

ExpandedKey expand(const Ed25519Seed& seed) {
  const auto h = sha512(seed.view());
  ExpandedKey k;
  std::memcpy(k.scalar, h.data.data(), 32);
  std::memcpy(k.prefix, h.data.data() + 32, 32);
  // Clamp per RFC 8032 §5.1.5.
  k.scalar[0] &= 0xf8;
  k.scalar[31] &= 0x7f;
  k.scalar[31] |= 0x40;
  return k;
}

/// Decoded public key plus wNAF odd-multiple tables for A and 2^128*A.
/// Validator keys recur on every vote/cert verification, so the
/// decompression (a square root) and the table builds are paid once per key,
/// not per signature. The second table lets challenge scalars be split at
/// 2^128 (sc_split128), halving the doubling chain of every verification.
struct KeyCtx {
  GeWnafTable lo;  // width-8 odd multiples of A
  GeWnafTable hi;  // width-8 odd multiples of 2^128 * A
};

// 15 KiB of tables per key; the cap bounds the cache at ~15 MiB while still
// covering far more validators than any simulated committee. The cache is
// sharded 16 ways so concurrent worlds verifying under different keys don't
// serialise on one mutex; each shard carries its slice of the cap.
constexpr std::size_t kCacheShards = 16;
constexpr std::size_t kMaxCachedKeysPerShard = 1024 / kCacheShards;

struct KeyCtxShard {
  std::mutex mu;
  std::unordered_map<Ed25519PublicKey, std::shared_ptr<const KeyCtx>> map;
};

KeyCtxShard& key_ctx_shard(const Ed25519PublicKey& pub) {
  static auto& shards = *new std::array<KeyCtxShard, kCacheShards>();
  // Key bytes are a curve-point encoding — already well mixed, so a few
  // bytes folded together pick a shard uniformly.
  const std::size_t h = static_cast<std::size_t>(pub.data[0]) ^
                        (static_cast<std::size_t>(pub.data[7]) << 1) ^
                        (static_cast<std::size_t>(pub.data[19]) << 2);
  return shards[h % kCacheShards];
}

/// Shared, bounded, sharded cache. SignatureScheme promises
/// thread-compatibility for const methods, so the lookup must synchronise.
/// Returns nullptr iff the key is not a valid point encoding.
std::shared_ptr<const KeyCtx> key_ctx(const Ed25519PublicKey& pub) {
  KeyCtxShard& shard = key_ctx_shard(pub);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (auto it = shard.map.find(pub); it != shard.map.end()) return it->second;
  }
  const auto A = ge_frombytes(pub.data.data());
  if (!A) return nullptr;
  GePoint a_hi = *A;
  for (int i = 0; i < 128; ++i) a_hi = ge_double_partial(a_hi, i == 127);
  auto ctx = std::make_shared<KeyCtx>(KeyCtx{ge_wnaf_table(*A, 8), ge_wnaf_table(a_hi, 8)});
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.map.size() >= kMaxCachedKeysPerShard) shard.map.clear();
  return shard.map.try_emplace(pub, std::move(ctx)).first->second;
}

/// k = SHA512(R || A || M) mod L — the Schnorr challenge scalar.
void challenge_scalar(std::uint8_t out[32], const std::uint8_t r_enc[32],
                      const Ed25519PublicKey& pub, BytesView message) {
  Sha512 h;
  h.update(BytesView(r_enc, 32));
  h.update(pub.view());
  h.update(message);
  const auto digest = h.finish();
  sc_reduce512(out, digest.data.data());
}

}  // namespace

Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed) {
  const auto k = expand(seed);
  const GePoint A = ge_scalarmult_base(k.scalar);
  Ed25519PublicKey pub;
  ge_tobytes(pub.data.data(), A);
  return pub;
}

Ed25519Signature ed25519_sign(const Ed25519Seed& seed, BytesView message) {
  const auto k = expand(seed);
  const auto pub = ed25519_public_key(seed);

  // r = SHA512(prefix || M) mod L
  Sha512 h;
  h.update(BytesView(k.prefix, 32));
  h.update(message);
  const auto r_hash = h.finish();
  std::uint8_t r[32];
  sc_reduce512(r, r_hash.data.data());

  // R = r * B
  const GePoint R = ge_scalarmult_base(r);
  std::uint8_t r_enc[32];
  ge_tobytes(r_enc, R);

  // k = SHA512(R || A || M) mod L
  Sha512 h2;
  h2.update(BytesView(r_enc, 32));
  h2.update(pub.view());
  h2.update(message);
  const auto k_hash = h2.finish();
  std::uint8_t challenge[32];
  sc_reduce512(challenge, k_hash.data.data());

  // S = (r + k * s) mod L
  std::uint8_t s_enc[32];
  sc_muladd(s_enc, challenge, k.scalar, r);

  Ed25519Signature sig;
  std::memcpy(sig.data.data(), r_enc, 32);
  std::memcpy(sig.data.data() + 32, s_enc, 32);
  return sig;
}

bool ed25519_verify(const Ed25519PublicKey& pub, BytesView message,
                    const Ed25519Signature& sig) {
  const std::uint8_t* r_enc = sig.data.data();
  const std::uint8_t* s_enc = sig.data.data() + 32;

  if (!sc_is_canonical(s_enc)) return false;

  const auto ctx = key_ctx(pub);
  if (!ctx) return false;
  const auto R = ge_frombytes(r_enc);
  if (!R) return false;

  std::uint8_t challenge[32];
  challenge_scalar(challenge, r_enc, pub, message);

  // Accept iff S*B == R + k*A, i.e. (-k)*A + S*B == R, evaluated as one
  // interleaved Straus pass. Both scalars are split at 2^128 against the
  // cached (A, 2^128*A) tables and the static base tables, so the shared
  // doubling chain is ~128 deep instead of ~253.
  std::uint8_t k_neg[32], k_lo[32], k_hi[32];
  sc_neg(k_neg, challenge);
  sc_split128(k_lo, k_hi, k_neg);
  const GePoint lhs = ge_multi_scalarmult_vartime(
      {GeMultiTerm{&ctx->lo, k_lo}, GeMultiTerm{&ctx->hi, k_hi}}, s_enc);
  return ge_equal(lhs, *R);
}

bool ed25519_verify_batch(const std::vector<Ed25519BatchItem>& items,
                          std::vector<std::size_t>* bad) {
  if (items.empty()) return true;
  if (items.size() == 1) {
    const bool ok = ed25519_verify(*items[0].pub, items[0].message, *items[0].sig);
    if (!ok && bad) bad->push_back(0);
    return ok;
  }

  // Pass 1: per-item decode. Items that fail a structural check (non-canonical
  // S, bad A or R encoding) are rejected immediately — they would fail single
  // verification for the same reason — and excluded from the batch equation.
  // Coefficients are sparse: z_i = sum of kZWeight signed powers of two with
  // distinct exponents below kZBits. That makes the z_i R_i term exactly
  // kZWeight mixed additions of R_i itself — no per-signature table build and
  // no recoding — while the coefficient set still has ~2^90 elements
  // (C(128,16) * 2^16), so an invalid signature survives the random linear
  // combination with probability ~2^-86 (the defect's order divides 8L, which
  // costs at most a factor 8 over 1/|set|).
  constexpr int kZWeight = 16;
  constexpr int kZBits = 128;
  struct Prepared {
    std::size_t idx = 0;
    std::shared_ptr<const KeyCtx> ctx;
    GePrecomp r_aff;               // R in mixed-addition form (decode gives Z=1)
    std::uint16_t zpos[kZWeight];  // sparse coefficient: signed bits of z
    signed char zdig[kZWeight];    // each +1 or -1
    std::uint8_t h[32];            // challenge scalar
    std::uint8_t z[32];            // the coefficient as a scalar mod L
    std::uint8_t zh_lo[32];        // z * h mod L, split at 2^128
    std::uint8_t zh_hi[32];
  };
  std::vector<Prepared> prep;
  prep.reserve(items.size());
  bool all_ok = true;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& item = items[i];
    const std::uint8_t* r_enc = item.sig->data.data();
    const std::uint8_t* s_enc = item.sig->data.data() + 32;
    auto reject = [&] {
      all_ok = false;
      if (bad) bad->push_back(i);
    };
    if (!sc_is_canonical(s_enc)) {
      reject();
      continue;
    }
    auto ctx = key_ctx(*item.pub);
    if (!ctx) {
      reject();
      continue;
    }
    const auto R = ge_frombytes(r_enc);
    if (!R) {
      reject();
      continue;
    }
    Prepared p;
    p.idx = i;
    p.ctx = std::move(ctx);
    challenge_scalar(p.h, r_enc, *item.pub, item.message);
    p.r_aff = GePrecomp{fe_add(R->Y, R->X), fe_sub(R->Y, R->X), fe_mul(R->T, ge_2d)};
    prep.push_back(std::move(p));
  }
  if (prep.empty()) return all_ok;

  // Coefficients come from the seeded PRNG, keyed by a transcript hash of the
  // whole batch. Deterministic inputs give deterministic coefficients,
  // preserving run-for-run reproducibility of the simulator. Distinct powers
  // of two cannot cancel, so z_i != 0 (mod L) holds structurally.
  // Per item the transcript absorbs S and h: h = H(R, A, M) already binds the
  // key, nonce point, and message, and S must be absorbed so coefficients
  // cannot be predicted before the whole signature is fixed (otherwise a
  // forger could solve sum z_i S_i for one free S_i after seeing the z's).
  Sha256 transcript;
  transcript.update(to_bytes("moonshot-batch-verify"));
  for (const auto& p : prep) {
    const auto& item = items[p.idx];
    transcript.update(BytesView(item.sig->data.data() + 32, 32));
    transcript.update(BytesView(p.h, 32));
  }
  const auto tr = transcript.finish();
  std::uint64_t seed = 0;
  for (int b = 0; b < 8; ++b) seed |= static_cast<std::uint64_t>(tr.data[b]) << (8 * b);
  Prng prng(seed);
  Bytes rb(2);
  for (auto& p : prep) {
    std::uint64_t used[2] = {0, 0};
    for (int got = 0; got < kZWeight;) {
      prng.fill(rb);  // one byte of position, one bit of sign
      const int bit = rb[0] & (kZBits - 1);
      if (used[bit >> 6] & (std::uint64_t{1} << (bit & 63))) continue;
      used[bit >> 6] |= std::uint64_t{1} << (bit & 63);
      p.zpos[got] = static_cast<std::uint16_t>(bit);
      p.zdig[got] = (rb[1] & 1) ? 1 : -1;
      ++got;
    }
    sc_from_sparse(p.z, p.zpos, p.zdig, kZWeight);
    std::uint8_t zh[32];
    sc_mul(zh, p.z, p.h);
    sc_split128(p.zh_lo, p.zh_hi, zh);
  }

  // Batch equation: (-sum z_i S_i) B + sum z_i R_i + sum (z_i h_i) A_i == 0.
  // Each valid signature satisfies S_i B = R_i + h_i A_i exactly (single
  // verification is cofactorless), so the weighted sum collapses to the
  // identity; an invalid one survives with probability ~2^-128 over z.
  std::uint8_t s_acc[32] = {0};
  for (const auto& p : prep)
    sc_muladd(s_acc, p.z, items[p.idx].sig->data.data() + 32, s_acc);
  std::uint8_t s_neg[32];
  sc_neg(s_neg, s_acc);

  std::vector<GeMultiTerm> terms;
  terms.reserve(prep.size() * 3);
  for (const auto& p : prep) {
    terms.push_back(GeMultiTerm{nullptr, nullptr, p.zpos, p.zdig, kZWeight, &p.r_aff});
    terms.push_back(GeMultiTerm{&p.ctx->lo, p.zh_lo});
    terms.push_back(GeMultiTerm{&p.ctx->hi, p.zh_hi});
  }
  const GePoint sum = ge_multi_scalarmult_vartime(terms, s_neg);
  if (ge_is_identity(sum)) return all_ok;

  // Batch failed: at least one signature is bad (or a ~2^-128 coefficient
  // fluke). Fall back to single verification to attribute blame; the combined
  // verdict is exactly what per-signature verification would have produced.
  bool fallback_ok = true;
  for (const auto& p : prep) {
    const auto& item = items[p.idx];
    if (!ed25519_verify(*item.pub, item.message, *item.sig)) {
      fallback_ok = false;
      if (bad) bad->push_back(p.idx);
    }
  }
  if (bad) std::sort(bad->begin(), bad->end());
  return all_ok && fallback_ok;
}

}  // namespace moonshot::crypto
