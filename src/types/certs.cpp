#include "types/certs.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/mutations.hpp"
#include "types/cert_cache.hpp"

namespace moonshot {

namespace {
// See Mutation::kCertQuorumFPlusOne: the seeded sub-quorum certificate bug.
std::size_t qc_threshold(const ValidatorSet& validators) {
  if (mutation_on(Mutation::kCertQuorumFPlusOne)) return validators.honest_evidence_size();
  return validators.quorum_size();
}
}  // namespace

QcPtr QuorumCert::genesis_qc() {
  static const QcPtr g = [] {
    auto qc = std::make_shared<QuorumCert>();
    qc->kind = VoteKind::kNormal;
    qc->view = 0;
    qc->block = Block::genesis()->id();
    qc->height = 0;
    return QcPtr(qc);
  }();
  return g;
}

QcPtr QuorumCert::assemble(const std::vector<Vote>& votes, Height block_height,
                           const ValidatorSet& validators, bool aggregate) {
  if (votes.empty()) return nullptr;
  auto qc = std::make_shared<QuorumCert>();
  qc->kind = votes.front().kind;
  qc->view = votes.front().view;
  qc->block = votes.front().block;
  qc->height = block_height;

  std::vector<const Vote*> sorted;
  sorted.reserve(votes.size());
  qc->voters.reserve(votes.size());
  qc->sigs.reserve(votes.size());
  for (const auto& v : votes) sorted.push_back(&v);
  std::sort(sorted.begin(), sorted.end(),
            [](const Vote* a, const Vote* b) { return a->voter < b->voter; });

  NodeId prev = kNoNode;
  for (const Vote* v : sorted) {
    if (v->kind != qc->kind || v->view != qc->view || v->block != qc->block) return nullptr;
    if (v->voter == prev) return nullptr;  // duplicate voter
    prev = v->voter;
    qc->voters.push_back(v->voter);
    qc->sigs.push_back(v->sig);
  }
  if (qc->voters.size() < qc_threshold(validators)) return nullptr;

  if (aggregate && validators.scheme().supports_aggregation()) {
    const auto digest = Vote::signing_digest(qc->kind, qc->view, qc->block);
    qc->agg_sig = validators.scheme().aggregate(digest.view(), qc->sigs);
    qc->aggregated = true;
    qc->sigs.clear();
    qc->sigs.shrink_to_fit();
  }
  return qc;
}

bool QuorumCert::validate(const ValidatorSet& validators, bool check_sigs,
                          CertVerifyCache* cache,
                          std::span<const Vote> verified_votes) const {
  if (is_genesis()) {
    // The genesis certificate is axiomatic: correct iff it names genesis.
    return block == Block::genesis()->id();
  }
  // Structural checks run unconditionally; only signature work is skippable.
  if (!aggregated && voters.size() != sigs.size()) return false;
  if (aggregated && !sigs.empty()) return false;
  if (voters.size() < qc_threshold(validators)) return false;
  NodeId prev = kNoNode;
  for (std::size_t i = 0; i < voters.size(); ++i) {
    const NodeId id = voters[i];
    if (!validators.contains(id)) return false;
    if (i > 0 && id <= prev) return false;  // must be strictly increasing
    prev = id;
  }
  if (!check_sigs) return true;

  crypto::Sha256Digest key{};
  if (cache) {
    key = cache_key(validators);
    if (cache->contains(key)) return true;
  }
  const auto digest = Vote::signing_digest(kind, view, block);
  if (aggregated) {
    if (!validators.scheme().supports_aggregation()) return false;
    std::vector<crypto::PublicKey> pubs;
    pubs.reserve(voters.size());
    for (const NodeId id : voters) pubs.push_back(validators.key(id));
    if (!validators.scheme().verify_aggregate(pubs, digest.view(), agg_sig)) return false;
  } else {
    const auto known = [&](std::size_t i) {
      return std::any_of(verified_votes.begin(), verified_votes.end(), [&](const Vote& v) {
        return v.voter == voters[i] && v.sig == sigs[i] && v.kind == kind &&
               v.view == view && v.block == block;
      });
    };
    std::vector<crypto::BatchItem> items;
    items.reserve(voters.size());
    for (std::size_t i = 0; i < voters.size(); ++i) {
      if (known(i)) continue;
      items.push_back(crypto::BatchItem{&validators.key(voters[i]),
                                        digest.view(), &sigs[i]});
    }
    if (!items.empty() && !validators.scheme().verify_batch(items)) return false;
  }
  if (cache) cache->insert(key);
  return true;
}

crypto::Sha256Digest QuorumCert::cache_key(const ValidatorSet& validators) const {
  Writer w;
  w.str("moonshot-qc-key");
  w.raw(validators.digest().view());  // a cache entry is key-set specific
  serialize(w);
  return crypto::sha256(w.buffer());
}

void QuorumCert::serialize(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(view);
  w.raw(block.view());
  w.u64(height);
  w.boolean(aggregated);
  if (aggregated) {
    // Threshold form: voter bitmap + one signature — O(1) wire size.
    const std::uint32_t bits = voters.empty() ? 0 : voters.back() + 1;
    w.u32(bits);
    Bytes bitmap((bits + 7) / 8, 0);
    for (const NodeId id : voters) bitmap[id / 8] |= static_cast<std::uint8_t>(1u << (id % 8));
    w.raw(bitmap);
    w.raw(agg_sig.view());
  } else {
    w.u32(static_cast<std::uint32_t>(voters.size()));
    for (std::size_t i = 0; i < voters.size(); ++i) {
      w.u32(voters[i]);
      w.raw(sigs[i].view());
    }
  }
}

std::optional<QuorumCert> QuorumCert::deserialize(Reader& r) {
  auto kind = r.u8();
  auto view = r.u64();
  auto block = r.raw(BlockId::size());
  auto height = r.u64();
  auto aggregated = r.boolean();
  if (!kind || !view || !block || !height || !aggregated) return std::nullopt;
  if (*kind > static_cast<std::uint8_t>(VoteKind::kCommit)) return std::nullopt;
  QuorumCert qc;
  qc.kind = static_cast<VoteKind>(*kind);
  qc.view = *view;
  qc.block = BlockId::from_view(*block);
  qc.height = *height;
  if (*aggregated) {
    auto bits = r.u32();
    if (!bits || *bits > 1'000'000) return std::nullopt;
    auto bitmap = r.raw((*bits + 7) / 8);
    auto agg = r.raw(crypto::Signature::size());
    if (!bitmap || !agg) return std::nullopt;
    qc.aggregated = true;
    for (std::uint32_t id = 0; id < *bits; ++id) {
      if (((*bitmap)[id / 8] >> (id % 8)) & 1) qc.voters.push_back(id);
    }
    qc.agg_sig = crypto::Signature::from_view(*agg);
  } else {
    auto count = r.u32();
    if (!count) return std::nullopt;
    // A hostile count must not drive allocation: each entry needs at least
    // 4 + 64 bytes of input, so cap by what the buffer can actually hold.
    if (*count > r.remaining() / (4 + crypto::Signature::size())) return std::nullopt;
    qc.voters.reserve(*count);
    qc.sigs.reserve(*count);
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto voter = r.u32();
      auto sig = r.raw(crypto::Signature::size());
      if (!voter || !sig) return std::nullopt;
      qc.voters.push_back(*voter);
      qc.sigs.push_back(crypto::Signature::from_view(*sig));
    }
  }
  return qc;
}

crypto::Sha256Digest TimeoutMsg::signing_digest(View view, View high_qc_view) {
  Writer w;
  w.str("moonshot-timeout");
  w.u64(view);
  w.u64(high_qc_view);
  return crypto::sha256(w.buffer());
}

TimeoutMsg TimeoutMsg::make(View view, NodeId sender, QcPtr lock,
                            const crypto::PrivateKey& priv,
                            const crypto::SignatureScheme& scheme) {
  TimeoutMsg t;
  t.view = view;
  t.sender = sender;
  t.high_qc = std::move(lock);
  t.high_qc_view = t.high_qc ? t.high_qc->view : 0;
  t.sig = scheme.sign(priv, signing_digest(view, t.high_qc_view).view());
  return t;
}

bool TimeoutMsg::verify(const ValidatorSet& validators, bool check_sigs,
                        CertVerifyCache* cache) const {
  if (!validators.contains(sender)) return false;
  if (high_qc) {
    if (high_qc->view != high_qc_view) return false;
    if (!high_qc->validate(validators, check_sigs, cache)) return false;
  } else if (high_qc_view != 0) {
    return false;  // claims a lock it does not attach
  }
  if (check_sigs) {
    const auto digest = signing_digest(view, high_qc_view);
    if (!validators.scheme().verify(validators.key(sender), digest.view(), sig))
      return false;
  }
  return true;
}

void TimeoutMsg::serialize(Writer& w) const {
  w.u64(view);
  w.u32(sender);
  w.u64(high_qc_view);
  w.boolean(high_qc != nullptr);
  if (high_qc) high_qc->serialize(w);
  w.raw(sig.view());
}

std::optional<TimeoutMsg> TimeoutMsg::deserialize(Reader& r) {
  auto view = r.u64();
  auto sender = r.u32();
  auto qc_view = r.u64();
  auto has_qc = r.boolean();
  if (!view || !sender || !qc_view || !has_qc) return std::nullopt;
  TimeoutMsg t;
  t.view = *view;
  t.sender = *sender;
  t.high_qc_view = *qc_view;
  if (*has_qc) {
    auto qc = QuorumCert::deserialize(r);
    if (!qc) return std::nullopt;
    t.high_qc = std::make_shared<const QuorumCert>(std::move(*qc));
  }
  auto sig = r.raw(crypto::Signature::size());
  if (!sig) return std::nullopt;
  t.sig = crypto::Signature::from_view(*sig);
  return t;
}

TcPtr TimeoutCert::assemble(const std::vector<TimeoutMsg>& timeouts,
                            const ValidatorSet& validators) {
  if (timeouts.empty()) return nullptr;
  auto tc = std::make_shared<TimeoutCert>();
  tc->view = timeouts.front().view;

  std::vector<const TimeoutMsg*> sorted;
  sorted.reserve(timeouts.size());
  for (const auto& t : timeouts) sorted.push_back(&t);
  std::sort(sorted.begin(), sorted.end(),
            [](const TimeoutMsg* a, const TimeoutMsg* b) { return a->sender < b->sender; });

  NodeId prev = kNoNode;
  View best = 0;
  for (const TimeoutMsg* t : sorted) {
    if (t->view != tc->view) return nullptr;
    if (t->sender == prev) return nullptr;
    prev = t->sender;
    tc->entries.push_back(Entry{t->sender, t->high_qc_view, t->sig});
    if (t->high_qc && (!tc->high_qc || t->high_qc_view > best)) {
      best = t->high_qc_view;
      tc->high_qc = t->high_qc;
    }
  }
  if (tc->entries.size() < validators.quorum_size()) return nullptr;
  return tc;
}

bool TimeoutCert::validate(const ValidatorSet& validators, bool check_sigs,
                           CertVerifyCache* cache) const {
  if (entries.size() < validators.quorum_size()) return false;
  NodeId prev = kNoNode;
  View best_claim = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    if (!validators.contains(e.sender)) return false;
    if (i > 0 && e.sender <= prev) return false;
    prev = e.sender;
    best_claim = std::max(best_claim, e.high_qc_view);
  }

  // A cache hit covers both the entry signatures and the embedded lock's
  // signatures (the key hashes the full serialization, lock included), so the
  // lock's own validation degrades to its structural checks.
  crypto::Sha256Digest key{};
  bool sigs_needed = check_sigs;
  if (check_sigs && cache) {
    key = cache_key(validators);
    if (cache->contains(key)) sigs_needed = false;
  }
  if (sigs_needed) {
    // Each entry signs a digest of (view, claimed lock view); the digests
    // differ per entry, so keep them alive alongside the batch views.
    std::vector<crypto::Sha256Digest> digests;
    digests.reserve(entries.size());
    for (const auto& e : entries)
      digests.push_back(TimeoutMsg::signing_digest(view, e.high_qc_view));
    std::vector<crypto::BatchItem> items;
    items.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      items.push_back(crypto::BatchItem{&validators.key(entries[i].sender),
                                        digests[i].view(), &entries[i].sig});
    }
    if (!validators.scheme().verify_batch(items)) return false;
  }
  if (best_claim > 0) {
    // Must attach the highest claimed lock so voters can check fb proposals.
    if (!high_qc || high_qc->view != best_claim) return false;
    if (!high_qc->validate(validators, sigs_needed, cache)) return false;
  } else if (high_qc && !high_qc->is_genesis()) {
    return false;
  }
  if (sigs_needed && cache) cache->insert(key);
  return true;
}

crypto::Sha256Digest TimeoutCert::cache_key(const ValidatorSet& validators) const {
  Writer w;
  w.str("moonshot-tc-key");
  w.raw(validators.digest().view());  // a cache entry is key-set specific
  serialize(w);
  return crypto::sha256(w.buffer());
}

void TimeoutCert::serialize(Writer& w) const {
  w.u64(view);
  w.boolean(high_qc != nullptr);
  if (high_qc) high_qc->serialize(w);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.u32(e.sender);
    w.u64(e.high_qc_view);
    w.raw(e.sig.view());
  }
}

std::optional<TimeoutCert> TimeoutCert::deserialize(Reader& r) {
  auto view = r.u64();
  auto has_qc = r.boolean();
  if (!view || !has_qc) return std::nullopt;
  TimeoutCert tc;
  tc.view = *view;
  if (*has_qc) {
    auto qc = QuorumCert::deserialize(r);
    if (!qc) return std::nullopt;
    tc.high_qc = std::make_shared<const QuorumCert>(std::move(*qc));
  }
  auto count = r.u32();
  if (!count) return std::nullopt;
  // Cap by the bytes actually present (see QuorumCert::deserialize).
  if (*count > r.remaining() / (4 + 8 + crypto::Signature::size())) return std::nullopt;
  tc.entries.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto sender = r.u32();
    auto qc_view = r.u64();
    auto sig = r.raw(crypto::Signature::size());
    if (!sender || !qc_view || !sig) return std::nullopt;
    tc.entries.push_back(Entry{*sender, *qc_view, crypto::Signature::from_view(*sig)});
  }
  return tc;
}

}  // namespace moonshot
