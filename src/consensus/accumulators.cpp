#include "consensus/accumulators.hpp"

#include <algorithm>
#include <functional>

#include "support/mutations.hpp"

namespace moonshot {

namespace {
constexpr std::size_t kVoteKinds = static_cast<std::size_t>(VoteKind::kCommit) + 1;

// kCertQuorumFPlusOne weakens the certificate threshold from 2f+1 to f+1 —
// below quorum intersection, so two conflicting certificates can coexist in
// one view without any equivocating voter.
std::size_t cert_threshold(const ValidatorSet& validators) {
  if (mutation_on(Mutation::kCertQuorumFPlusOne)) return validators.honest_evidence_size();
  return validators.quorum_size();
}

View lock_view(const TimeoutMsg& t) { return t.high_qc ? t.high_qc->view : 0; }
}  // namespace

QcPtr VoteAccumulator::add(const Vote& vote, Height block_height) {
  if (!validators_->contains(vote.voter)) return nullptr;
  if (!window_.contains(vote.view)) {
    ++window_dropped_;
    return nullptr;
  }

  // Dedupe first: replays never reach signature verification.
  PerView& pv = window_.at(vote.view);
  if (pv.first.empty()) pv.first.assign(kVoteKinds * validators_->size(), 0);
  const std::size_t b = bucket_index(pv, vote.kind, vote.block);
  Bucket& bucket = pv.buckets[b];
  if (bucket.emitted) return nullptr;
  if (bucket.member[vote.voter] == kVerified) {
    ++duplicates_dropped_;
    return nullptr;
  }
  if (bucket.member[vote.voter] == kWaiting) {
    const std::size_t i = waiting_pos(bucket, vote.voter);
    if (bucket.votes[i].sig == vote.sig) {
      if (pv.resends.empty()) pv.resends.assign(pv.first.size(), 0);
      ++pv.resends[slot(vote.kind, vote.voter)];
      ++duplicates_dropped_;
      return nullptr;
    }
    // Different bytes compete for the voter's slot: the waiting vote keeps
    // it iff it is valid, which only a check can tell.
    if (settle_one(pv, bucket, i)) {
      ++duplicates_dropped_;
      return nullptr;
    }
  }

  // Only a valid first vote makes this one an equivocation, so a first vote
  // still waiting is settled now. Dropping it frees the voter's first slot.
  const auto own = static_cast<std::uint32_t>(b + 1);
  std::uint32_t& first = pv.first[slot(vote.kind, vote.voter)];
  bool fresh = first == 0;
  if (fresh) first = own;
  bool equivocates = first != own;
  if (equivocates) {
    Bucket& prior = pv.buckets[first - 1];
    if (prior.member[vote.voter] == kWaiting &&
        !settle_one(pv, prior, waiting_pos(prior, vote.voter))) {
      first = own;
      fresh = true;
      equivocates = false;
    }
  }

  // A second voter makes the bucket a quorum candidate: room for the whole
  // quorum at once, so the votes are never copied by a regrowth.
  const std::size_t threshold = cert_threshold(*validators_);
  if (bucket.votes.size() == 1) bucket.votes.reserve(threshold);
  if (verify_ && !equivocates && !caught(pv, vote.voter)) {
    bucket.votes.push_back(vote);  // waits for the quorum batch
    bucket.member[vote.voter] = kWaiting;
  } else {
    if (!check(pv, vote)) {
      if (fresh) first = 0;
      return nullptr;
    }
    if (equivocates) ++equivocations_seen_;
    bucket.votes.insert(bucket.votes.begin() + bucket.verified++, vote);
    bucket.member[vote.voter] = kVerified;
  }

  if (bucket.votes.size() < threshold) return nullptr;
  settle(pv, bucket);
  if (bucket.votes.size() < threshold) return nullptr;
  bucket.emitted = true;
  return QuorumCert::assemble(bucket.votes, block_height, *validators_, aggregate_);
}

std::size_t VoteAccumulator::bucket_index(PerView& pv, VoteKind kind, const BlockId& block) {
  for (std::size_t i = 0; i < pv.buckets.size(); ++i) {
    if (pv.buckets[i].kind == kind && pv.buckets[i].block == block) return i;
  }
  Bucket& fresh = pv.buckets.emplace_back();
  fresh.kind = kind;
  fresh.block = block;
  fresh.member.assign(validators_->size(), kAbsent);
  return pv.buckets.size() - 1;
}

std::size_t VoteAccumulator::waiting_pos(const Bucket& bucket, NodeId voter) {
  std::size_t i = bucket.verified;
  while (bucket.votes[i].voter != voter) ++i;
  return i;
}

bool VoteAccumulator::check(PerView& pv, const Vote& vote) {
  if (!verify_ || vote.verify(*validators_)) return true;
  catch_voter(pv, vote.voter);
  return false;
}

void VoteAccumulator::catch_voter(PerView& pv, NodeId voter) {
  if (pv.caught.empty()) pv.caught.assign(validators_->size(), false);
  if (pv.caught[voter]) return;
  pv.caught[voter] = true;
  ++bad_signatures_caught_;
}

bool VoteAccumulator::settle_one(PerView& pv, Bucket& bucket, std::size_t i) {
  if (!check(pv, bucket.votes[i])) {
    drop(pv, bucket, i);
    return false;
  }
  bucket.member[bucket.votes[i].voter] = kVerified;
  std::swap(bucket.votes[i], bucket.votes[bucket.verified++]);
  return true;
}

void VoteAccumulator::settle(PerView& pv, Bucket& bucket) {
  // Caught voters are checked singly, so a failed batch always catches a
  // voter not yet caught in this view. A promoted vote swaps in one already
  // passed over; a dropped one pulls the next into slot i.
  for (std::size_t i = bucket.verified; i < bucket.votes.size();) {
    if (caught(pv, bucket.votes[i].voter) && !settle_one(pv, bucket, i)) continue;
    ++i;
  }
  if (bucket.verified == bucket.votes.size()) return;

  const Vote& any = bucket.votes.back();
  const auto digest = Vote::signing_digest(any.kind, any.view, any.block);
  std::vector<crypto::BatchItem> items;
  items.reserve(bucket.votes.size() - bucket.verified);
  for (std::size_t i = bucket.verified; i < bucket.votes.size(); ++i) {
    const Vote& v = bucket.votes[i];
    items.push_back(crypto::BatchItem{&validators_->key(v.voter), digest.view(), &v.sig});
  }
  std::vector<std::size_t> bad;  // sorted culprit indices
  validators_->scheme().verify_batch(items, &bad);
  for (auto it = bad.rbegin(); it != bad.rend(); ++it) {
    const std::size_t i = bucket.verified + *it;
    catch_voter(pv, bucket.votes[i].voter);
    drop(pv, bucket, i);
  }
  for (std::size_t i = bucket.verified; i < bucket.votes.size(); ++i)
    bucket.member[bucket.votes[i].voter] = kVerified;
  bucket.verified = static_cast<std::uint32_t>(bucket.votes.size());
}

void VoteAccumulator::drop(PerView& pv, Bucket& bucket, std::size_t i) {
  const Vote& v = bucket.votes[i];
  const std::size_t s = slot(v.kind, v.voter);
  // Re-sends of a forged vote were never duplicates of a counted one.
  if (!pv.resends.empty()) {
    duplicates_dropped_ -= pv.resends[s];
    pv.resends[s] = 0;
  }
  pv.first[s] = 0;
  bucket.member[v.voter] = kAbsent;
  bucket.votes.erase(bucket.votes.begin() + static_cast<std::ptrdiff_t>(i));
}

std::size_t VoteAccumulator::count(View view, VoteKind kind, const BlockId& block) {
  PerView* pv = window_.find(view);
  if (!pv) return 0;
  for (Bucket& b : pv->buckets) {
    if (b.kind != kind || b.block != block) continue;
    settle(*pv, b);
    return b.votes.size();
  }
  return 0;
}

std::span<const Vote> VoteAccumulator::verified(View view, VoteKind kind,
                                                const BlockId& block) const {
  const PerView* pv = window_.find(view);
  if (!pv) return {};
  for (const Bucket& b : pv->buckets) {
    if (b.kind == kind && b.block == block) return {b.votes.data(), b.verified};
  }
  return {};
}

std::size_t VoteAccumulator::entries() const {
  std::size_t n = 0;
  for (const PerView& pv : window_.slots())
    for (const Bucket& b : pv.buckets) n += 1 + b.votes.size();
  return n;
}

TimeoutAccumulator::Result TimeoutAccumulator::add(const TimeoutMsg& timeout) {
  Result result;
  if (!validators_->contains(timeout.sender)) return result;
  if (timeout.view >= window_.top()) return add_beyond(timeout);
  if (timeout.view < window_.floor()) return result;

  // Dedupe first: replays never reach signature verification. First-wins:
  // the counted message may already be embedded in an emitted TC, so a later
  // conflicting one must not replace it — it is only *counted* (once per
  // (view, sender)) as equivocation evidence.
  Bucket& bucket = window_.at(timeout.view);
  if (bucket.seen.empty()) bucket.seen.resize(validators_->size());
  Seen& seen = bucket.seen[timeout.sender];
  if (seen.pos != 0) {
    if (lock_view(bucket.timeouts[seen.pos - 1]) == lock_view(timeout)) {
      ++duplicates_dropped_;
    } else if (!seen.equivocated) {
      seen.equivocated = true;
      ++equivocations_seen_;
    }
    return result;
  }

  if (!timeout.verify(*validators_, verify_, cert_cache_)) return result;
  bucket.timeouts.push_back(timeout);
  seen.pos = static_cast<std::uint32_t>(bucket.timeouts.size());

  if (!bucket.f1_emitted && bucket.timeouts.size() >= validators_->honest_evidence_size()) {
    bucket.f1_emitted = true;
    result.f_plus_1_view = timeout.view;
  }
  if (!bucket.tc_emitted && bucket.timeouts.size() >= validators_->quorum_size()) {
    bucket.tc_emitted = true;
    result.tc = TimeoutCert::assemble(bucket.timeouts, *validators_);
  }
  return result;
}

TimeoutAccumulator::Result TimeoutAccumulator::add_beyond(const TimeoutMsg& timeout) {
  Result result;
  if (beyond_.empty()) beyond_.assign(validators_->size(), 0);
  View& highest = beyond_[timeout.sender];
  if (timeout.view <= highest) return result;
  if (!timeout.verify(*validators_, verify_, cert_cache_)) return result;
  highest = timeout.view;

  // The (f+1)-th highest view still past the window: f+1 senders timed out
  // at or past it.
  const View top = window_.top();
  std::vector<View> views;
  for (const View v : beyond_) {
    if (v >= top) views.push_back(v);
  }
  const std::size_t f1 = validators_->honest_evidence_size();
  if (views.size() < f1) return result;
  const auto nth = views.begin() + static_cast<std::ptrdiff_t>(f1 - 1);
  std::nth_element(views.begin(), nth, views.end(), std::greater<>());
  if (*nth <= beyond_f_plus_1_view_) return result;
  beyond_f_plus_1_view_ = *nth;
  result.f_plus_1_view = *nth;
  return result;
}

std::size_t TimeoutAccumulator::count(View view) const {
  const Bucket* bucket = window_.find(view);
  return bucket ? bucket->timeouts.size() : 0;
}

std::size_t TimeoutAccumulator::entries() const {
  std::size_t n = static_cast<std::size_t>(
      std::count_if(beyond_.begin(), beyond_.end(), [](View v) { return v != 0; }));
  for (const Bucket& b : window_.slots()) n += b.timeouts.size();
  return n;
}

}  // namespace moonshot
