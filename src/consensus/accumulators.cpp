#include "consensus/accumulators.hpp"

#include <algorithm>

#include "support/mutations.hpp"

namespace moonshot {

namespace {
// kCertQuorumFPlusOne weakens the certificate threshold from 2f+1 to f+1 —
// below quorum intersection, so two conflicting certificates can coexist in
// one view without any equivocating voter.
std::size_t cert_threshold(const ValidatorSet& validators) {
  if (mutation_on(Mutation::kCertQuorumFPlusOne)) return validators.honest_evidence_size();
  return validators.quorum_size();
}
}  // namespace

QcPtr VoteAccumulator::add(const Vote& vote, Height block_height) {
  if (!validators_->contains(vote.voter)) return nullptr;

  // Dedupe first: replays never reach signature verification.
  auto& per_view = by_view_[vote.view];
  auto& bucket = per_view.buckets[Key{vote.kind, vote.block}];
  if (bucket.emitted) return nullptr;
  for (std::size_t i = 0; i < bucket.votes.size(); ++i) {
    const Vote& seen = bucket.votes[i];
    if (seen.voter != vote.voter) continue;
    const bool waiting = i >= bucket.verified;
    if (!waiting || seen.sig == vote.sig) {
      if (waiting) ++resends_[{vote.view, vote.kind, vote.voter}];
      ++duplicates_dropped_;
      return nullptr;
    }
    // Different bytes compete for the voter's slot: the waiting vote keeps
    // it iff it is valid, which only a check can tell.
    if (settle_one(per_view, bucket, i)) {
      ++duplicates_dropped_;
      return nullptr;
    }
    break;
  }

  // Only a valid first vote makes this one an equivocation, so a first vote
  // still waiting is settled now. Dropping it frees the voter's first slot.
  auto probe = per_view.first_block.try_emplace({vote.kind, vote.voter}, vote.block);
  bool equivocates = !probe.second && probe.first->second != vote.block;
  if (equivocates) {
    Bucket& first = per_view.buckets[Key{vote.kind, probe.first->second}];
    for (std::size_t i = first.verified; i < first.votes.size(); ++i) {
      if (first.votes[i].voter != vote.voter) continue;
      if (!settle_one(per_view, first, i)) {
        probe = per_view.first_block.try_emplace({vote.kind, vote.voter}, vote.block);
        equivocates = false;
      }
      break;
    }
  }

  if (verify_ && !equivocates && !caught_.contains({vote.view, vote.voter})) {
    bucket.votes.push_back(vote);  // waits for the quorum batch
  } else {
    if (!check(vote)) {
      if (probe.second) per_view.first_block.erase(probe.first);
      return nullptr;
    }
    if (equivocates) ++equivocations_seen_;
    bucket.votes.insert(bucket.votes.begin() + bucket.verified++, vote);
  }

  const std::size_t threshold = cert_threshold(*validators_);
  if (bucket.votes.size() < threshold) return nullptr;
  settle(per_view, bucket);
  if (bucket.votes.size() < threshold) return nullptr;
  bucket.emitted = true;
  return QuorumCert::assemble(bucket.votes, block_height, *validators_, aggregate_);
}

bool VoteAccumulator::check(const Vote& vote) {
  if (!verify_ || vote.verify(*validators_)) return true;
  catch_voter(vote);
  return false;
}

void VoteAccumulator::catch_voter(const Vote& vote) {
  if (caught_.insert({vote.view, vote.voter}).second) ++bad_signatures_caught_;
}

bool VoteAccumulator::settle_one(PerView& per_view, Bucket& bucket, std::size_t i) {
  if (!check(bucket.votes[i])) {
    drop(per_view, bucket, i);
    return false;
  }
  std::swap(bucket.votes[i], bucket.votes[bucket.verified++]);
  return true;
}

void VoteAccumulator::settle(PerView& per_view, Bucket& bucket) {
  // Caught voters are checked singly, so a failed batch always catches a
  // voter not yet caught in this view. A promoted vote swaps in one already
  // passed over; a dropped one pulls the next into slot i.
  for (std::size_t i = bucket.verified; i < bucket.votes.size();) {
    const Vote& v = bucket.votes[i];
    if (caught_.contains({v.view, v.voter}) && !settle_one(per_view, bucket, i)) continue;
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
    catch_voter(bucket.votes[i]);
    drop(per_view, bucket, i);
  }
  bucket.verified = static_cast<std::uint32_t>(bucket.votes.size());
}

void VoteAccumulator::drop(PerView& per_view, Bucket& bucket, std::size_t i) {
  const Vote& v = bucket.votes[i];
  // Re-sends of a forged vote were never duplicates of a counted one.
  if (auto it = resends_.find({v.view, v.kind, v.voter}); it != resends_.end()) {
    duplicates_dropped_ -= it->second;
    resends_.erase(it);
  }
  per_view.first_block.erase({v.kind, v.voter});
  bucket.votes.erase(bucket.votes.begin() + static_cast<std::ptrdiff_t>(i));
}

std::size_t VoteAccumulator::count(View view, VoteKind kind, const BlockId& block) {
  auto vit = by_view_.find(view);
  if (vit == by_view_.end()) return 0;
  auto kit = vit->second.buckets.find(Key{kind, block});
  if (kit == vit->second.buckets.end()) return 0;
  settle(vit->second, kit->second);
  return kit->second.votes.size();
}

std::span<const Vote> VoteAccumulator::verified(View view, VoteKind kind,
                                                const BlockId& block) const {
  auto vit = by_view_.find(view);
  if (vit == by_view_.end()) return {};
  auto kit = vit->second.buckets.find(Key{kind, block});
  if (kit == vit->second.buckets.end()) return {};
  return {kit->second.votes.data(), kit->second.verified};
}

void VoteAccumulator::prune_below(View view) {
  by_view_.erase(by_view_.begin(), by_view_.lower_bound(view));
  caught_.erase(caught_.begin(), caught_.lower_bound({view, NodeId{0}}));
  resends_.erase(resends_.begin(), resends_.lower_bound({view, VoteKind{}, NodeId{0}}));
}

TimeoutAccumulator::Result TimeoutAccumulator::add(const TimeoutMsg& timeout) {
  Result result;
  if (!validators_->contains(timeout.sender)) return result;

  // Dedupe first: replays never reach signature verification. First-wins:
  // the counted message may already be embedded in an emitted TC, so a later
  // conflicting one must not replace it — it is only *counted* (once per
  // (view, sender)) as equivocation evidence.
  auto& bucket = by_view_[timeout.view];
  for (const auto& t : bucket.timeouts) {
    if (t.sender != timeout.sender) continue;
    const View seen_lock = t.high_qc ? t.high_qc->view : 0;
    const View new_lock = timeout.high_qc ? timeout.high_qc->view : 0;
    if (seen_lock != new_lock) {
      const bool counted =
          std::find(bucket.equivocators.begin(), bucket.equivocators.end(),
                    timeout.sender) != bucket.equivocators.end();
      if (!counted) {
        bucket.equivocators.push_back(timeout.sender);
        ++equivocations_seen_;
      }
    } else {
      ++duplicates_dropped_;
    }
    return result;
  }

  if (!timeout.verify(*validators_, verify_, cert_cache_)) return result;
  bucket.timeouts.push_back(timeout);

  if (!bucket.f1_emitted && bucket.timeouts.size() >= validators_->honest_evidence_size()) {
    bucket.f1_emitted = true;
    result.reached_f_plus_1 = true;
  }
  if (!bucket.tc_emitted && bucket.timeouts.size() >= validators_->quorum_size()) {
    bucket.tc_emitted = true;
    result.tc = TimeoutCert::assemble(bucket.timeouts, *validators_);
  }
  return result;
}

std::size_t TimeoutAccumulator::count(View view) const {
  auto it = by_view_.find(view);
  return it == by_view_.end() ? 0 : it->second.timeouts.size();
}

void TimeoutAccumulator::prune_below(View view) {
  by_view_.erase(by_view_.begin(), by_view_.lower_bound(view));
}

}  // namespace moonshot
