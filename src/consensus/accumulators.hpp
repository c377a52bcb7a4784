// Vote and timeout accumulation: collecting quorums into certificates.
//
// Every node runs these locally because Moonshot multicasts votes — there is
// no designated aggregator. Accumulators deduplicate by sender, reject
// invalid signatures, emit each certificate exactly once, and prune state
// for old views as the node advances.
//
// Deduplication runs BEFORE signature verification: a vote or timeout from a
// sender already counted for that key is dropped without touching the
// (expensive) signature path, so replayed traffic costs a map lookup rather
// than a curve operation.
//
// VoteAccumulator defers vote verification to the quorum. A deduplicated
// vote waits unverified in its (view, kind, block) bucket; when verified plus
// waiting votes reach the threshold, the waiting ones are checked as one
// SignatureScheme::verify_batch and the culprits its exact fallback names are
// dropped. Collisions are resolved eagerly instead, by verifying singly: a
// voter re-sending different bytes into a bucket that holds its waiting vote,
// a voter's vote for a second block of the same (view, kind), and any vote
// from a voter already caught with a bad signature in that view. So a
// certificate is emitted at the same add() as if every vote were verified on
// arrival, holding the same first threshold-many valid votes, and the
// equivocation and duplicate counters keep that eager meaning.
//
// TimeoutAccumulator still verifies each timeout on arrival.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "types/certs.hpp"
#include "types/validator_set.hpp"
#include "types/vote.hpp"

namespace moonshot {

/// Accumulates votes per (view, kind, block). add() returns a certificate
/// the first time a quorum is reached for that key, nullptr otherwise.
class VoteAccumulator {
 public:
  VoteAccumulator(ValidatorSetPtr validators, bool verify_signatures,
                  bool aggregate_certificates = false)
      : validators_(std::move(validators)),
        verify_(verify_signatures),
        aggregate_(aggregate_certificates) {}

  /// Feeds one vote. `block_height` is the height of the voted block if
  /// known to the caller (metadata stored in the certificate), 0 otherwise.
  QcPtr add(const Vote& vote, Height block_height);

  /// Number of distinct valid voters collected for a key (testing and
  /// diagnostics). Verifies the key's waiting votes first.
  std::size_t count(View view, VoteKind kind, const BlockId& block);

  /// Votes for a key whose signatures this accumulator has verified (all
  /// collected votes when verification is off). For QuorumCert::validate,
  /// which skips their exact (voter, sig) pairs. Valid until the next add().
  std::span<const Vote> verified(View view, VoteKind kind, const BlockId& block) const;

  /// Number of equivocations observed: votes whose (view, kind, voter) was
  /// already seen for a DIFFERENT block. Such votes are still counted toward
  /// their own block's quorum (safety does not depend on suppressing them —
  /// quorum intersection does the work); the counter is diagnostic evidence
  /// of Byzantine behaviour.
  std::uint64_t equivocations_seen() const { return equivocations_seen_; }

  /// Exact re-sends dropped by the dedupe fast path: same (view, kind,
  /// block, voter) seen again. Benign under retransmission, but a spike is
  /// evidence of replayed traffic. A re-send of a waiting vote counts at
  /// once and is taken back if that vote turns out forged.
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }

  /// (view, voter) pairs caught signing a vote badly: a batch culprit or a
  /// failed single check. Each pair is counted once; its later votes in that
  /// view are verified singly, so it fails at most one batch per view.
  std::uint64_t bad_signatures_caught() const { return bad_signatures_caught_; }

  /// Drops all state for views < `view`.
  void prune_below(View view);

 private:
  struct Key {
    VoteKind kind;
    BlockId block;
    friend bool operator<(const Key& a, const Key& b) {
      if (a.kind != b.kind) return a.kind < b.kind;
      return a.block < b.block;
    }
  };
  struct Bucket {
    // Distinct voters. votes[0, verified) have valid signatures; the rest
    // wait for the quorum batch.
    std::vector<Vote> votes;
    std::uint32_t verified = 0;
    bool emitted = false;
  };
  struct PerView {
    std::map<Key, Bucket> buckets;
    // First block each (kind, voter) voted for this view — equivocation probe.
    std::map<std::pair<VoteKind, NodeId>, BlockId> first_block;
  };

  /// Verifies one vote singly; a failure catches its voter.
  bool check(const Vote& vote);
  /// Records a bad signature by the vote's voter in the vote's view.
  void catch_voter(const Vote& vote);
  /// Settles the waiting bucket.votes[i] singly: promoted to the verified
  /// prefix, or dropped. Returns whether it was valid.
  bool settle_one(PerView& per_view, Bucket& bucket, std::size_t i);
  /// Verifies every waiting vote of a bucket, caught voters singly and the
  /// rest in one batch, and keeps the valid ones.
  void settle(PerView& per_view, Bucket& bucket);
  /// Removes the waiting bucket.votes[i], found forged.
  void drop(PerView& per_view, Bucket& bucket, std::size_t i);

  ValidatorSetPtr validators_;
  bool verify_;
  bool aggregate_;
  std::map<View, PerView> by_view_;
  // Kept outside by_view_ so per-view state is the same size as with
  // verification off, where these stay empty.
  std::set<std::pair<View, NodeId>> caught_;  // bad vote signature in that view
  // Exact re-sends of a waiting vote, by (view, kind, voter): the waiting
  // vote is its voter's first of the (view, kind). Read when it is dropped.
  std::map<std::tuple<View, VoteKind, NodeId>, std::uint64_t> resends_;
  std::uint64_t equivocations_seen_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  std::uint64_t bad_signatures_caught_ = 0;
};

/// Accumulates timeout messages per view. Emits two one-shot events per
/// view: the f+1 threshold (evidence at least one honest node timed out —
/// the Bracha amplification trigger) and the quorum TC.
class TimeoutAccumulator {
 public:
  TimeoutAccumulator(ValidatorSetPtr validators, bool verify_signatures)
      : validators_(std::move(validators)), verify_(verify_signatures) {}

  struct Result {
    bool reached_f_plus_1 = false;  // true the first time f+1 distinct senders seen
    TcPtr tc;                       // non-null the first time a quorum is reached
  };

  Result add(const TimeoutMsg& timeout);

  /// Installs a verified-certificate cache consulted when validating the
  /// locks attached to incoming timeouts (2f+1 timeouts usually carry the
  /// same few QCs). Borrowed pointer; must outlive the accumulator.
  void set_cert_cache(CertVerifyCache* cache) { cert_cache_ = cache; }

  std::size_t count(View view) const;
  void prune_below(View view);

  /// Conflicting timeouts observed: a second timeout from an already-counted
  /// sender for the same view carrying a DIFFERENT high-QC view. The first
  /// message wins (it may already be embedded in an emitted TC; swapping
  /// retroactively would let the sender rewrite certificates); the conflict
  /// is counted exactly once per (view, sender) as adversary evidence.
  std::uint64_t equivocations_seen() const { return equivocations_seen_; }
  /// Exact re-sends from an already-counted sender (identical high-QC view):
  /// legitimate pacemaker retransmission, dropped by the dedupe fast path.
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }

 private:
  struct Bucket {
    std::vector<TimeoutMsg> timeouts;  // distinct senders
    std::vector<NodeId> equivocators;  // senders already counted as conflicting
    bool f1_emitted = false;
    bool tc_emitted = false;
  };

  ValidatorSetPtr validators_;
  bool verify_;
  CertVerifyCache* cert_cache_ = nullptr;
  std::map<View, Bucket> by_view_;
  std::uint64_t equivocations_seen_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
};

}  // namespace moonshot
