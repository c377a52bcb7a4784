// Vote and timeout accumulation: collecting quorums into certificates.
//
// Every node runs these locally because Moonshot multicasts votes — there is
// no designated aggregator. Accumulators deduplicate by sender, reject
// invalid signatures, emit each certificate exactly once, and prune state
// for old views as the node advances.
//
// State is dense and per view. A view holds a small vector of (kind, block)
// buckets; a bucket holds its votes and a per-voter membership array, and
// the view holds a `kind·n + voter → bucket` array naming each voter's first
// bucket (the equivocation probe). Adding a vote is array indexing plus a
// scan of the view's few buckets: no map lookup and no per-vote node
// allocation. A timeout bucket likewise indexes its senders.
//
// Only views in a window [floor, view + kViewWindow) hold state, where
// `view` is the owning node's current view and the floor is raised by
// prune_below() as the node advances. So a validly signed vote or timeout
// for a far-future view cannot make an honest node allocate: votes outside
// the window are dropped and counted (window_dropped()). A timeout past the
// window is not kept whole either, only its view, one per sender, so that
// f+1 senders timing out beyond the window still trigger the Bracha
// amplification and pull a node that lags by more than the window into the
// others' view.
//
// Deduplication runs BEFORE signature verification: a vote or timeout from a
// sender already counted for that key is dropped without touching the
// (expensive) signature path, so replayed traffic costs an array lookup
// rather than a curve operation.
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

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "types/certs.hpp"
#include "types/validator_set.hpp"
#include "types/vote.hpp"

namespace moonshot {

/// How many views past its current one a node keeps accumulator state for.
/// Honest votes and timeouts lead a node's view by a few views at most (7 on
/// the WJ crash/recover benchmark world, 0 on the WAN ones).
constexpr View kViewWindow = 16;

/// Per-view state for the views [floor, view + kViewWindow), where `view` is
/// read through a pointer to the owning node's current view (nullptr reads
/// as view 0). Slots are created on first use and dropped by prune_below().
template <typename PerView>
class ViewWindow {
 public:
  explicit ViewWindow(const View* current_view) : current_(current_view) {}

  View floor() const { return floor_; }
  /// First view past the window.
  View top() const { return (current_ ? *current_ : 0) + kViewWindow; }
  bool contains(View v) const { return v >= floor_ && v < top(); }

  /// The slot of an in-window view, created empty if absent.
  PerView& at(View v) {
    while (floor_ + slots_.size() <= v) slots_.emplace_back();
    return slots_[v - floor_];
  }
  /// The slot of `v`, or nullptr when it holds no state.
  const PerView* find(View v) const {
    return v >= floor_ && v - floor_ < slots_.size() ? &slots_[v - floor_] : nullptr;
  }
  PerView* find(View v) {
    return const_cast<PerView*>(std::as_const(*this).find(v));
  }

  /// Drops every slot below `v` and refuses those views from now on.
  void prune_below(View v) {
    if (v <= floor_) return;
    const View drop = std::min<View>(v - floor_, slots_.size());
    slots_.erase(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(drop));
    floor_ = v;
  }

  const std::vector<PerView>& slots() const { return slots_; }

 private:
  const View* current_;
  View floor_ = 0;
  std::vector<PerView> slots_;  // slots_[i] holds view floor_ + i
};

/// Accumulates votes per (view, kind, block). add() returns a certificate
/// the first time a quorum is reached for that key, nullptr otherwise.
class VoteAccumulator {
 public:
  /// `current_view` points at the owning node's view, which places the
  /// window's upper end (see ViewWindow).
  VoteAccumulator(ValidatorSetPtr validators, bool verify_signatures,
                  bool aggregate_certificates = false, const View* current_view = nullptr)
      : validators_(std::move(validators)),
        verify_(verify_signatures),
        aggregate_(aggregate_certificates),
        window_(current_view) {}

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
  /// once and is taken back if that vote turns out forged, at the latest
  /// when its view is pruned.
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }

  /// (view, voter) pairs caught signing a vote badly: a batch culprit or a
  /// failed single check. Each pair is counted once; its later votes in that
  /// view are verified singly, so it fails at most one batch per view.
  std::uint64_t bad_signatures_caught() const { return bad_signatures_caught_; }

  /// Votes from known voters dropped because their view was outside the
  /// window: below the prune floor or kViewWindow or more views ahead.
  std::uint64_t window_dropped() const { return window_dropped_; }

  /// Votes and buckets held now, over every view of the window.
  std::size_t entries() const;

  /// Drops all state for views < `view` and refuses those views from now on.
  /// A waiting vote with counted re-sends is settled singly first, so a
  /// forged one's re-sends leave duplicates_dropped().
  void prune_below(View view);

 private:
  enum Member : std::uint8_t { kAbsent = 0, kVerified, kWaiting };
  struct Bucket {
    VoteKind kind;
    BlockId block;
    // Distinct voters. votes[0, verified) have valid signatures; the rest
    // wait for the quorum batch.
    std::vector<Vote> votes;
    std::vector<Member> member;  // per voter
    std::uint32_t verified = 0;
    bool emitted = false;
  };
  struct PerView {
    std::vector<Bucket> buckets;
    // kind·n + voter → 1 + index of the bucket holding the voter's first
    // vote of that kind in this view; 0 = none yet.
    std::vector<std::uint32_t> first;
    // Verification on only, allocated on first use. Voters caught with a bad
    // vote signature in this view; and, by kind·n + voter, exact re-sends of
    // a waiting vote (its voter's first of the kind), read when it is dropped.
    std::vector<bool> caught;
    std::vector<std::uint64_t> resends;
  };

  std::size_t slot(VoteKind kind, NodeId voter) const {
    return static_cast<std::size_t>(kind) * validators_->size() + voter;
  }
  /// Index of the (kind, block) bucket of `pv`, created if absent.
  std::size_t bucket_index(PerView& pv, VoteKind kind, const BlockId& block);
  /// Position of `voter`'s waiting vote in `bucket`.
  static std::size_t waiting_pos(const Bucket& bucket, NodeId voter);
  bool caught(const PerView& pv, NodeId voter) const {
    return voter < pv.caught.size() && pv.caught[voter];
  }
  /// Verifies one vote singly; a failure catches its voter.
  bool check(PerView& pv, const Vote& vote);
  /// Records a bad signature by `voter` in the view of `pv`.
  void catch_voter(PerView& pv, NodeId voter);
  /// Settles the waiting bucket.votes[i] singly: promoted to the verified
  /// prefix, or dropped. Returns whether it was valid.
  bool settle_one(PerView& pv, Bucket& bucket, std::size_t i);
  /// Verifies every waiting vote of a bucket, caught voters singly and the
  /// rest in one batch, and keeps the valid ones.
  void settle(PerView& pv, Bucket& bucket);
  /// Removes the waiting bucket.votes[i], found forged.
  void drop(PerView& pv, Bucket& bucket, std::size_t i);

  ValidatorSetPtr validators_;
  bool verify_;
  bool aggregate_;
  ViewWindow<PerView> window_;
  std::uint64_t equivocations_seen_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  std::uint64_t bad_signatures_caught_ = 0;
  std::uint64_t window_dropped_ = 0;
};

/// Accumulates timeout messages per view. Emits two one-shot events per
/// view: the f+1 threshold (evidence at least one honest node timed out —
/// the Bracha amplification trigger) and the quorum TC.
class TimeoutAccumulator {
 public:
  /// `current_view` as for VoteAccumulator.
  TimeoutAccumulator(ValidatorSetPtr validators, bool verify_signatures,
                     const View* current_view = nullptr)
      : validators_(std::move(validators)), verify_(verify_signatures), window_(current_view) {}

  struct Result {
    /// Nonzero the first time f+1 distinct senders are seen timing out in
    /// this view. Past the window: each time f+1 senders' highest timeouts
    /// reach a new highest view, that view (f+1 senders timed out at or past
    /// it, so an honest one did).
    View f_plus_1_view = 0;
    TcPtr tc;  // non-null the first time a quorum is reached
  };

  Result add(const TimeoutMsg& timeout);

  /// Installs a verified-certificate cache consulted when validating the
  /// locks attached to incoming timeouts (2f+1 timeouts usually carry the
  /// same few QCs). Borrowed pointer; must outlive the accumulator.
  void set_cert_cache(CertVerifyCache* cache) { cert_cache_ = cache; }

  std::size_t count(View view) const;
  /// Timeouts held now over the window, plus the views kept past it.
  std::size_t entries() const;
  void prune_below(View view) { window_.prune_below(view); }

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
  struct Seen {
    std::uint32_t pos = 0;      // 1 + index in timeouts; 0 = not counted
    bool equivocated = false;   // conflict already counted
  };
  struct Bucket {
    std::vector<TimeoutMsg> timeouts;  // distinct senders
    std::vector<Seen> seen;            // per sender
    bool f1_emitted = false;
    bool tc_emitted = false;
  };

  /// A timeout past the window: keeps its sender's highest view.
  Result add_beyond(const TimeoutMsg& timeout);

  ValidatorSetPtr validators_;
  bool verify_;
  CertVerifyCache* cert_cache_ = nullptr;
  ViewWindow<Bucket> window_;
  std::vector<View> beyond_;        // per sender: highest view past the window, 0 = none
  View beyond_f_plus_1_view_ = 0;   // last f_plus_1_view reported from beyond_
  std::uint64_t equivocations_seen_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
};

}  // namespace moonshot
