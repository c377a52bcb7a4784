// Protocol conformance checking over observed message traces.
//
// The property tests assert *outcomes* (safety, liveness, chain shape); the
// conformance checker asserts *behaviour*: every message an honest node
// emits must be one its protocol's figure allows. It taps the simulated
// network, records who sent what, and validates per-sender rules offline:
//
//  * voting budgets — Simple Moonshot: ≤ 1 vote per view; Pipelined/Commit:
//    ≤ 1 optimistic + ≤ 1 normal-or-fallback per view, and an optimistic +
//    normal pair must name the same block; Jolteon/HotStuff: ≤ 1 vote per
//    round;
//  * proposal provenance — block proposals only from the view's leader, at
//    most one distinct block per (leader, view) in normal operation
//    (LCO: the optimistic and normal proposals must carry the same block);
//  * timeout monotonicity — a sender may retransmit its timeout for a view
//    (the pacemaker re-sends while stuck, since links may lose the first
//    copy), but successive timeouts must carry a non-decreasing lock;
//  * certified-view uniqueness — across the whole trace, at most one block
//    gathers a quorum of same-kind votes per view (the structural heart of
//    safety).
//
// Byzantine senders are exempt from the behavioural rules (they exist to
// break them) but still feed the certified-view uniqueness check.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace moonshot {

class ConformanceChecker {
 public:
  ConformanceChecker(ProtocolKind protocol, ValidatorSetPtr validators,
                     LeaderSchedulePtr leaders, std::vector<bool> is_byzantine);

  /// Observes one sent message (call from a network tap).
  void observe(NodeId from, const Message& m);

  /// Runs all offline checks; returns human-readable violations (empty =
  /// conformant).
  std::vector<std::string> violations() const;

 private:
  void observe_vote(NodeId from, const Vote& vote);

  ProtocolKind protocol_;
  ValidatorSetPtr validators_;
  LeaderSchedulePtr leaders_;
  std::vector<bool> byzantine_;

  struct SenderView {
    int opt_votes = 0;
    int main_votes = 0;  // normal + fallback (+ the single SM/J/HS vote)
    int commit_votes = 0;
    int timeouts = 0;
    View last_timeout_qc_view = 0;       // highest lock rank carried so far
    bool timeout_lock_regressed = false; // a later timeout carried a lower lock
    /// Blocks named by optimistic and *normal* votes. Fallback votes are
    /// excluded: after a TC, a node may fallback-vote a block that differs
    /// from its optimistic vote (rule 2b allows it even when the optimistic
    /// proposal equivocated), so only an opt/normal mismatch is a violation.
    std::set<BlockId> voted_blocks;
    /// Proposed blocks with their parents. An honest leader may propose two
    /// *distinct* blocks in a view only when correcting a failed optimistic
    /// proposal (paper §III-B) — i.e. the two must have different parents;
    /// with per-view-fixed payloads, same parent ⇒ same block.
    std::map<BlockId, BlockId> proposed_blocks;
    bool proposed_without_leadership = false;
  };
  std::map<std::pair<NodeId, View>, SenderView> by_sender_view_;

  // (view, kind) -> block -> distinct voters; for certified-view uniqueness.
  std::map<std::pair<View, VoteKind>, std::map<BlockId, std::set<NodeId>>> votes_;
};

/// Builds a checker wired to `e`'s protocol, validator set and leader
/// schedule. Statically faulty nodes — plus any `extra_exempt` ones (e.g.
/// chaos m=amnesia targets, which forget their votes and may vote twice) —
/// are exempt from the per-sender behavioural rules but still feed
/// certified-view uniqueness.
ConformanceChecker make_conformance_checker(const Experiment& e,
                                            const std::vector<NodeId>& extra_exempt = {});

/// Convenience: runs an Experiment with a conformance tap installed and
/// returns the violations after `duration`.
std::vector<std::string> run_conformance(ExperimentConfig cfg);

}  // namespace moonshot
