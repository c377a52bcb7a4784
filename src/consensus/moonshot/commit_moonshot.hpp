// Commit Moonshot (paper §V, Figure 4).
//
// Pipelined Moonshot plus an explicit pre-commit phase. Under the modified
// partially synchronous model (small messages ρ, large messages β) the
// pipelined protocols commit in 2β + ρ, because a block's commit waits for
// its child proposal to disseminate. Commit Moonshot's explicit commit votes
// bring this to β + 2ρ — strictly better whenever ρ < β (large payloads) —
// and let a *single* honest leader commit after GST.
//
// Added rules (Figure 4):
//  * Direct Pre-commit — on receiving C_v(B_k) while in view ≤ v with
//    timeout_view < v: multicast ⟨commit, H(B_k), v⟩.
//  * Indirect Pre-commit — on receiving C_v(B_k) having already commit-voted
//    a descendant of B_k (late certificate), timeout_view < v: multicast the
//    commit vote for B_k too.
//  * Alternative Direct Commit — a quorum of ⟨commit, H(B_k), v⟩ commits B_k
//    (and its ancestors), independent of any child certificate.
#pragma once

#include "consensus/moonshot/pipelined_moonshot.hpp"

namespace moonshot {

class CommitMoonshotNode final : public PipelinedMoonshotNode {
 public:
  explicit CommitMoonshotNode(NodeContext ctx);

  std::string protocol_name() const override { return "commit-moonshot"; }
  NodeCounters counters() const override;

 protected:
  void on_new_certificate(const QcPtr& qc) override;
  void on_commit_vote(const Vote& vote) override;
  void on_wal_restored(const wal::RecoveredState& state) override;

 private:
  /// Views below view_ − kCommitVoteDepth keep no commit-vote state: it can
  /// no longer help (blocks that miss the alternative path still commit via
  /// the two-chain rule).
  static constexpr View kCommitVoteDepth = 16;

  void send_commit_vote(View view, const BlockId& block);

  /// Commit votes this node has multicast, by view (for dedup and the
  /// descendant check of the indirect rule).
  std::map<View, BlockId> commit_voted_;
  /// Separate accumulator: commit votes never mix with block certificates.
  VoteAccumulator commit_acc_;
};

}  // namespace moonshot
