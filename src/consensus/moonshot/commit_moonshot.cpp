#include "consensus/moonshot/commit_moonshot.hpp"

#include "wal/wal.hpp"

namespace moonshot {

CommitMoonshotNode::CommitMoonshotNode(NodeContext ctx)
    : PipelinedMoonshotNode(std::move(ctx)),
      commit_acc_(ctx_.validators, ctx_.verify_signatures, ctx_.aggregate_certificates,
                  &view_) {}

NodeCounters CommitMoonshotNode::counters() const {
  NodeCounters c = PipelinedMoonshotNode::counters();
  c.vote_window_dropped += commit_acc_.window_dropped();
  c.accumulator_entries += commit_acc_.entries();
  return c;
}

void CommitMoonshotNode::on_new_certificate(const QcPtr& qc) {
  if (qc->is_genesis()) return;

  // Direct Pre-commit: fires while our view has not passed the certificate's.
  if (view_ <= qc->view && timeout_view_ < qc->view) {
    send_commit_vote(qc->view, qc->block);
    return;
  }

  // Indirect Pre-commit: a certificate arriving late (we already moved on)
  // still earns a commit vote if we commit-voted one of its descendants.
  if (timeout_view_ < qc->view && !commit_voted_.count(qc->view)) {
    const auto latest = commit_voted_.rbegin();
    if (latest != commit_voted_.rend() &&
        store_.extends(latest->second, qc->block)) {
      send_commit_vote(qc->view, qc->block);
    }
  }
}

void CommitMoonshotNode::on_commit_vote(const Vote& vote) {
  if (vote.kind != VoteKind::kCommit) return;
  if (view_ > kCommitVoteDepth) commit_acc_.prune_below(view_ - kCommitVoteDepth);
  const BlockPtr body = store_.get(vote.block);
  if (const QcPtr qc = commit_acc_.add(vote, body ? body->height() : 0)) {
    // Alternative Direct Commit: a quorum of commit votes commits the block
    // and its ancestors — no child certificate needed.
    trace(obs::EventKind::kQcFormed, qc->view, obs::id_prefix(qc->block),
          static_cast<std::uint64_t>(qc->kind));
    commit_chain_by_id(qc->block);
  }
}

void CommitMoonshotNode::send_commit_vote(View view, const BlockId& block) {
  if (commit_voted_.count(view)) return;  // at most one commit vote per view
  const auto vote = make_vote(VoteKind::kCommit, view, block);
  if (!vote) return;
  commit_voted_.emplace(view, block);
  multicast(make_message<VoteMsg>(*vote));
  if (view_ > kCommitVoteDepth)
    commit_voted_.erase(commit_voted_.begin(),
                        commit_voted_.lower_bound(view_ - kCommitVoteDepth));
}

void CommitMoonshotNode::on_wal_restored(const wal::RecoveredState& rs) {
  PipelinedMoonshotNode::on_wal_restored(rs);
  // Reinstate the per-view commit-vote record so the indirect rule and the
  // one-commit-vote-per-view guard survive the crash.
  commit_voted_ = rs.voting.commit_votes;
}

}  // namespace moonshot
