#include "consensus/moonshot/pipelined_moonshot.hpp"

#include <algorithm>

#include "support/mutations.hpp"
#include "wal/wal.hpp"

namespace moonshot {

PipelinedMoonshotNode::PipelinedMoonshotNode(NodeContext ctx) : BaseNode(std::move(ctx)) {
  timer_deltas_ = 3;  // view timer = 3Δ (Figure 3)
}

void PipelinedMoonshotNode::on_wal_restored(const wal::RecoveredState& rs) {
  const auto& opt = rs.voting.last[static_cast<std::size_t>(VoteKind::kOptimistic)];
  opt_voted_view_ = opt.view;
  opt_voted_block_ = opt.block;
  main_voted_view_ =
      std::max(rs.voting.last[static_cast<std::size_t>(VoteKind::kNormal)].view,
               rs.voting.last[static_cast<std::size_t>(VoteKind::kFallback)].view);
  if (rs.high_qc && rs.high_qc->rank() > lock_->rank()) lock_ = rs.high_qc;
}

void PipelinedMoonshotNode::handle(NodeId from, const MessagePtr& m) {
  if (handle_sync(from, *m)) return;
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, ProposalMsg>) {
          if (!msg.block || !msg.justify) return;
          const View v = msg.block->view();
          if (v < 1 || leader_of(v) != from) return;
          trace(obs::EventKind::kProposalRecv, v, msg.block->height(), from);
          // Normal proposals must be justified by the parent's certificate
          // from the directly preceding view.
          if (msg.block->parent() != msg.justify->block) return;
          if (msg.justify->view + 1 != v && !mutation_on(Mutation::kStaleJustify)) return;
          if (!check_qc(*msg.justify)) return;
          store_block(msg.block);
          if (mutation_on(Mutation::kDoubleVote)) {
            // Vote for *every* proposal seen for the view, not just the first.
            if (auto vote = make_vote(VoteKind::kNormal, v, msg.block->id())) send_vote(*vote);
          }
          pending_prop_.emplace(v, msg);
          handle_qc(msg.justify, /*already_validated=*/true);
          try_vote();
        } else if constexpr (std::is_same_v<T, OptProposalMsg>) {
          if (!msg.block) return;
          const View v = msg.block->view();
          if (v < 1 || leader_of(v) != from) return;
          trace(obs::EventKind::kOptProposalRecv, v, msg.block->height(), from);
          store_block(msg.block);
          if (mutation_on(Mutation::kDoubleVote)) {
            if (auto vote = make_vote(VoteKind::kOptimistic, v, msg.block->id())) send_vote(*vote);
          }
          pending_opt_.emplace(v, msg);
          try_vote();
        } else if constexpr (std::is_same_v<T, FbProposalMsg>) {
          if (!msg.block || !msg.justify || !msg.tc) return;
          const View v = msg.block->view();
          if (v < 1 || leader_of(v) != from) return;
          trace(obs::EventKind::kFbProposalRecv, v, msg.block->height(), from);
          if (msg.block->parent() != msg.justify->block) return;
          if (msg.tc->view + 1 != v) return;
          // The justifying lock must rank at least the TC's proven highest.
          if (msg.justify->rank() < msg.tc->high_qc_view() &&
              !mutation_on(Mutation::kFallbackIgnoresTcRank))
            return;
          if (!check_qc(*msg.justify) || !check_tc(*msg.tc)) return;
          store_block(msg.block);
          pending_fb_.emplace(v, msg);
          handle_qc(msg.justify, /*already_validated=*/true);
          handle_tc(msg.tc, /*already_validated=*/true);
          try_vote();
        } else if constexpr (std::is_same_v<T, VoteMsg>) {
          if (msg.vote.voter != from) return;
          trace(obs::EventKind::kVoteRecv, msg.vote.view,
                static_cast<std::uint64_t>(msg.vote.kind), from);
          if (msg.vote.kind == VoteKind::kCommit) {
            on_commit_vote(msg.vote);  // Commit Moonshot
            return;
          }
          const BlockPtr body = store_.get(msg.vote.block);
          if (const QcPtr qc = vote_acc_.add(msg.vote, body ? body->height() : 0)) {
            handle_qc(qc, /*already_validated=*/true);
          }
        } else if constexpr (std::is_same_v<T, TimeoutMsgWrap>) {
          if (msg.timeout.sender != from) return;
          if (msg.timeout.view < 1) return;
          // Timeouts carry the sender's lock — a certificate in its own right.
          if (msg.timeout.high_qc) handle_qc(msg.timeout.high_qc, /*already_validated=*/false);
          answer_stale_timeout(from, msg.timeout.view, lock_);
          const auto result = timeout_acc_.add(msg.timeout);
          // Bracha amplification: f+1 timeouts for any view ≥ ours → join.
          if (const View v = result.f_plus_1_view; v != 0 && v >= view_) send_timeout(v);
          if (result.tc) {
            trace(obs::EventKind::kTcFormed, result.tc->view);
            handle_tc(result.tc, /*already_validated=*/true);
          }
        } else if constexpr (std::is_same_v<T, CertMsg>) {
          if (msg.qc) handle_qc(msg.qc, /*already_validated=*/false);
        } else if constexpr (std::is_same_v<T, TcMsg>) {
          if (msg.tc) handle_tc(msg.tc, /*already_validated=*/false);
        } else if constexpr (std::is_same_v<T, StatusMsg>) {
          // Not part of Pipelined Moonshot; process the certificate anyway.
          if (msg.lock) handle_qc(msg.lock, /*already_validated=*/false);
        }
      },
      *m);
}

void PipelinedMoonshotNode::handle_qc(const QcPtr& qc, bool already_validated) {
  if (!qc || qc->kind == VoteKind::kCommit) return;
  const QcPtr known = qc_for_view(qc->view);
  const bool duplicate = known && known->block == qc->block;
  if (duplicate && qc->view + 1 <= view_) return;
  if (!duplicate && !already_validated && !check_qc(*qc)) return;

  if (!duplicate) on_new_certificate(qc);  // Commit Moonshot pre-commit hook

  record_qc_and_try_commit(qc);

  // Lock rule: rises immediately on any higher-ranked certificate.
  if (qc->rank() > lock_->rank() && !mutation_on(Mutation::kLockNeverRises)) {
    lock_ = qc;
    trace(obs::EventKind::kLockUpdated, qc->view, obs::id_prefix(qc->block));
  }

  if (qc->view >= view_) advance_to(qc->view + 1, qc, nullptr);
  // No leader-propose-on-late-certificate path here: Pipelined Moonshot
  // leaders propose exactly once, at view entry.
  try_vote();
}

void PipelinedMoonshotNode::handle_tc(const TcPtr& tc, bool already_validated) {
  if (!tc) return;
  // Amplification applies to TCs for any view ≥ ours; older TCs are stale.
  if (tc->view < view_) return;
  if (!already_validated && !check_tc(*tc)) return;
  if (tc->high_qc) handle_qc(tc->high_qc, /*already_validated=*/true);
  // Figure 3 rule 4: receiving TC_{v'} (v' ≥ v) without having sent T_{v'}
  // forces our own timeout for v' before the view advances.
  send_timeout(tc->view);
  advance_to(tc->view + 1, nullptr, tc);
}

void PipelinedMoonshotNode::advance_to(View new_view, const QcPtr& via_qc, const TcPtr& via_tc) {
  if (new_view <= view_) return;

  if (via_qc) {
    multicast(make_message<CertMsg>(via_qc, ctx_.id));
  } else if (via_tc) {
    // TCs are unicast to the incoming leader only (communication economy;
    // amplification keeps everyone else live).
    unicast(leader_of(new_view), make_message<TcMsg>(via_tc, ctx_.id));
  }

  begin_view(new_view, via_tc);
  proposed_in_view_ = false;
  pending_opt_.erase(pending_opt_.begin(), pending_opt_.lower_bound(view_));
  pending_prop_.erase(pending_prop_.begin(), pending_prop_.lower_bound(view_));
  pending_fb_.erase(pending_fb_.begin(), pending_fb_.lower_bound(view_));

  // Figure 3 rule 1: propose at view entry, after Advance View and Lock.
  if (i_am_leader(view_)) {
    if (via_qc) {
      propose_normal(via_qc);
    } else {
      propose_fallback(via_tc);
    }
  }
  try_vote();
}

void PipelinedMoonshotNode::propose_normal(const QcPtr& justify) {
  if (proposed_in_view_) return;
  if (ctx_.lso_mode && opt_proposed_view_ == view_) return;  // LSO: spoke already
  const BlockPtr parent = store_.get(justify->block);
  if (!parent) {
    request_block(justify->block);  // fetch; on_block_stored retries
    return;
  }
  proposed_in_view_ = true;
  const BlockPtr block = create_block(view_, parent);
  trace(obs::EventKind::kProposalSent, view_, block->height(), block->payload().wire_size());
  const MessagePtr msg = make_message<ProposalMsg>(block, justify, nullptr, ctx_.id);
  remember_proposal(view_, msg);
  multicast(msg);
}

void PipelinedMoonshotNode::propose_fallback(const TcPtr& tc) {
  if (proposed_in_view_) return;
  if (ctx_.lso_mode && opt_proposed_view_ == view_) return;  // LSO: spoke already
  const BlockPtr parent = store_.get(lock_->block);
  if (!parent) {
    request_block(lock_->block);
    return;
  }
  proposed_in_view_ = true;
  const BlockPtr block = create_block(view_, parent);
  trace(obs::EventKind::kFbProposalSent, view_, block->height(),
        block->payload().wire_size());
  const MessagePtr msg = make_message<FbProposalMsg>(block, lock_, tc, ctx_.id);
  remember_proposal(view_, msg);
  multicast(msg);
}

void PipelinedMoonshotNode::try_vote() {
  if (view_ < 1) return;

  // Rule 2a — optimistic vote: needs timeout_view < v-1, lock == C_{v-1}
  // over the parent, and no vote of any kind sent in v yet.
  if (opt_voted_view_ < view_ && main_voted_view_ < view_ && timeout_view_ + 1 < view_) {
    if (auto it = pending_opt_.find(view_); it != pending_opt_.end()) {
      const BlockPtr& block = it->second.block;
      if (lock_->view + 1 == view_ && lock_->block == block->parent() && link_valid(block)) {
        if (auto vote = make_vote(VoteKind::kOptimistic, view_, block->id())) {
          opt_voted_view_ = view_;
          opt_voted_block_ = block->id();
          send_vote(*vote);
          after_vote(block);
        }
      }
    }
  }

  // Rules 2b — at most one normal or fallback vote per view.
  if (main_voted_view_ >= view_ || timeout_view_ >= view_) return;

  // Normal vote: justify must be C_{v-1} over the direct parent; forbidden
  // only if we optimistically voted for a *different* block this view.
  if (auto it = pending_prop_.find(view_); it != pending_prop_.end()) {
    const BlockPtr& block = it->second.block;
    const QcPtr& justify = it->second.justify;
    const bool equivocates =
        opt_voted_view_ == view_ && opt_voted_block_ != block->id();
    if (!equivocates &&
        (justify->view + 1 == view_ || mutation_on(Mutation::kStaleJustify)) &&
        block->parent() == justify->block && link_valid(block)) {
      if (auto vote = make_vote(VoteKind::kNormal, view_, block->id())) {
        main_voted_view_ = view_;
        send_vote(*vote);
        after_vote(block);
      }
      return;
    }
  }

  // Fallback vote: justify must rank at least the TC's proven highest lock.
  // Allowed even after an optimistic vote for an equivocating block.
  if (auto it = pending_fb_.find(view_); it != pending_fb_.end()) {
    const BlockPtr& block = it->second.block;
    const QcPtr& justify = it->second.justify;
    const TcPtr& tc = it->second.tc;
    if ((justify->rank() >= tc->high_qc_view() ||
         mutation_on(Mutation::kFallbackIgnoresTcRank)) &&
        block->parent() == justify->block && link_valid(block)) {
      if (auto vote = make_vote(VoteKind::kFallback, view_, block->id())) {
        main_voted_view_ = view_;
        send_vote(*vote);
        after_vote(block);
      }
    }
  }
}

void PipelinedMoonshotNode::send_vote(const Vote& vote) {
  if (ctx_.multicast_votes) {
    multicast(make_message<VoteMsg>(vote));
  } else {
    // Ablation: designated-aggregator voting (the linear-protocol pattern the
    // paper argues against). The next leader alone assembles certificates.
    unicast(leader_of(vote.view + 1), make_message<VoteMsg>(vote));
  }
}

void PipelinedMoonshotNode::after_vote(const BlockPtr& block) {
  // Figure 3 rule 3: upon voting for B_k in v, L_{v+1} optimistically
  // proposes B_{k+1} (once per view).
  if (!ctx_.enable_opt_proposal) return;  // ablation: ω reverts to 2δ
  if (i_am_leader(block->view() + 1) && opt_proposed_view_ < block->view() + 1) {
    opt_proposed_view_ = block->view() + 1;
    const BlockPtr child = create_block(block->view() + 1, block);
    trace(obs::EventKind::kOptProposalSent, child->view(), child->height(),
          child->payload().wire_size());
    const MessagePtr msg = make_message<OptProposalMsg>(child, ctx_.id);
    remember_proposal(child->view(), msg);
    multicast(msg);
  }
}

void PipelinedMoonshotNode::on_block_stored(const BlockPtr& block) {
  if (block->view() + 1 < view_) return;
  try_vote();
  // A leader whose normal proposal was blocked on the missing body of its
  // lock retries. A blocked fallback proposal (we timed out of the previous
  // view) is not retried: the 3Δ timer recovers liveness.
  if (i_am_leader(view_) && !proposed_in_view_ && lock_->block == block->id() &&
      lock_->view + 1 == view_ && timeout_view_ + 1 != view_) {
    propose_normal(lock_);
  }
}

}  // namespace moonshot
