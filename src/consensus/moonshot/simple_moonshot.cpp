#include "consensus/moonshot/simple_moonshot.hpp"

#include "wal/wal.hpp"

namespace moonshot {

namespace {
constexpr int kProposeDeltas = 2;  // leader's fallback proposal wait = 2Δ
}  // namespace

SimpleMoonshotNode::SimpleMoonshotNode(NodeContext ctx) : BaseNode(std::move(ctx)) {
  timer_deltas_ = 5;  // view timer = 5Δ (Figure 1)
}

void SimpleMoonshotNode::on_wal_restored(const wal::RecoveredState& rs) {
  voted_view_ = rs.voting.last[static_cast<std::size_t>(VoteKind::kNormal)].view;
  if (rs.high_qc && rs.high_qc->rank() > lock_->rank()) lock_ = rs.high_qc;
  if (rs.high_qc && rs.high_qc->view > highest_qc_->view) highest_qc_ = rs.high_qc;
}

void SimpleMoonshotNode::halt() {
  BaseNode::halt();
  // Invalidate any scheduled 2Δ fallback proposal.
  ++propose_generation_;
  if (propose_deadline_task_ != 0) {
    ctx_.sched->cancel(propose_deadline_task_);
    propose_deadline_task_ = 0;
  }
}

void SimpleMoonshotNode::handle(NodeId from, const MessagePtr& m) {
  if (handle_sync(from, *m)) return;
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, ProposalMsg>) {
          if (!msg.block || !msg.justify) return;
          const View v = msg.block->view();
          if (v < 1 || leader_of(v) != from) return;  // not from the view's leader
          trace(obs::EventKind::kProposalRecv, v, msg.block->height(), from);
          if (msg.block->parent() != msg.justify->block) return;
          if (!check_qc(*msg.justify)) return;
          store_block(msg.block);
          pending_prop_.emplace(v, msg);  // first one wins
          handle_qc(msg.justify, /*already_validated=*/true);
          try_vote();
        } else if constexpr (std::is_same_v<T, OptProposalMsg>) {
          if (!msg.block) return;
          const View v = msg.block->view();
          if (v < 1 || leader_of(v) != from) return;
          trace(obs::EventKind::kOptProposalRecv, v, msg.block->height(), from);
          store_block(msg.block);
          pending_opt_.emplace(v, msg);
          try_vote();
        } else if constexpr (std::is_same_v<T, VoteMsg>) {
          if (msg.vote.voter != from) return;  // votes travel first-hand
          if (msg.vote.kind != VoteKind::kNormal) return;  // Simple has one kind
          trace(obs::EventKind::kVoteRecv, msg.vote.view,
                static_cast<std::uint64_t>(msg.vote.kind), from);
          const BlockPtr body = store_.get(msg.vote.block);
          if (const QcPtr qc = vote_acc_.add(msg.vote, body ? body->height() : 0)) {
            handle_qc(qc, /*already_validated=*/true);
          }
        } else if constexpr (std::is_same_v<T, TimeoutMsgWrap>) {
          if (msg.timeout.sender != from) return;
          if (msg.timeout.view < 1) return;
          // The lock rises only at view entry, so the freshest catch-up
          // evidence is the highest certificate received.
          answer_stale_timeout(from, msg.timeout.view, highest_qc_);
          const auto result = timeout_acc_.add(msg.timeout);
          // Figure 1 rule 4: f+1 timeouts for the *current* view make us
          // stop voting and join the timeout.
          if (result.f_plus_1_view == view_) send_timeout(view_);
          if (result.tc) {
            trace(obs::EventKind::kTcFormed, result.tc->view);
            handle_tc(result.tc, /*already_validated=*/true);
          }
        } else if constexpr (std::is_same_v<T, CertMsg>) {
          if (msg.qc) handle_qc(msg.qc, /*already_validated=*/false);
        } else if constexpr (std::is_same_v<T, TcMsg>) {
          if (msg.tc) handle_tc(msg.tc, /*already_validated=*/false);
        } else if constexpr (std::is_same_v<T, StatusMsg>) {
          // Status messages inform the leader of stale locks; the embedded
          // certificate is useful to any node.
          if (msg.lock) handle_qc(msg.lock, /*already_validated=*/false);
        } else if constexpr (std::is_same_v<T, FbProposalMsg>) {
          // Simple Moonshot has no fallback proposals; ignore.
        }
      },
      *m);
}

void SimpleMoonshotNode::handle_qc(const QcPtr& qc, bool already_validated) {
  if (!qc || qc->kind == VoteKind::kCommit) return;
  // Cheap dedup before any validation: certificates are re-multicast by
  // every node on view entry, so most arrivals are duplicates.
  const QcPtr known = qc_for_view(qc->view);
  const bool duplicate = known && known->block == qc->block;
  if (duplicate && qc->view + 1 <= view_) return;  // nothing new to trigger

  if (!duplicate && !already_validated && !check_qc(*qc)) return;

  record_qc_and_try_commit(qc);
  if (qc->rank() > highest_qc_->rank()) highest_qc_ = qc;

  if (qc->view >= view_) {
    advance_to(qc->view + 1, qc, nullptr);
  } else if (qc->view == view_ - 1 && i_am_leader(view_) && !proposed_in_view_) {
    // Figure 1 Propose rule (i): C_{v-1} arrived before the 2Δ deadline.
    propose_normal(qc);
  }
}

void SimpleMoonshotNode::handle_tc(const TcPtr& tc, bool already_validated) {
  if (!tc) return;
  if (tc->view < view_) return;  // stale
  if (!already_validated && !check_tc(*tc)) return;
  if (tc->high_qc) handle_qc(tc->high_qc, /*already_validated=*/true);
  if (tc->view >= view_) advance_to(tc->view + 1, nullptr, tc);
}

void SimpleMoonshotNode::advance_to(View new_view, const QcPtr& via_qc, const TcPtr& via_tc) {
  if (new_view <= view_) return;

  // (i) Multicast the certificate that triggered the transition, so every
  // honest node follows within Δ (liveness + reorg resilience).
  if (via_qc) {
    multicast(make_message<CertMsg>(via_qc, ctx_.id));
  } else if (via_tc) {
    multicast(make_message<TcMsg>(via_tc, ctx_.id));
  }

  // (ii) Update the lock to the highest certificate received so far. Simple
  // Moonshot updates locks only here, never mid-view.
  if (highest_qc_->rank() > lock_->rank()) {
    lock_ = highest_qc_;
    trace(obs::EventKind::kLockUpdated, lock_->view, obs::id_prefix(lock_->block));
  }

  // (iii) Report a stale lock to the incoming leader.
  if (lock_->view + 1 < new_view) {
    unicast(leader_of(new_view), make_message<StatusMsg>(new_view, lock_, ctx_.id));
  }

  // (iv) Enter the view; (v) reset the 5Δ timer.
  begin_view(new_view, via_tc);
  proposed_in_view_ = false;
  ++propose_generation_;  // invalidates any scheduled 2Δ proposal
  pending_opt_.erase(pending_opt_.begin(), pending_opt_.lower_bound(view_));
  pending_prop_.erase(pending_prop_.begin(), pending_prop_.lower_bound(view_));

  if (i_am_leader(view_)) {
    if (via_qc) {
      // Entered via C_{v-1}: propose immediately (Figure 1 rule 1(i)).
      propose_normal(via_qc);
    } else {
      // Entered via TC: wait for C_{v-1} up to 2Δ, then extend the highest
      // known certificate (rule 1(ii)). Status messages arriving meanwhile
      // raise highest_qc_.
      const std::uint64_t generation = propose_generation_;
      propose_deadline_task_ = ctx_.sched->schedule_after(
          ctx_.delta * kProposeDeltas, [this, generation] {
            if (generation != propose_generation_ || proposed_in_view_) return;
            propose_normal(highest_qc_);
          });
    }
  }
  try_vote();
}

void SimpleMoonshotNode::propose_normal(const QcPtr& justify) {
  if (proposed_in_view_) return;
  if (ctx_.lso_mode && opt_proposed_view_ == view_) return;  // LSO: spoke already
  const BlockPtr parent = store_.get(justify->block);
  if (!parent) {
    request_block(justify->block);  // fetch; on_block_stored retries
    return;
  }
  proposed_in_view_ = true;
  ++propose_generation_;
  const BlockPtr block = create_block(view_, parent);
  trace(obs::EventKind::kProposalSent, view_, block->height(), block->payload().wire_size());
  const MessagePtr msg = make_message<ProposalMsg>(block, justify, nullptr, ctx_.id);
  remember_proposal(view_, msg);
  multicast(msg);
}

void SimpleMoonshotNode::try_vote() {
  if (view_ < 1) return;
  if (voted_view_ >= view_) return;          // at most one vote per view
  if (timeout_view_ >= view_) return;        // stopped voting in this view

  // Rule 2a: optimistic proposal, parent certificate equals our lock.
  if (auto it = pending_opt_.find(view_); it != pending_opt_.end()) {
    const BlockPtr& block = it->second.block;
    if (lock_->view + 1 == view_ && lock_->block == block->parent() && link_valid(block)) {
      do_vote(block);
      return;
    }
  }
  // Rule 2b: normal proposal whose justify ranks at least our lock.
  if (auto it = pending_prop_.find(view_); it != pending_prop_.end()) {
    const BlockPtr& block = it->second.block;
    const QcPtr& justify = it->second.justify;
    if (justify->rank() >= lock_->rank() && block->parent() == justify->block &&
        link_valid(block)) {
      do_vote(block);
      return;
    }
  }
}

void SimpleMoonshotNode::do_vote(const BlockPtr& block) {
  const auto vote = make_vote(VoteKind::kNormal, view_, block->id());
  if (!vote) return;
  voted_view_ = view_;
  multicast(make_message<VoteMsg>(*vote));

  // Figure 1 rule 3: optimistic proposal by the next leader.
  if (i_am_leader(view_ + 1) && opt_proposed_view_ < view_ + 1) {
    opt_proposed_view_ = view_ + 1;
    const BlockPtr child = create_block(view_ + 1, block);
    trace(obs::EventKind::kOptProposalSent, child->view(), child->height(),
          child->payload().wire_size());
    const MessagePtr msg = make_message<OptProposalMsg>(child, ctx_.id);
    remember_proposal(child->view(), msg);
    multicast(msg);
  }
}

void SimpleMoonshotNode::on_block_stored(const BlockPtr& block) {
  // A parent body arriving can unblock voting or a pending leader proposal.
  if (block->view() + 1 < view_) return;
  try_vote();
  if (i_am_leader(view_) && !proposed_in_view_ && highest_qc_->view + 1 == view_ &&
      highest_qc_->block == block->id()) {
    propose_normal(highest_qc_);
  }
}

}  // namespace moonshot
