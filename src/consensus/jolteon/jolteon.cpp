#include "consensus/jolteon/jolteon.hpp"

#include "wal/wal.hpp"

namespace moonshot {

JolteonNode::JolteonNode(NodeContext ctx) : BaseNode(std::move(ctx)) {
  timer_deltas_ = 4;  // Table I: HotStuff-family view length 4Δ
}

void JolteonNode::on_wal_restored(const wal::RecoveredState& rs) {
  last_voted_round_ = rs.voting.last[static_cast<std::size_t>(VoteKind::kNormal)].view;
  if (rs.high_qc && rs.high_qc->rank() > high_qc_->rank()) high_qc_ = rs.high_qc;
}

void JolteonNode::handle(NodeId from, const MessagePtr& m) {
  if (handle_sync(from, *m)) return;
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, ProposalMsg>) {
          if (!msg.block || !msg.justify) return;
          const View r = msg.block->view();
          if (r < 1 || leader_of(r) != from) return;
          if (msg.block->parent() != msg.justify->block) return;
          // Either the parent was certified in the directly preceding round,
          // or a TC for the preceding round justifies the gap. A direct
          // proposal needs no TC, so one attached to it is never checked
          // and never used.
          const bool direct = msg.justify->view + 1 == r;
          if (!direct) {
            if (!msg.tc || msg.tc->view + 1 != r) return;
            if (msg.justify->rank() < msg.tc->high_qc_view()) return;
            if (!check_tc(*msg.tc)) return;
          }
          if (!check_qc(*msg.justify)) return;
          trace(obs::EventKind::kProposalRecv, r, msg.block->height(), from);
          store_block(msg.block);
          pending_prop_.emplace(r, msg);
          handle_qc(msg.justify, /*already_validated=*/true);
          if (!direct) handle_tc(msg.tc, /*already_validated=*/true);
          try_vote();
        } else if constexpr (std::is_same_v<T, VoteMsg>) {
          // Votes arrive only at the next leader (linear steady state).
          if (msg.vote.voter != from) return;
          if (msg.vote.kind != VoteKind::kNormal) return;
          trace(obs::EventKind::kVoteRecv, msg.vote.view,
                static_cast<std::uint64_t>(msg.vote.kind), from);
          const BlockPtr body = store_.get(msg.vote.block);
          if (const QcPtr qc = vote_acc_.add(msg.vote, body ? body->height() : 0)) {
            handle_qc(qc, /*already_validated=*/true);
          }
        } else if constexpr (std::is_same_v<T, TimeoutMsgWrap>) {
          if (msg.timeout.sender != from) return;
          if (msg.timeout.view < 1) return;
          if (msg.timeout.high_qc) handle_qc(msg.timeout.high_qc, /*already_validated=*/false);
          answer_stale_timeout(from, msg.timeout.view, high_qc_);
          const auto result = timeout_acc_.add(msg.timeout);
          if (const View v = result.f_plus_1_view; v != 0 && v >= view_) send_timeout(v);
          if (result.tc) {
            trace(obs::EventKind::kTcFormed, result.tc->view, result.tc->high_qc_view());
            handle_tc(result.tc, /*already_validated=*/true);
          }
        } else if constexpr (std::is_same_v<T, CertMsg>) {
          if (msg.qc) handle_qc(msg.qc, /*already_validated=*/false);
        } else if constexpr (std::is_same_v<T, TcMsg>) {
          if (msg.tc) handle_tc(msg.tc, /*already_validated=*/false);
        } else {
          // Opt/fb proposals and status messages are not part of Jolteon
          // or HotStuff.
        }
      },
      *m);
}

void JolteonNode::handle_qc(const QcPtr& qc, bool already_validated) {
  if (!qc || qc->kind != VoteKind::kNormal) return;
  const QcPtr known = qc_for_view(qc->view);
  const bool duplicate = known && known->block == qc->block;
  if (duplicate && qc->view + 1 <= view_) return;
  if (!duplicate && !already_validated && !check_qc(*qc)) return;

  record_qc_and_try_commit(qc);
  update_lock(qc);

  if (qc->view >= view_) {
    // Advance round via QC. The QC holder is normally the next leader (it
    // aggregated the votes); everyone else advances via its proposal.
    advance_to(qc->view + 1, nullptr);
  }
  try_vote();
}

void JolteonNode::update_lock(const QcPtr& qc) {
  if (qc->rank() <= high_qc_->rank()) return;
  high_qc_ = qc;
  trace(obs::EventKind::kLockUpdated, qc->view, obs::id_prefix(qc->block));
}

void JolteonNode::handle_tc(const TcPtr& tc, bool already_validated) {
  if (!tc) return;
  if (tc->view < view_) return;
  if (!already_validated && !check_tc(*tc)) return;
  if (tc->high_qc) handle_qc(tc->high_qc, /*already_validated=*/true);
  send_timeout(tc->view);  // amplification (mirrors the Moonshot pacemaker)
  advance_to(tc->view + 1, tc);
}

void JolteonNode::advance_to(View new_round, const TcPtr& via_tc) {
  if (new_round <= view_) return;
  begin_view(new_round, via_tc);
  proposed_in_round_ = false;
  pending_prop_.erase(pending_prop_.begin(), pending_prop_.lower_bound(view_));

  if (i_am_leader(view_)) propose();
  try_vote();
}

void JolteonNode::propose() {
  if (proposed_in_round_) return;
  const BlockPtr parent = store_.get(high_qc_->block);
  if (!parent) {
    request_block(high_qc_->block);  // fetch; on_block_stored retries
    return;
  }
  proposed_in_round_ = true;
  const BlockPtr block = create_block(view_, parent);
  const MessagePtr msg = make_message<ProposalMsg>(
      block, high_qc_, high_qc_->view + 1 == view_ ? nullptr : entry_tc_, ctx_.id);
  remember_proposal(view_, msg);
  trace(obs::EventKind::kProposalSent, view_, block->height(), block->payload().wire_size());
  multicast(msg);
}

void JolteonNode::try_vote() {
  if (view_ < 1) return;
  if (last_voted_round_ >= view_ || timeout_view_ >= view_) return;
  auto it = pending_prop_.find(view_);
  if (it == pending_prop_.end()) return;
  const BlockPtr& block = it->second.block;
  const QcPtr& justify = it->second.justify;
  const TcPtr& tc = it->second.tc;

  const bool direct = justify->view + 1 == view_;
  const bool via_tc = tc && tc->view + 1 == view_ && justify->rank() >= tc->high_qc_view();
  if (!direct && !via_tc) return;
  if (!respects_lock(justify)) return;
  if (block->parent() != justify->block || !link_valid(block)) return;

  const auto vote = make_vote(VoteKind::kNormal, view_, block->id());
  if (!vote) return;
  last_voted_round_ = view_;
  // Linear steady state: the vote goes to the *next* leader only.
  unicast(leader_of(view_ + 1), make_message<VoteMsg>(*vote));
}

void JolteonNode::on_block_stored(const BlockPtr& block) {
  // Leader retry first: after a TC-driven entry the high-QC block can be
  // many views old, so it must not be filtered by the staleness guard below.
  if (i_am_leader(view_) && !proposed_in_round_ && high_qc_->block == block->id()) propose();
  if (block->view() + 1 < view_) return;
  try_vote();
}

}  // namespace moonshot
