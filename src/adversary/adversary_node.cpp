#include "adversary/adversary_node.hpp"

#include <sstream>

#include "support/assert.hpp"

namespace moonshot::adversary {

AdversaryNode::AdversaryNode(NodeContext ctx, std::vector<Binding> bindings,
                             CoalitionPtr coalition)
    : BaseNode(std::move(ctx)), bindings_(std::move(bindings)), coalition_(std::move(coalition)) {
  AdversarySpec mimic_spec;
  mimic_spec.node = ctx_.id;
  mimic_spec.strategy = "honest-mimic";
  fallback_ = std::make_unique<AdversaryStrategy>(std::move(mimic_spec));
  if (!coalition_) {
    coalition_ = std::make_shared<CoalitionState>();
    coalition_->members.push_back(ctx_.id);
  }
  // A node whose every strategy forgoes the timer schedules no timer events
  // at all — the migrated equivocator preserves its pre-framework replay
  // digests this way. Any timer-using binding (or the mimic fallback being
  // reachable, i.e. some view is uncovered) keeps the pacemaker on.
  bool all_views_covered_timerless = !bindings_.empty();
  for (const Binding& b : bindings_) {
    if (b.strategy && b.strategy->uses_timer()) all_views_covered_timerless = false;
    if (!(b.spec.view_from <= 1 && b.spec.view_to == 0)) all_views_covered_timerless = false;
  }
  uses_timer_ = !all_views_covered_timerless;
}

std::string AdversaryNode::protocol_name() const {
  std::ostringstream os;
  os << "adversary";
  for (const Binding& b : bindings_) {
    if (b.strategy) os << ":" << b.strategy->name();
  }
  return os.str();
}

AdversaryStrategy& AdversaryNode::active(View v) {
  for (Binding& b : bindings_) {
    if (b.strategy && b.spec.active_at(v)) return *b.strategy;
  }
  return *fallback_;
}

void AdversaryNode::start() {
  if (view_ == 0) view_ = 1;
  AdversaryStrategy& s = active(view_);
  if (s.on_start(*this)) return;
  note_view_entered(view_, 0, 0);
  if (uses_timer_) arm_view_timer(ctx_.delta * 3);
  if (i_am_leader(view_)) s.on_lead(*this, view_, nullptr, nullptr);
}

void AdversaryNode::handle(NodeId from, const MessagePtr& m) {
  if (active(view_).on_deliver(*this, from, m)) return;
  mimic_deliver(from, m);
}

void AdversaryNode::mimic_deliver(NodeId from, const MessagePtr& m) {
  if (handle_sync(from, *m)) return;
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, ProposalMsg>) {
          if (!msg.block) return;
          store_block(msg.block);
          if (msg.justify) note_cert(msg.justify);
          if (msg.tc) note_tc(msg.tc);
          consider_vote(msg.block, VoteKind::kNormal);
        } else if constexpr (std::is_same_v<T, FbProposalMsg>) {
          if (!msg.block) return;
          store_block(msg.block);
          if (msg.justify) note_cert(msg.justify);
          if (msg.tc) note_tc(msg.tc);
          consider_vote(msg.block, VoteKind::kFallback);
        } else if constexpr (std::is_same_v<T, OptProposalMsg>) {
          if (!msg.block) return;
          store_block(msg.block);
          consider_vote(msg.block, VoteKind::kOptimistic);
        } else if constexpr (std::is_same_v<T, VoteMsg>) {
          if (msg.vote.kind == VoteKind::kCommit) return;
          if (const QcPtr qc = accumulate_vote(msg.vote)) note_cert(qc);
        } else if constexpr (std::is_same_v<T, CertMsg>) {
          if (msg.qc) note_cert(msg.qc);
        } else if constexpr (std::is_same_v<T, TcMsg>) {
          if (msg.tc) note_tc(msg.tc);
        } else if constexpr (std::is_same_v<T, TimeoutMsgWrap>) {
          // Track certificates carried in timeouts, then join the f+1
          // amplification so the honest pacemaker round completes.
          if (msg.timeout.high_qc) note_cert(msg.timeout.high_qc);
          const auto res = timeout_acc_.add(msg.timeout);
          if (const View v = res.f_plus_1_view; v != 0 && v >= view_ && timeout_view_ < v) {
            send_own_timeout(v);
          }
          if (res.tc) note_tc(res.tc);
        }
        // StatusMsg: the mimic never leads Simple Moonshot's status round-up.
      },
      *m);
}

QcPtr AdversaryNode::accumulate_vote(const Vote& vote) {
  const BlockPtr body = store_.get(vote.block);
  return vote_acc_.add(vote, body ? body->height() : 0);
}

void AdversaryNode::note_cert(const QcPtr& qc) {
  if (!qc || qc->kind == VoteKind::kCommit) return;
  if (!check_qc(*qc)) return;
  if (qc->rank() > high_qc_->rank()) {
    high_qc_ = qc;
    coalition_->observe(qc);
  } else if (coalition_->high_qc && coalition_->high_qc->rank() > high_qc_->rank()) {
    // Coalition power: adopt the best certificate any member has seen.
    high_qc_ = coalition_->high_qc;
  }
  if (qc->view >= view_) enter_view(qc->view + 1, qc, nullptr);
}

void AdversaryNode::note_tc(const TcPtr& tc) {
  if (!tc || !check_tc(*tc)) return;
  if (tc->view >= view_) enter_view(tc->view + 1, nullptr, tc);
}

void AdversaryNode::enter_view(View v, const QcPtr& qc, const TcPtr& tc) {
  if (v <= view_) return;
  note_view_entered(v, tc ? 2 : 1, view_);
  view_ = v;
  if (qc) note_progress();
  if (uses_timer_) arm_view_timer(backed_off(ctx_.delta * 3));
  if (i_am_leader(v)) active(v).on_lead(*this, v, qc, tc);
}

void AdversaryNode::consider_vote(const BlockPtr& block, VoteKind kind) {
  if (!block || block->view() != view_) return;
  if (voted_view_ >= view_) return;
  if (!active(view_).on_vote(*this, block, kind)) return;
  voted_view_ = view_;
  if (const auto vote = make_vote(kind, view_, block->id())) {
    send_all(make_message<VoteMsg>(*vote));
  }
  // Moonshot rule 3: the leader of the next view releases its optimistic
  // proposal the moment it votes for the parent-to-be.
  if (ctx_.enable_opt_proposal && i_am_leader(view_ + 1) && opt_led_view_ < view_ + 1) {
    opt_led_view_ = view_ + 1;
    active(view_ + 1).on_opt_lead(*this, view_ + 1, block);
  }
}

void AdversaryNode::on_view_timer_expired() {
  if (!active(view_).on_timer(*this)) {
    note_timed_out(view_);
    send_own_timeout(view_);
    retransmit_proposal(view_);
  }
  if (uses_timer_) arm_view_timer(backed_off(ctx_.delta * 3));
}

void AdversaryNode::note_timed_out(View v) {
  if (timeout_view_ < v) {
    note_timeout_fired(v);
    note_timeout();
  } else {
    note_timeout_retransmitted(v);
  }
}

void AdversaryNode::send_own_timeout(View v) {
  if (v < view_) return;  // stale amplification trigger
  timeout_view_ = std::max(timeout_view_, v);
  const TimeoutMsg t = make_timeout(v, high_qc_->view > 0 ? high_qc_ : nullptr);
  send_all(make_message<TimeoutMsgWrap>(t));
}

BlockPtr AdversaryNode::make_forged_block(View v, const BlockPtr& parent, std::uint64_t salt) {
  MOONSHOT_INVARIANT(parent != nullptr, "forged block needs a parent");
  const BlockPtr block = Block::create(v, parent->height() + 1, parent->id(),
                                       Payload::synthetic(64, v * 2 + salt));
  store_block(block);
  note_created(block);
  return block;
}

void AdversaryNode::send(NodeId to, MessagePtr m) {
  if (!active(view_).filter_send(*this, to, *m)) return;
  unicast(to, std::move(m));
}

void AdversaryNode::send_all(const MessagePtr& m) {
  const std::size_t n = ctx_.validators->size();
  for (NodeId to = 0; to < n; ++to) send(to, m);
}

}  // namespace moonshot::adversary
