// AdversaryNode: the pluggable active-Byzantine node.
//
// The node itself is an honest mimic — a simplified chained-protocol
// participant that stores blocks, votes once per view, accumulates votes and
// timeouts into certificates, joins Bracha timeout amplification, and
// proposes (normal, fallback and optimistic) when it leads. Strategies
// bound to view ranges override the interception points declared in
// strategy.hpp; outside every bound range the node just mimics.
//
// The mimic speaks Pipelined-Moonshot-shaped messages. Under the other
// protocols honest nodes may reject some of them (e.g. Jolteon ignores
// fallback proposals) — that only makes the adversary *less* effective, and
// conformance checking exempts adversaries, so plausibility suffices. What
// the mimic must preserve is liveness: with at most f adversaries the honest
// quorum commits in honest-led views regardless of what the mimic emits.
#pragma once

#include <vector>

#include "adversary/coalition.hpp"
#include "adversary/strategy.hpp"
#include "consensus/base_node.hpp"

namespace moonshot::adversary {

/// One strategy attached to its placement spec. A node owns one binding per
/// spec that names it; the first binding whose view range covers the current
/// view is active.
struct Binding {
  AdversarySpec spec;
  StrategyPtr strategy;
};

class AdversaryNode final : public BaseNode {
 public:
  AdversaryNode(NodeContext ctx, std::vector<Binding> bindings, CoalitionPtr coalition);

  void start() override;
  void handle(NodeId from, const MessagePtr& m) override;
  std::string protocol_name() const override;

  // --- capabilities exposed to strategies ------------------------------------
  NodeId self() const { return ctx_.id; }
  const ValidatorSet& validator_set() const { return *ctx_.validators; }
  bool leads(View v) const { return i_am_leader(v); }
  View view() const { return view_; }
  void set_view(View v) { view_ = v; }
  Duration delta() const { return ctx_.delta; }
  sim::Scheduler& scheduler() { return *ctx_.sched; }
  CoalitionState& coalition() { return *coalition_; }
  const QcPtr& high_qc() const { return high_qc_; }

  /// Body lookup / insertion into the node's block store.
  BlockPtr block_body(const BlockId& id) { return store_.get(id); }
  bool keep(const BlockPtr& b) { return store_block(b); }

  /// The honest block for (view, parent): per-view deterministic payload, so
  /// it is bit-identical to what an honest leader would propose.
  BlockPtr make_honest_block(View v, const BlockPtr& parent) { return create_block(v, parent); }
  /// A conflicting block over `parent` with a salted synthetic payload.
  BlockPtr make_forged_block(View v, const BlockPtr& parent, std::uint64_t salt);

  /// Signing helpers (route through BaseNode so traces stay uniform).
  std::optional<Vote> sign_vote(VoteKind kind, View v, const BlockId& block) {
    return make_vote(kind, v, block);
  }
  TimeoutMsg sign_timeout(View v, QcPtr lock) { return make_timeout(v, std::move(lock)); }

  /// Feeds a vote into the node's accumulator; returns the certificate the
  /// first time a quorum completes.
  QcPtr accumulate_vote(const Vote& vote);

  /// Records a certificate: validity check, high-QC/coalition update, view
  /// advance (and on_lead dispatch when the node leads the new view).
  void note_cert(const QcPtr& qc);
  void note_tc(const TcPtr& tc);

  /// Marks view `v` timed out for pacemaker counters (strategies that take
  /// over on_timer call this so metrics stay truthful).
  void note_timed_out(View v);

  // --- sending ----------------------------------------------------------------
  /// Filtered sends: each recipient passes through the active strategy's
  /// filter_send. send_all covers all n nodes including self.
  void send(NodeId to, MessagePtr m);
  void send_all(const MessagePtr& m);
  /// Raw sends bypassing the filter (the migrated equivocator reproduces its
  /// exact pre-framework traffic through these).
  void send_raw(NodeId to, MessagePtr m) { unicast(to, std::move(m)); }
  void send_raw_all(MessagePtr m) { multicast(std::move(m)); }

  /// Fires the experiment's block-creation hook (metrics).
  void note_created(const BlockPtr& b) {
    if (ctx_.on_block_created) ctx_.on_block_created(b, ctx_.sched->now());
  }

  /// The strategy whose view range covers `v`, or the honest-mimic fallback.
  AdversaryStrategy& active(View v);

 protected:
  void on_view_timer_expired() override;

 private:
  void mimic_deliver(NodeId from, const MessagePtr& m);
  void consider_vote(const BlockPtr& block, VoteKind kind);
  void enter_view(View v, const QcPtr& qc, const TcPtr& tc);
  void send_own_timeout(View v);

  std::vector<Binding> bindings_;
  StrategyPtr fallback_;  // honest mimic, used outside every bound range
  CoalitionPtr coalition_;
  bool uses_timer_ = true;

  QcPtr high_qc_ = QuorumCert::genesis_qc();
  View voted_view_ = 0;    // mimic votes at most once per view
  View opt_led_view_ = 0;  // optimistic proposal released at most once per view
};

}  // namespace moonshot::adversary
