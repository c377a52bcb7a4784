// Jolteon (Gelashvili et al., FC 2022) — the paper's baseline.
//
// A pipelined two-chain HotStuff variant with linear steady state: votes are
// *unicast to the next leader*, which aggregates them into a QC and carries
// it in its own proposal. Quadratic view change: timeouts (carrying the
// sender's high-QC) are multicast; a TC justifies the next proposal.
//
// Properties relevant to the paper's comparison (Table I):
//  * ω = 2δ — a block period costs vote-to-aggregator + proposal.
//  * λ = 5δ — commit of B_k needs the chain B_k → B_{k+1} certified in
//    consecutive rounds, observed via the round-(k+2) proposal.
//  * Not reorg resilient — a Byzantine next leader swallows the votes for an
//    honest leader's block; the block is lost even after GST.
//  * View timer 4Δ.
//
// Implemented in the LSO (leader-speaks-once) setting used in the paper's
// evaluation, with the standard Bracha-style timeout amplification.
//
// The class is also the base for chained HotStuff, which overrides the lock
// step and the vote rule and sets a three-chain commit rule.
#pragma once

#include <map>

#include "consensus/base_node.hpp"

namespace moonshot {

class JolteonNode : public BaseNode {
 public:
  explicit JolteonNode(NodeContext ctx);

  void handle(NodeId from, const MessagePtr& m) override;
  std::string protocol_name() const override { return "jolteon"; }

  const QcPtr& high_qc() const { return high_qc_; }

 protected:
  QcPtr timeout_qc() const override { return high_qc_; }
  void propose_first() override { propose(); }
  void try_vote() override;
  void on_block_stored(const BlockPtr& block) override;
  void on_wal_restored(const wal::RecoveredState& state) override;

  /// Lock step for each accepted certificate: Jolteon raises its high-QC.
  virtual void update_lock(const QcPtr& qc);
  /// Vote-rule hook on a proposal's justification; Jolteon adds nothing to
  /// the direct-or-TC rule.
  virtual bool respects_lock(const QcPtr& /*justify*/) const { return true; }

  QcPtr high_qc_ = QuorumCert::genesis_qc();

 private:
  void handle_qc(const QcPtr& qc, bool already_validated);
  void handle_tc(const TcPtr& tc, bool already_validated);
  void advance_to(View new_round, const TcPtr& via_tc);
  void propose();

  View last_voted_round_ = 0;
  bool proposed_in_round_ = false;

  std::map<View, ProposalMsg> pending_prop_;
};

}  // namespace moonshot
