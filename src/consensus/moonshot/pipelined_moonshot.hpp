// Pipelined Moonshot (paper §IV, Figure 3).
//
// Improves on Simple Moonshot with full optimistic responsiveness and a 3Δ
// view timer. Differences from Simple Moonshot, all implemented here:
//  * Three proposal types: optimistic / normal / fallback. A leader entering
//    view v via TC_{v-1} immediately multicasts a fallback proposal
//    extending its lock (no 2Δ wait), with the TC attached as justification.
//  * Three vote types that may not be aggregated together; a node votes at
//    most twice per view (≤1 optimistic, ≤1 normal-or-fallback).
//  * Locking: the lock rises to any higher-ranked certificate the moment it
//    is received (not only at view entry).
//  * Timeout messages carry the sender's lock; TCs prove the highest lock of
//    a quorum. TCs are unicast to the next leader (not multicast), with a
//    Bracha-style amplification step (join a timeout on f+1 timeouts or a
//    TC for any view ≥ current).
//  * View timer 3Δ.
//
// The class is also the base for Commit Moonshot (§V), which overrides the
// certificate hook to add the explicit pre-commit phase.
#pragma once

#include <map>

#include "consensus/base_node.hpp"

namespace moonshot {

class PipelinedMoonshotNode : public BaseNode {
 public:
  explicit PipelinedMoonshotNode(NodeContext ctx);

  void handle(NodeId from, const MessagePtr& m) override;
  std::string protocol_name() const override { return "pipelined-moonshot"; }

  const QcPtr& lock() const { return lock_; }

 protected:
  QcPtr timeout_qc() const override { return lock_; }
  void propose_first() override { propose_normal(QuorumCert::genesis_qc()); }
  /// Evaluates the three vote rules against buffered proposals.
  void try_vote() override;
  void on_block_stored(const BlockPtr& block) override;
  void on_wal_restored(const wal::RecoveredState& state) override;

  /// Hook invoked exactly once per newly learned block certificate, before
  /// the advance step. Commit Moonshot implements pre-commit voting here.
  virtual void on_new_certificate(const QcPtr& /*qc*/) {}

  /// Hook for Commit Moonshot's commit-vote accumulation.
  virtual void on_commit_vote(const Vote& /*vote*/) {}

  /// Certificate pipeline shared with the subclass.
  void handle_qc(const QcPtr& qc, bool already_validated);
  void handle_tc(const TcPtr& tc, bool already_validated);

 private:
  void advance_to(View new_view, const QcPtr& via_qc, const TcPtr& via_tc);
  void propose_normal(const QcPtr& justify);
  void propose_fallback(const TcPtr& tc);

  void send_vote(const Vote& vote);        // multicast, or unicast (ablation)
  void after_vote(const BlockPtr& block);  // optimistic-propose rule

  QcPtr lock_ = QuorumCert::genesis_qc();
  View opt_voted_view_ = 0;    // highest view with an optimistic vote sent
  BlockId opt_voted_block_{};  // block of that optimistic vote
  View main_voted_view_ = 0;   // highest view with a normal/fallback vote
  View opt_proposed_view_ = 0;
  bool proposed_in_view_ = false;

  std::map<View, OptProposalMsg> pending_opt_;
  std::map<View, ProposalMsg> pending_prop_;
  std::map<View, FbProposalMsg> pending_fb_;
};

}  // namespace moonshot
