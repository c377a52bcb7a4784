// Simple Moonshot (paper §III, Figure 1).
//
// Pipelined CRL protocol with ω = δ, λ = 3δ, reorg resilience, and
// optimistic responsiveness under consecutive honest leaders. View timer 5Δ.
//
// Key rules (implemented exactly as Figure 1):
//  * Propose — L_v proposes on receiving C_{v-1} before t_entry + 2Δ, else
//    at t_entry + 2Δ extending the highest certificate it knows.
//  * Vote — at most once per view, for an optimistic proposal whose parent
//    certificate equals the node's lock, or for a normal proposal whose
//    justifying certificate ranks ≥ the lock.
//  * Optimistic Propose — upon voting for B_k in v, the leader of v+1
//    multicasts ⟨opt-propose, B_{k+1}, v+1⟩.
//  * Timeout — on timer expiry or f+1 timeouts for the current view: stop
//    voting in v and multicast ⟨timeout, v⟩ (no lock attached).
//  * Advance View — on C_{v'-1} or TC_{v'-1} (v' > v): multicast the
//    certificate, update the lock to the highest certificate received so
//    far, send a status message to L_{v'} if the lock is stale, enter v',
//    arm the 5Δ timer.
//  * Commit — adjacent-view certificates over a parent/child pair commit
//    the parent (and, indirectly, its ancestors).
#pragma once

#include <map>

#include "consensus/base_node.hpp"

namespace moonshot {

class SimpleMoonshotNode : public BaseNode {
 public:
  explicit SimpleMoonshotNode(NodeContext ctx);

  void handle(NodeId from, const MessagePtr& m) override;
  void halt() override;
  std::string protocol_name() const override { return "simple-moonshot"; }

  /// The node's current lock (exposed for tests).
  const QcPtr& lock() const { return lock_; }

 protected:
  /// Every node knows the genesis certificate C_0, so all enter view 1 at
  /// start without multicasting it, and its leader proposes over C_0.
  void propose_first() override { propose_normal(QuorumCert::genesis_qc()); }
  /// Evaluates both vote rules against buffered proposals for the current
  /// view; votes at most once per view.
  void try_vote() override;
  void on_block_stored(const BlockPtr& block) override;
  void on_wal_restored(const wal::RecoveredState& state) override;

 private:
  /// Certificate receipt pipeline: dedup → validate → record/commit →
  /// highest-QC tracking → advance / leader-propose triggers.
  void handle_qc(const QcPtr& qc, bool already_validated);
  void handle_tc(const TcPtr& tc, bool already_validated);

  /// View transition (Figure 1, Advance View). Exactly one of via_qc/via_tc
  /// is non-null; both certify view new_view - 1.
  void advance_to(View new_view, const QcPtr& via_qc, const TcPtr& via_tc);

  /// Leader: multicast ⟨propose, B, justify, view⟩ extending justify's block.
  void propose_normal(const QcPtr& justify);

  void do_vote(const BlockPtr& block);

  QcPtr lock_ = QuorumCert::genesis_qc();
  QcPtr highest_qc_ = QuorumCert::genesis_qc();
  View voted_view_ = 0;         // highest view this node voted in
  View opt_proposed_view_ = 0;  // highest view this node opt-proposed for
  bool proposed_in_view_ = false;
  sim::TaskId propose_deadline_task_ = 0;
  std::uint64_t propose_generation_ = 0;

  // First structurally plausible proposal of each type per view.
  std::map<View, OptProposalMsg> pending_opt_;
  std::map<View, ProposalMsg> pending_prop_;
};

}  // namespace moonshot
