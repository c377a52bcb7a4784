// Machinery shared by every protocol implementation (the three Moonshots,
// Jolteon and HotStuff): block storage, deferred commits, the k-chain commit
// rule over a per-view certificate table, the pacemaker (view timer,
// timeouts and their retransmission, stale-timeout catch-up) and
// signing/send helpers.
//
// Subclasses implement the message handlers and supply the few pacemaker
// parameters that differ: the timer multiple, what a timeout carries and
// the cold-start proposal. BaseNode owns no vote or proposal rules.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "consensus/accumulators.hpp"
#include "consensus/context.hpp"
#include "consensus/node.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"
#include "types/cert_cache.hpp"

namespace moonshot {

class BaseNode : public IConsensusNode {
 public:
  explicit BaseNode(NodeContext ctx);

  View current_view() const override { return view_; }
  const CommitLog& commit_log() const override { return commit_log_; }
  CommitLog& commit_log_mutable() override { return commit_log_; }
  const BlockStore& block_store() const override { return store_; }

  /// Crash-stop: mutes all sends and disarms timers/retries. Safe to call on
  /// a node whose scheduled callbacks are still queued.
  void halt() override;

  /// Rebuilds ledger state *and* durable voting state from a replayed WAL;
  /// must precede start(). Restores the timeout guard; subclasses pick up
  /// their vote guards and locks via on_wal_restored().
  void restore_from_wal(const wal::RecoveredState& state) override;

  /// Cold start enters view 1; a crash-recovered node (restore_from_wal()
  /// set view_) resumes in its restored view and catches up via incoming
  /// certificates rather than replaying view-1 actions.
  void start() override;

  NodeId id() const { return ctx_.id; }
  /// Highest view this node sent ⟨timeout⟩ for.
  View timeout_view() const { return timeout_view_; }

  /// Pacemaker counters plus accumulator/cert-cache statistics, merged on
  /// read so the registry export sees live values without extra bookkeeping
  /// on the hot paths.
  NodeCounters counters() const override;

 protected:
  // --- identities & quorums -------------------------------------------------
  NodeId leader_of(View v) const { return ctx_.leaders->leader(v); }
  bool i_am_leader(View v) const { return leader_of(v) == ctx_.id; }
  std::size_t quorum() const { return ctx_.validators->quorum_size(); }
  const ValidatorSet& validators() const { return *ctx_.validators; }

  // --- sending ---------------------------------------------------------------
  /// Sends defer until the WAL's modelled fsync completes (persist-before-
  /// send: a vote must not reach the wire before the decision is durable).
  /// With no WAL, or a free fsync model, these send immediately.
  void multicast(MessagePtr m);
  void unicast(NodeId to, MessagePtr m);

  // --- tracing ---------------------------------------------------------------
  /// Emits a structured trace event when a tracer is attached. One pointer
  /// test when tracing is off — safe on any hot path.
  void trace(obs::EventKind kind, View view, std::uint64_t a = 0, std::uint64_t b = 0,
             std::uint64_t c = 0) const {
    if (ctx_.tracer) ctx_.tracer->record(ctx_.id, kind, view, a, b, c);
  }

  // --- counter-bearing trace wrappers ----------------------------------------
  // Protocol code reports pacemaker transitions through these so the trace
  // stream and the metrics registry can never disagree about the counts.
  /// `reason`: 0 = start, 1 = certificate, 2 = timeout certificate.
  void note_view_entered(View view, std::uint64_t reason, View prev) {
    counters_.views_entered++;
    if (reason == 2) counters_.view_changes++;
    trace(obs::EventKind::kViewEnter, view, reason, prev);
  }
  void note_timeout_fired(View view) {
    counters_.timeouts_fired++;
    trace(obs::EventKind::kTimeoutFired, view);
  }
  void note_timeout_retransmitted(View view) {
    counters_.timeout_retransmits++;
    trace(obs::EventKind::kTimeoutRetransmit, view);
  }

  /// Creates a vote for the caller to send. With a WAL attached this is the
  /// persist-before-send gate: the decision is logged and synced first, and
  /// nullopt is returned when the vote would conflict with a durable
  /// decision from before a crash (the caller must not send anything).
  /// Without a WAL it always yields a vote — the amnesia model.
  std::optional<Vote> make_vote(VoteKind kind, View view, const BlockId& block);
  /// Timeouts follow the same contract but are never refused (re-multicast
  /// of the current view's timeout is legitimate pacemaker behaviour).
  TimeoutMsg make_timeout(View view, QcPtr lock);

  /// Subclass hook invoked at the end of restore_from_wal(): reinstate
  /// protocol-specific vote/timeout guards from the recovered voting state.
  virtual void on_wal_restored(const wal::RecoveredState& /*state*/) {}

  /// Remembers the leader's own proposal multicast for `view` so the
  /// pacemaker can retransmit it if the view stalls: the original may have
  /// been lost, and leaders otherwise speak at most once per view, turning
  /// one lost multicast into two full timeout rounds.
  void remember_proposal(View view, const MessagePtr& m) {
    last_proposal_view_ = view;
    last_proposal_ = m;
  }
  /// Re-multicasts the remembered proposal if it targets `view` — at most
  /// once per view: under a bandwidth-limited link, retransmitting a large
  /// block on every backed-off expiry would saturate the very link the
  /// pacemaker is waiting on.
  void retransmit_proposal(View view) {
    if (!last_proposal_ || last_proposal_view_ != view) return;
    if (retransmitted_view_ >= view) return;
    retransmitted_view_ = view;
    multicast(last_proposal_);
  }

  // --- block creation ---------------------------------------------------------
  /// Creates the unique block for `view` extending `parent`, adds it to the
  /// local store and fires the creation hook. Payload comes from the per-view
  /// payload source, so re-creating the block for the same (view, parent)
  /// yields the same id.
  BlockPtr create_block(View view, const BlockPtr& parent);

  // --- certificate table & the k-chain commit rule ----------------------------
  /// Records a certificate for its view (first one wins; a conflicting
  /// certificate for the same view and a different block would imply more
  /// than f Byzantine nodes and is logged and ignored). Then applies the
  /// commit rule: `commit_chain_length_` certificates in consecutive views
  /// over a parent chain commit the oldest block of the chain (2 for the
  /// Moonshots and Jolteon, 3 for chained HotStuff).
  void record_qc_and_try_commit(const QcPtr& qc);

  /// Set by subclasses before any certificate is processed.
  int commit_chain_length_ = 2;

  /// Commits the oldest block of a fully-certified consecutive-view chain
  /// ending at `newest_view`, if one exists in the certificate table.
  void try_commit_chain_ending_at(View newest_view);

  /// The certificate recorded for a view, if any.
  QcPtr qc_for_view(View v) const;

  /// Commits the block `target_id` and all its uncommitted ancestors
  /// (indirect commit). Defers quietly if some ancestor's body has not
  /// arrived yet; the commit resumes when the missing block is stored.
  void commit_chain_by_id(const BlockId& target_id);

  /// Adds a block body to the store and flushes anything that was waiting on
  /// it (deferred commits and, via the hook, subclass-buffered proposals).
  /// Returns true if the block was new.
  bool store_block(const BlockPtr& block);

  /// Subclass hook: called when a new block body arrives (after deferred
  /// commits flush) so buffered votes/proposals can be re-evaluated.
  virtual void on_block_stored(const BlockPtr& /*block*/) {}

  // --- block synchronisation (catch-up) ----------------------------------------
  /// Requests a missing block body from a peer (rotating deterministically),
  /// retrying every 2Δ until it arrives. Bounded per id.
  void request_block(const BlockId& id);

  /// Handles BlockRequestMsg / BlockResponseMsg. Returns true if `m` was a
  /// sync message (the caller's protocol handler should then stop).
  bool handle_sync(NodeId from, const Message& m);

  // --- view timer --------------------------------------------------------------
  /// (Re)arms the view timer to fire after `d`; on expiry calls
  /// on_view_timer_expired().
  void arm_view_timer(Duration d);
  void cancel_view_timer();

  // --- pacemaker ---------------------------------------------------------------
  /// View timer length in Δ (Table I: 5 for Simple Moonshot, 3 for Pipelined
  /// and Commit Moonshot, 4 for Jolteon and HotStuff). Set by subclasses in
  /// the constructor.
  int timer_deltas_ = 3;
  /// Arms the view timer at the backed-off timer_deltas_·Δ.
  void arm_pacemaker() { arm_view_timer(backed_off(ctx_.delta * timer_deltas_)); }

  /// The certificate a timeout carries: none (Simple Moonshot), the lock
  /// (Pipelined/Commit Moonshot) or the high-QC (Jolteon/HotStuff).
  virtual QcPtr timeout_qc() const { return nullptr; }
  /// The cold-start proposal of view 1's leader.
  virtual void propose_first() {}
  /// Evaluates the protocol's vote rules against the proposals buffered for
  /// the current view.
  virtual void try_vote() {}

  /// Enters `new_view`, certified by a QC (`via_tc` null) or by `via_tc`:
  /// QC-driven entry resets backoff, the view timer is re-armed and the
  /// accumulators forget views a commit chain can no longer reach.
  void begin_view(View new_view, const TcPtr& via_tc);

  /// Multicasts ⟨timeout, view⟩ carrying timeout_qc(), at most once per view.
  void send_timeout(View view);
  /// The first expiry in a view sends the timeout; later ones retransmit it
  /// with the current, possibly fresher, certificate, so one lost timeout
  /// cannot stall the view forever. Either way the node's own proposal for
  /// the view is retransmitted (leaders speak once per view, so one lost
  /// proposal would otherwise cost two timeout rounds) and the timer stays
  /// armed until the view advances.
  virtual void on_view_timer_expired();
  /// A timeout for a view this node already left means its sender is stuck
  /// there (e.g. the certificate that advanced us was lost on its link).
  /// Re-sends the evidence for a later view — `best_qc` when it reaches the
  /// timeout's view, else the TC that brought us here — so the pacemakers
  /// re-converge on one view instead of splitting timeouts below quorum.
  void answer_stale_timeout(NodeId from, View view, const QcPtr& best_qc);

  /// True iff the block's parent is stored and heights/views are consistent.
  bool link_valid(const BlockPtr& block) const;

  /// Exponential pacemaker backoff. The paper's analyses fix τ as a multiple
  /// of Δ after GST; practical deployments (including the Jolteon codebase
  /// the paper builds on) double the timer while no progress is observed so
  /// that views eventually outlast any load the fixed Δ underestimated
  /// (e.g. multi-megabyte proposals). backed_off() scales a base timeout by
  /// 2^k where k counts timer expiries since the last certificate-driven
  /// view entry.
  Duration backed_off(Duration base) const;
  void note_progress();  // view advanced via a block certificate
  void note_timeout();   // our view timer expired

  // --- validation helpers --------------------------------------------------------
  /// Structural + (optionally) cryptographic certificate validation.
  bool check_qc(const QuorumCert& qc) const;
  bool check_tc(const TimeoutCert& tc) const;

  NodeContext ctx_;
  View view_ = 0;  // 0 = not started; start() enters view 1
  View timeout_view_ = 0;  // highest view this node sent ⟨timeout⟩ for
  TcPtr entry_tc_;         // TC that drove the latest view entry (null if QC-driven)
  BlockStore store_;
  CommitLog commit_log_;
  VoteAccumulator vote_acc_;
  TimeoutAccumulator timeout_acc_;
  /// Digests of certificates whose signatures this node already verified.
  /// The same QC arrives embedded in proposals, timeouts, and catch-up
  /// responses; only the first sighting pays for the cryptography. Mutable
  /// because check_qc/check_tc are const observers of consensus state.
  mutable CertVerifyCache cert_cache_;

 private:
  /// Pacemaker counts accumulated by the note_* wrappers; accumulator and
  /// cert-cache statistics are merged in at counters() time.
  NodeCounters counters_;
  std::map<View, QcPtr> qc_by_view_;
  // Commit targets waiting for a missing ancestor body.
  std::unordered_set<BlockId> pending_commit_targets_;
  // Outstanding block fetches: id -> retry count.
  std::unordered_map<BlockId, int> outstanding_fetches_;
  View last_proposal_view_ = 0;
  View retransmitted_view_ = 0;
  MessagePtr last_proposal_;
  sim::TaskId view_timer_ = 0;
  std::uint64_t timer_generation_ = 0;
  int backoff_exponent_ = 0;
  int progress_streak_ = 0;
  /// Advances the deterministic jitter stream; mutable because backed_off()
  /// is a const observer of pacemaker state.
  mutable std::uint64_t jitter_nonce_ = 0;
  bool halted_ = false;
  /// True while restore_from_wal() replays state: suppresses WAL re-appends
  /// (the records being replayed are already in the log).
  bool wal_restoring_ = false;
};

}  // namespace moonshot
