#include "consensus/base_node.hpp"

#include <algorithm>

#include "support/mutations.hpp"
#include "support/assert.hpp"
#include "support/hex.hpp"
#include "support/prng.hpp"
#include "wal/wal.hpp"

namespace moonshot {

BaseNode::BaseNode(NodeContext ctx)
    : ctx_(std::move(ctx)),
      vote_acc_(ctx_.validators, ctx_.verify_signatures, ctx_.aggregate_certificates, &view_),
      timeout_acc_(ctx_.validators, ctx_.verify_signatures, &view_) {
  MOONSHOT_INVARIANT(ctx_.network && ctx_.sched && ctx_.validators && ctx_.leaders,
                     "node context incomplete");
  // Locks attached to timeouts are validated through the same cache as
  // check_qc/check_tc, so a QC seen in a proposal is free in the timeouts.
  timeout_acc_.set_cert_cache(&cert_cache_);
}

void BaseNode::halt() {
  halted_ = true;
  cancel_view_timer();
  // Kill block-fetch retries: the Retry callback exits when its entry is gone.
  outstanding_fetches_.clear();
}

void BaseNode::restore_from_wal(const wal::RecoveredState& state) {
  MOONSHOT_INVARIANT(view_ == 0, "restore must precede start()");
  wal_restoring_ = true;
  for (const BlockPtr& b : state.blocks) store_.add(b);
  // Replay the committed prefix. No commit callbacks are registered yet on a
  // freshly rebuilt node, so metrics are not double-counted.
  const TimePoint now = ctx_.sched->now();
  for (const BlockPtr& b : state.committed) commit_log_.commit(b, now);
  // Re-seed the certificate table so the commit rule bridges the crash: a
  // certificate arriving after recovery may complete a chain whose older
  // half is only in the log. Commits the log had not yet recorded (lazy
  // appends lost in the crash) re-derive here from the replayed
  // certificates.
  for (const QcPtr& qc : state.certificates) record_qc_and_try_commit(qc);
  wal_restoring_ = false;
  // Commits the certificate replay just derived beyond the durable prefix
  // are *new* decisions (their appends were suppressed above): log them now,
  // or the next replay would see a gap in the commit records.
  if (ctx_.wal) {
    const auto& committed_now = commit_log_.blocks();
    for (std::size_t i = state.committed.size(); i < committed_now.size(); ++i)
      ctx_.wal->append_commit(*committed_now[i]);
  }
  if (state.resume_view > view_) view_ = state.resume_view;
  timeout_view_ = state.voting.timeout_view;
  on_wal_restored(state);
}

void BaseNode::start() {
  const bool cold_start = view_ == 0;
  if (cold_start) view_ = 1;
  note_view_entered(view_, /*reason=*/0, 0);
  arm_pacemaker();
  if (cold_start && i_am_leader(1)) propose_first();
  try_vote();
}

void BaseNode::multicast(MessagePtr m) {
  if (halted_) return;
  if (ctx_.wal && ctx_.wal->busy_until() > ctx_.sched->now()) {
    // The message is gated behind an in-flight fsync: deliver it to the
    // network the moment the sync completes. Scheduler order is stable for
    // equal times, so send order is preserved deterministically.
    ctx_.sched->schedule_at(ctx_.wal->busy_until(), [this, m = std::move(m)] {
      if (!halted_) ctx_.network->multicast(ctx_.id, m);
    });
    return;
  }
  ctx_.network->multicast(ctx_.id, std::move(m));
}

void BaseNode::unicast(NodeId to, MessagePtr m) {
  if (halted_) return;
  if (ctx_.wal && ctx_.wal->busy_until() > ctx_.sched->now()) {
    ctx_.sched->schedule_at(ctx_.wal->busy_until(), [this, to, m = std::move(m)] {
      if (!halted_) ctx_.network->unicast(ctx_.id, to, m);
    });
    return;
  }
  ctx_.network->unicast(ctx_.id, to, std::move(m));
}

std::optional<Vote> BaseNode::make_vote(VoteKind kind, View view, const BlockId& block) {
  // Every vote this replica casts flows through here (all five protocols),
  // making it the one natural place for both the kVoteCast hook and the
  // WAL's persist-before-send gate.
  if (ctx_.wal && !ctx_.wal->record_vote(kind, view, block)) {
    // Durable state says we already voted differently here — the classic
    // post-recovery double vote the WAL exists to prevent.
    LOG_WARN("node %u: WAL refuses %s vote for view %llu (durably voted)", ctx_.id,
             vote_kind_name(kind), static_cast<unsigned long long>(view));
    return std::nullopt;
  }
  trace(obs::EventKind::kVoteCast, view, static_cast<std::uint64_t>(kind),
        obs::id_prefix(block));
  return Vote::make(kind, view, block, ctx_.id, ctx_.priv, ctx_.validators->scheme());
}

TimeoutMsg BaseNode::make_timeout(View view, QcPtr lock) {
  if (ctx_.wal) ctx_.wal->record_timeout(view);
  if (mutation_on(Mutation::kTimeoutCarriesNoLock)) lock = QuorumCert::genesis_qc();
  return TimeoutMsg::make(view, ctx_.id, std::move(lock), ctx_.priv,
                          ctx_.validators->scheme());
}

BlockPtr BaseNode::create_block(View view, const BlockPtr& parent) {
  MOONSHOT_INVARIANT(parent != nullptr, "cannot extend an unknown parent");
  Payload payload = ctx_.payload_for_view ? ctx_.payload_for_view(view) : Payload{};
  BlockPtr block = Block::create(view, parent->height() + 1, parent->id(), std::move(payload));
  const bool fresh = store_block(block);
  if (fresh && ctx_.on_block_created) ctx_.on_block_created(block, ctx_.sched->now());
  return block;
}

void BaseNode::record_qc_and_try_commit(const QcPtr& qc) {
  MOONSHOT_INVARIANT(qc != nullptr, "null certificate");
  auto [it, inserted] = qc_by_view_.emplace(qc->view, qc);
  if (inserted) {
    trace(obs::EventKind::kQcFormed, qc->view, obs::id_prefix(qc->block),
          static_cast<std::uint64_t>(qc->kind));
    // Lazy append (no sync): a lost certificate record is re-derivable, so
    // durability rides on the next vote/timeout sync.
    if (ctx_.wal && !wal_restoring_) ctx_.wal->append_qc(*qc);
  }
  if (!inserted) {
    if (it->second->block != qc->block) {
      // Two certified blocks in one view implies > f Byzantine voters.
      LOG_ERROR("node %u: conflicting certificates for view %llu (%s vs %s)", ctx_.id,
                static_cast<unsigned long long>(qc->view),
                short_hex(it->second->block.view()).c_str(),
                short_hex(qc->block.view()).c_str());
    }
    return;
  }

  // Direct commit: commit_chain_length_ certificates in consecutive views
  // over a parent chain commit the oldest block. The newly recorded
  // certificate can complete a chain in any position, so every window
  // containing it is checked.
  for (int offset = 0; offset < commit_chain_length_; ++offset) {
    try_commit_chain_ending_at(qc->view + offset);
  }
}

void BaseNode::try_commit_chain_ending_at(View newest_view) {
  View length = static_cast<View>(commit_chain_length_);
  if (mutation_on(Mutation::kCommitOnOneChain)) length = 1;
  if (newest_view < length) return;  // the chain would dip below view 1
  // Walk from the newest certificate down, checking adjacency and links.
  QcPtr cur = qc_for_view(newest_view);
  if (!cur) return;
  for (View back = 1; back < length; ++back) {
    const QcPtr prev = qc_for_view(newest_view - back);
    if (!prev) return;
    const BlockPtr body = store_.get(cur->block);
    if (!body) return;  // retried when the body arrives
    if (body->parent() != prev->block && !mutation_on(Mutation::kCommitSkipParentLink)) return;
    cur = prev;
  }
  commit_chain_by_id(cur->block);
}

QcPtr BaseNode::qc_for_view(View v) const {
  auto it = qc_by_view_.find(v);
  return it == qc_by_view_.end() ? nullptr : it->second;
}

void BaseNode::commit_chain_by_id(const BlockId& target_id) {
  const BlockPtr target = store_.get(target_id);
  if (!target) {
    pending_commit_targets_.insert(target_id);
    request_block(target_id);
    return;
  }
  if (commit_log_.is_committed(*target)) return;

  // Walk down to the last committed ancestor, collecting the chain.
  std::vector<BlockPtr> chain;
  BlockPtr cur = target;
  while (!commit_log_.is_committed(*cur)) {
    chain.push_back(cur);
    if (cur->height() == 0) break;
    BlockPtr parent = store_.get(cur->parent());
    if (!parent) {
      pending_commit_targets_.insert(target_id);
      request_block(cur->parent());  // catch-up: fetch the missing body
      return;                        // resume when it arrives
    }
    cur = parent;
  }
  const TimePoint now = ctx_.sched->now();
  for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
    commit_log_.commit(*rit, now);
    trace(obs::EventKind::kCommit, (*rit)->view(), (*rit)->height(),
          (*rit)->payload().wire_size());
    // Lazy append; commits are re-derivable from the logged certificates.
    // append_commit also drives snapshot + compaction.
    if (ctx_.wal && !wal_restoring_) ctx_.wal->append_commit(**rit);
  }
}

bool BaseNode::store_block(const BlockPtr& block) {
  if (!block) return false;
  if (!store_.add(block)) return false;

  // Log every new block body before anything that references it (votes,
  // certificates, commits): replay relies on this prefix order.
  if (ctx_.wal && !wal_restoring_) ctx_.wal->append_block(*block);

  // Retry deferred commits now that a new body exists.
  if (!pending_commit_targets_.empty()) {
    const auto targets = pending_commit_targets_;
    pending_commit_targets_.clear();
    for (const auto& id : targets) commit_chain_by_id(id);
  }
  // A body arriving can complete a previously recorded commit chain in any
  // window position.
  const QcPtr qc = qc_for_view(block->view());
  if (qc && qc->block == block->id()) {
    for (int offset = 0; offset < commit_chain_length_; ++offset) {
      try_commit_chain_ending_at(block->view() + offset);
    }
  }

  on_block_stored(block);
  return true;
}

void BaseNode::arm_view_timer(Duration d) {
  cancel_view_timer();
  if (halted_) return;
  const std::uint64_t generation = ++timer_generation_;
  view_timer_ = ctx_.sched->schedule_after(
      d, sim::EventTag::timer(ctx_.id), [this, generation] {
        if (generation != timer_generation_) return;  // superseded
        on_view_timer_expired();
      });
}

void BaseNode::cancel_view_timer() {
  if (view_timer_ != 0) {
    ctx_.sched->cancel(view_timer_);
    view_timer_ = 0;
  }
  ++timer_generation_;
}

void BaseNode::begin_view(View new_view, const TcPtr& via_tc) {
  if (!via_tc) note_progress();
  trace(obs::EventKind::kViewExit, view_, /*views_spent=*/1, new_view);
  const View prev = view_;
  view_ = new_view;
  note_view_entered(view_, via_tc ? 2 : 1, prev);
  entry_tc_ = via_tc;
  arm_pacemaker();
  const View depth = static_cast<View>(commit_chain_length_);
  if (view_ > depth) {
    vote_acc_.prune_below(view_ - depth);
    timeout_acc_.prune_below(view_ - depth);
  }
}

void BaseNode::send_timeout(View view) {
  if (timeout_view_ >= view) return;
  timeout_view_ = view;
  multicast(make_message<TimeoutMsgWrap>(make_timeout(view, timeout_qc())));
}

void BaseNode::on_view_timer_expired() {
  if (timeout_view_ < view_) {
    note_timeout_fired(view_);
    note_timeout();
    send_timeout(view_);
  } else {
    note_timeout_retransmitted(view_);
    multicast(make_message<TimeoutMsgWrap>(make_timeout(view_, timeout_qc())));
  }
  retransmit_proposal(view_);
  arm_pacemaker();
}

void BaseNode::answer_stale_timeout(NodeId from, View view, const QcPtr& best_qc) {
  if (view >= view_) return;
  if (best_qc->view >= view) {
    unicast(from, make_message<CertMsg>(best_qc, ctx_.id));
  } else if (entry_tc_ && entry_tc_->view >= view) {
    unicast(from, make_message<TcMsg>(entry_tc_, ctx_.id));
  }
}

bool BaseNode::link_valid(const BlockPtr& block) const {
  const BlockPtr parent = store_.get(block->parent());
  return parent && block->height() == parent->height() + 1 && block->view() > parent->view();
}

void BaseNode::request_block(const BlockId& id) {
  if (halted_ || store_.contains(id)) return;
  auto [it, inserted] = outstanding_fetches_.emplace(id, 0);
  if (!inserted) return;  // a fetch (with retries) is already in flight
  const std::size_t n = ctx_.validators->size();

  // Deterministic peer rotation seeded by the block id; retries every 2Δ
  // move to the next peer. Capped: a block that f+1 peers cannot supply was
  // likely never certified.
  struct Retry {
    BaseNode* self;
    BlockId id;
    void operator()() const {
      auto it = self->outstanding_fetches_.find(id);
      if (it == self->outstanding_fetches_.end()) return;   // arrived, done
      if (self->store_.contains(id)) {
        self->outstanding_fetches_.erase(it);
        return;
      }
      const std::size_t n = self->ctx_.validators->size();
      if (it->second > static_cast<int>(self->validators().f()) + 1) {
        self->outstanding_fetches_.erase(it);  // give up
        return;
      }
      const NodeId peer = static_cast<NodeId>(
          (fnv1a(id.view()) + static_cast<std::size_t>(it->second) + 1 + self->ctx_.id) % n);
      if (peer != self->ctx_.id) {
        self->trace(obs::EventKind::kSyncRequest, self->view_, obs::id_prefix(id),
                    static_cast<std::uint64_t>(it->second), peer);
        self->unicast(peer, make_message<BlockRequestMsg>(id, self->ctx_.id));
      }
      ++it->second;
      self->ctx_.sched->schedule_after(self->ctx_.delta * 2,
                                       sim::EventTag::timer(self->ctx_.id), Retry{self, id});
    }
  };
  if (n <= 1) return;  // nobody to ask
  Retry{this, id}();
}

bool BaseNode::handle_sync(NodeId from, const Message& m) {
  if (const auto* req = std::get_if<BlockRequestMsg>(&m)) {
    if (BlockPtr block = store_.get(req->id)) {
      trace(obs::EventKind::kSyncResponse, block->view(), obs::id_prefix(req->id), from);
      unicast(from, make_message<BlockResponseMsg>(block, ctx_.id));
      // Ancestor batching: a requester fetching an old body is usually
      // walking a commit gap backwards (post-partition catch-up), and the
      // hash chain reveals only one missing parent per round trip. Ship a
      // bounded batch of ancestors proactively — the requester's store
      // dedupes ones it already has — turning the serial walk into chunks.
      std::uint64_t payload_budget = 64 * 1024;
      for (int extra = 0; extra < 8 && block->height() > 1; ++extra) {
        block = store_.get(block->parent());
        if (!block || block->is_genesis() || block->wire_size() > payload_budget) break;
        payload_budget -= block->wire_size();
        unicast(from, make_message<BlockResponseMsg>(block, ctx_.id));
      }
    }
    return true;
  }
  if (const auto* resp = std::get_if<BlockResponseMsg>(&m)) {
    // Block ids are content-derived (Block::deserialize recomputes them), so
    // a response can only ever deliver the genuine body for its id.
    if (resp->block) {
      outstanding_fetches_.erase(resp->block->id());
      store_block(resp->block);
    }
    return true;
  }
  return false;
}

Duration BaseNode::backed_off(Duration base) const {
  if (!ctx_.timeout_backoff) return base;
  const int cap = std::max(ctx_.timeout_backoff_cap, 0);
  Duration d = base * (1 << std::min(backoff_exponent_, cap));
  if (ctx_.timeout_jitter_pct > 0) {
    // Deterministic per-node jitter stream: stretch the timer by up to
    // jitter% so the fleet's expiries desynchronize. The stream advances
    // once per arming (mutable nonce) and depends only on (seed, id), so a
    // fixed config still replays to a fixed digest.
    std::uint64_t state =
        ctx_.seed ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(ctx_.id) + 1)) ^
        ++jitter_nonce_;
    const double frac = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
    const double stretch = 1.0 + frac * static_cast<double>(ctx_.timeout_jitter_pct) / 100.0;
    d = std::chrono::duration_cast<Duration>(d * stretch);
  }
  return d;
}

void BaseNode::note_progress() {
  if (ctx_.backoff_reset_on_progress) {
    backoff_exponent_ = 0;
    progress_streak_ = 0;
    return;
  }
  // Decay slowly: resetting to zero on every success makes a chronically
  // undersized Δ saw-tooth (the view after each success gets the short timer
  // again and fails, so two *consecutive* certified views — the commit
  // rule's requirement — never happen). Decrement only after a sustained
  // streak of certificate-driven views.
  if (++progress_streak_ >= 8 && backoff_exponent_ > 0) {
    --backoff_exponent_;
    progress_streak_ = 0;
  }
}

void BaseNode::note_timeout() {
  ++backoff_exponent_;
  progress_streak_ = 0;
}

bool BaseNode::check_qc(const QuorumCert& qc) const {
  // Signatures this node's accumulator already verified are not checked again.
  const std::span<const Vote> verified =
      ctx_.verify_signatures ? vote_acc_.verified(qc.view, qc.kind, qc.block)
                             : std::span<const Vote>{};
  return qc.validate(*ctx_.validators, ctx_.verify_signatures, &cert_cache_, verified);
}

bool BaseNode::check_tc(const TimeoutCert& tc) const {
  return tc.validate(*ctx_.validators, ctx_.verify_signatures, &cert_cache_);
}

NodeCounters BaseNode::counters() const {
  NodeCounters c = counters_;
  c.equivocations_seen = vote_acc_.equivocations_seen();
  c.timeout_equivocations_seen = timeout_acc_.equivocations_seen();
  c.vote_duplicates_dropped = vote_acc_.duplicates_dropped();
  c.timeout_duplicates_dropped = timeout_acc_.duplicates_dropped();
  c.vote_bad_signatures_caught = vote_acc_.bad_signatures_caught();
  c.vote_window_dropped = vote_acc_.window_dropped();
  c.accumulator_entries = vote_acc_.entries() + timeout_acc_.entries();
  c.cert_cache_hits = cert_cache_.stats().hits;
  c.cert_cache_misses = cert_cache_.stats().misses;
  return c;
}

}  // namespace moonshot
