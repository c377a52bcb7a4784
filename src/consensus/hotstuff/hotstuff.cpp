#include "consensus/hotstuff/hotstuff.hpp"

#include "wal/wal.hpp"

namespace moonshot {

HotStuffNode::HotStuffNode(NodeContext ctx) : JolteonNode(std::move(ctx)) {
  commit_chain_length_ = 3;  // the three-chain rule
}

void HotStuffNode::on_wal_restored(const wal::RecoveredState& rs) {
  JolteonNode::on_wal_restored(rs);
  // Replaying the certificates re-derives the two-chain lock.
  for (const QcPtr& qc : rs.certificates) update_preferred(qc);
}

void HotStuffNode::update_lock(const QcPtr& qc) {
  // The high-QC still picks the parent of the next proposal; the lock that
  // the vote rule checks is the preferred round.
  if (qc->rank() > high_qc_->rank()) high_qc_ = qc;
  update_preferred(qc);
}

void HotStuffNode::update_preferred(const QcPtr& qc) {
  // Two-chain lock: preferred round rises to the round of the *parent* of
  // the certified block (the block with a certified child), when known.
  const BlockPtr body = store_.get(qc->block);
  if (!body || body->is_genesis()) return;
  const BlockPtr parent = store_.get(body->parent());
  if (!parent) return;
  if (parent->view() > preferred_round_) {
    preferred_round_ = parent->view();
    trace(obs::EventKind::kLockUpdated, preferred_round_, obs::id_prefix(parent->id()));
  }
}

}  // namespace moonshot
