// Chained HotStuff (Yin et al., PODC 2019) — the first row of the paper's
// Table I, implemented in the LibraBFT-style rotating-leader formulation.
// It is Jolteon (proposals, next-leader vote aggregation, view change with
// high-QC timeouts and TC-justified proposals, 4Δ view timer) plus two rules:
//
//  * Three-chain commit: blocks certified in three *consecutive* rounds
//    commit the oldest of the three. With next-leader aggregation the
//    minimum commit latency is 7δ (Table I note 2).
//  * Preferred-round vote rule (two-chain locking): a node's preferred round
//    is the round of the parent of the highest certified block it has seen;
//    it only votes for proposals whose justification is at least that old.
//
// Not part of the paper's own evaluation (which compares against Jolteon),
// but included so bench_table1 can reproduce the full comparison table and
// so the commit-rule machinery is exercised at chain length 3.
#pragma once

#include "consensus/jolteon/jolteon.hpp"

namespace moonshot {

class HotStuffNode final : public JolteonNode {
 public:
  explicit HotStuffNode(NodeContext ctx);

  std::string protocol_name() const override { return "hotstuff"; }

  View preferred_round() const { return preferred_round_; }

 protected:
  void update_lock(const QcPtr& qc) override;
  bool respects_lock(const QcPtr& justify) const override {
    return justify->view >= preferred_round_;
  }
  void on_wal_restored(const wal::RecoveredState& state) override;

 private:
  /// Two-chain locking: raise preferred_round to the parent of the newly
  /// certified block when that block and its parent are stored locally.
  void update_preferred(const QcPtr& qc);

  View preferred_round_ = 0;
};

}  // namespace moonshot
