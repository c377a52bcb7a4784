// The consensus node interface the harness drives.
#pragma once

#include <string>
#include <vector>

#include "ledger/block_store.hpp"
#include "ledger/commit_log.hpp"
#include "types/messages.hpp"

namespace moonshot {

namespace wal {
struct RecoveredState;
}

/// Cumulative per-node protocol counters, exported into the metrics
/// registry (harness/experiment.cpp). `view_changes` counts views entered
/// via a timeout certificate — the pacemaker's unhappy path — while
/// `views_entered` counts every entry including the happy certificate path.
struct NodeCounters {
  std::uint64_t views_entered = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t timeouts_fired = 0;
  std::uint64_t timeout_retransmits = 0;
  std::uint64_t equivocations_seen = 0;
  /// Byzantine-evidence counters (accumulator detections, see
  /// consensus/accumulators.hpp): conflicting timeouts from one sender, and
  /// exact vote/timeout re-sends dropped by the dedupe fast path. Exported
  /// as adversary_detected_total{kind,node}.
  std::uint64_t timeout_equivocations_seen = 0;
  std::uint64_t vote_duplicates_dropped = 0;
  std::uint64_t timeout_duplicates_dropped = 0;
  /// (view, voter) pairs caught with a bad vote signature (see
  /// VoteAccumulator::bad_signatures_caught), exported as kind vote-bad-sig.
  std::uint64_t vote_bad_signatures_caught = 0;
  /// Votes dropped because their view was outside the accumulator window
  /// (see consensus/accumulators.hpp), exported as kind vote-out-of-window.
  std::uint64_t vote_window_dropped = 0;
  /// A gauge, not a count: the votes, vote buckets and timeouts the
  /// accumulators hold at the time of the read.
  std::uint64_t accumulator_entries = 0;
  std::uint64_t cert_cache_hits = 0;
  std::uint64_t cert_cache_misses = 0;
};

class IConsensusNode {
 public:
  virtual ~IConsensusNode() = default;

  /// Enters view 1 and begins participating (leader of view 1 proposes).
  /// After restore_from_wal() the node instead resumes at its restored view
  /// without replaying view-1 actions.
  virtual void start() = 0;

  /// Crash-stop: the node must emit nothing further; pending timers and
  /// retry callbacks become no-ops. The chaos engine halts a node before
  /// rebuilding its replacement from persisted state, so the halted husk can
  /// outlive its scheduled callbacks safely.
  virtual void halt() {}

  /// Durable crash recovery, called before start(): rebuilds the block
  /// store, committed prefix, certificate table AND the per-view voting
  /// state from a replayed write-ahead log. A node restored this way
  /// refuses to re-vote differently in any view it already voted in.
  virtual void restore_from_wal(const wal::RecoveredState& state) { (void)state; }

  /// Delivers a message from `from` (authenticated channel: `from` is the
  /// true sender).
  virtual void handle(NodeId from, const MessagePtr& m) = 0;

  virtual View current_view() const = 0;
  virtual const CommitLog& commit_log() const = 0;
  virtual CommitLog& commit_log_mutable() = 0;
  virtual const BlockStore& block_store() const = 0;
  virtual std::string protocol_name() const = 0;

  /// Snapshot of the node's cumulative counters; default for stubs.
  virtual NodeCounters counters() const { return {}; }
};

}  // namespace moonshot
