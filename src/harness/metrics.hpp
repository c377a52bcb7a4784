// Experiment metrics, matching the paper's definitions (§VI):
//  * throughput — number of blocks committed by at least 2f+1 nodes during
//    a run (reported per second for cross-duration comparability);
//  * latency — average time between the creation of a block and its commit
//    by the (2f+1)-th node;
//  * transfer rate — committed payload bytes per second.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/time.hpp"
#include "types/block.hpp"
#include "types/ids.hpp"

namespace moonshot {

class MetricsCollector {
 public:
  /// Records block creation (first creation wins; the optimistic and normal
  /// proposals of a view contain the same block).
  void on_created(const BlockPtr& block, TimePoint when);

  /// Records a commit of `block` by `node` at `when`.
  void on_committed(NodeId node, const BlockPtr& block, TimePoint when);

  struct Summary {
    std::uint64_t committed_blocks = 0;  // committed by >= threshold nodes
    double blocks_per_sec = 0.0;
    double avg_latency_ms = 0.0;   // creation -> threshold-th commit
    double p50_latency_ms = 0.0;
    double p90_latency_ms = 0.0;
    double p99_latency_ms = 0.0;
    double transfer_rate_bps = 0.0;  // committed payload bytes per second
    std::uint64_t committed_payload_bytes = 0;
    Height max_committed_height = 0;
    /// Block period (the paper's ω): creation-time gap between blocks at
    /// consecutive committed heights. 0 when fewer than two such pairs exist.
    double min_block_period_ms = 0.0;
    double max_block_period_ms = 0.0;
  };

  /// Aggregates over the run. `threshold` is the number of distinct nodes
  /// whose commit makes a block count (the paper uses 2f+1).
  Summary summarize(std::size_t threshold, Duration run_duration) const;

  /// (view, creation → threshold-th-commit latency) pairs for every block
  /// committed by at least `threshold` nodes, unsorted. Feeds the registry's
  /// commit-latency histogram and the adversary latency-degradation oracle,
  /// which judges latency per proposing view.
  std::vector<std::pair<View, Duration>> per_view_latencies(std::size_t threshold) const;

 private:
  struct BlockStat {
    TimePoint created{};
    bool has_created = false;
    std::uint64_t payload_bytes = 0;
    Height height = 0;
    View view = 0;
    std::vector<TimePoint> commits;  // one entry per distinct committing node
  };

  /// Calls f(stat, creation → threshold-th-commit latency) for every block
  /// committed by at least `threshold` nodes, in blocks_ order.
  template <class F>
  void for_each_committed(std::size_t threshold, F&& f) const;

  std::unordered_map<BlockId, BlockStat> blocks_;
};

}  // namespace moonshot
