#include "harness/metrics.hpp"

namespace moonshot {

void MetricsCollector::on_created(const BlockPtr& block, TimePoint when) {
  auto& stat = blocks_[block->id()];
  if (!stat.has_created) {
    stat.has_created = true;
    stat.created = when;
    stat.payload_bytes = block->payload().wire_size();
    stat.height = block->height();
    stat.view = block->view();
  }
}

void MetricsCollector::on_committed(NodeId /*node*/, const BlockPtr& block, TimePoint when) {
  auto& stat = blocks_[block->id()];
  if (!stat.has_created) {
    // Block committed by a node that never saw the creation hook (possible
    // only if the creator is Byzantine or metrics attached late); treat the
    // first observation as creation so latency stays well-defined.
    stat.has_created = true;
    stat.created = when;
    stat.payload_bytes = block->payload().wire_size();
    stat.height = block->height();
    stat.view = block->view();
  }
  stat.commits.push_back(when);  // nodes commit a block at most once
}

template <class F>
void MetricsCollector::for_each_committed(std::size_t threshold, F&& f) const {
  std::vector<TimePoint> commits;
  for (const auto& [id, stat] : blocks_) {
    if (stat.commits.size() < threshold) continue;
    commits = stat.commits;
    std::nth_element(commits.begin(), commits.begin() + static_cast<std::ptrdiff_t>(threshold - 1),
                     commits.end());
    f(stat, commits[threshold - 1] - stat.created);
  }
}

MetricsCollector::Summary MetricsCollector::summarize(std::size_t threshold,
                                                      Duration run_duration) const {
  Summary s;
  std::vector<double> latencies;
  std::vector<std::pair<Height, TimePoint>> created_at;  // threshold-committed
  for_each_committed(threshold, [&](const BlockStat& stat, Duration latency) {
    s.committed_blocks++;
    s.committed_payload_bytes += stat.payload_bytes;
    s.max_committed_height = std::max(s.max_committed_height, stat.height);
    latencies.push_back(to_ms(latency));
    created_at.emplace_back(stat.height, stat.created);
  });

  // Block period ω: gaps between creation times of consecutive committed
  // heights. A height gap (no threshold commit in between) breaks the pair
  // so timeouts don't contaminate the min/max.
  std::sort(created_at.begin(), created_at.end());
  for (std::size_t i = 1; i < created_at.size(); ++i) {
    if (created_at[i].first != created_at[i - 1].first + 1) continue;
    const double gap = to_ms(created_at[i].second - created_at[i - 1].second);
    if (s.max_block_period_ms == 0.0 && s.min_block_period_ms == 0.0) {
      s.min_block_period_ms = s.max_block_period_ms = gap;
    } else {
      s.min_block_period_ms = std::min(s.min_block_period_ms, gap);
      s.max_block_period_ms = std::max(s.max_block_period_ms, gap);
    }
  }
  const double secs = to_seconds(run_duration);
  if (secs > 0) {
    s.blocks_per_sec = static_cast<double>(s.committed_blocks) / secs;
    s.transfer_rate_bps = static_cast<double>(s.committed_payload_bytes) / secs;
  }
  if (!latencies.empty()) {
    double sum = 0;
    for (double l : latencies) sum += l;
    s.avg_latency_ms = sum / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    s.p50_latency_ms = latencies[latencies.size() / 2];
    s.p90_latency_ms = latencies[latencies.size() * 9 / 10];
    s.p99_latency_ms = latencies[std::min(latencies.size() - 1, latencies.size() * 99 / 100)];
  }
  return s;
}

std::vector<std::pair<View, Duration>> MetricsCollector::per_view_latencies(
    std::size_t threshold) const {
  std::vector<std::pair<View, Duration>> out;
  for_each_committed(threshold, [&](const BlockStat& stat, Duration latency) {
    out.emplace_back(stat.view, latency);
  });
  return out;
}

}  // namespace moonshot
