// The accumulators' view window end to end: honest worlds never reach past
// it, a future-view flood cannot grow honest state past O(n·window), and a
// node lagging by more than the window is still pulled into the live view
// by the f+1 timeout amplification.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "consensus/accumulators.hpp"
#include "consensus/leader_schedule.hpp"
#include "harness/experiment.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "wal/wal.hpp"

namespace moonshot {
namespace {

/// The paper's WAN (Table II latencies, five regions, Δ = 500 ms).
ExperimentConfig wan(ProtocolKind p, std::size_t n, Duration duration) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.n = n;
  cfg.delta = milliseconds(500);
  cfg.duration = duration;
  cfg.seed = 1;
  cfg.net.matrix = net::LatencyMatrix::aws5();
  cfg.net.regions_used = 5;
  cfg.net.jitter = 0.05;
  cfg.net.adversarial_before_gst = false;
  return cfg;
}

TEST(ViewWindow, HonestPipelinedWanDropsNoVote) {
  // n = 200, verification off: the O(n²) vote multicast of the benchmark.
  Experiment e(wan(ProtocolKind::kPipelinedMoonshot, 200, seconds(2)));
  const ExperimentResult r = e.run();
  ASSERT_GT(r.summary.committed_blocks, 0u);
  for (NodeId id = 0; id < 200; ++id)
    EXPECT_EQ(e.node(id).counters().vote_window_dropped, 0u) << "node " << id;
}

TEST(ViewWindow, HonestCommitWjWithCrashRecoveryDropsNoVote) {
  // CM under the WJ leader schedule with a third of the nodes crashed, and
  // one more honest node at a time crashed and recovered from its WAL: the
  // recovered node resumes views behind the others.
  ExperimentConfig cfg = wan(ProtocolKind::kCommitMoonshot, 100, seconds(20));
  cfg.crashed = 32;
  cfg.schedule = ScheduleKind::kWJ;
  cfg.enable_wal = true;
  cfg.recovery = RecoveryMode::kDurable;
  cfg.tx_rate = 200;
  Experiment e(cfg);
  e.start();
  const auto check_all = [&](const char* when) {
    for (NodeId id = 0; id < cfg.n - cfg.crashed; ++id) {
      if (e.is_down(id)) continue;
      ASSERT_EQ(e.node(id).counters().vote_window_dropped, 0u) << "node " << id << " " << when;
    }
  };
  for (std::size_t k = 0; k < 2; ++k) {
    const auto node = static_cast<NodeId>(7 * k);
    const TimePoint crash_at = TimePoint::zero() + seconds(5 + 10 * k);
    e.scheduler().run_until(crash_at);
    check_all("before the crash");
    e.crash_node(node);
    e.scheduler().run_until(crash_at + seconds(4));
    e.recover_node(node);
  }
  e.scheduler().run_until(TimePoint::zero() + cfg.duration);
  check_all("at the end");
  const ExperimentResult r = e.result();
  EXPECT_TRUE(r.logs_consistent);
  EXPECT_GT(r.summary.committed_blocks, 0u);
}

/// Entries an honest accumulator may hold: per window view, one vote and
/// one bucket per (kind, voter) and one timeout per sender, over the
/// kViewWindow views ahead plus the deepest prune floor (Commit Moonshot's
/// commit votes, 16 views), plus one view past the window per sender.
std::size_t entry_bound(std::size_t n) { return (2 * 4 * n + n) * (kViewWindow + 16) + n; }

TEST(ViewWindow, FutureFloodKeepsHonestStateBounded) {
  for (const ProtocolKind p :
       {ProtocolKind::kSimpleMoonshot, ProtocolKind::kPipelinedMoonshot,
        ProtocolKind::kCommitMoonshot, ProtocolKind::kJolteon, ProtocolKind::kHotStuff}) {
    SCOPED_TRACE(protocol_tag(p));
    ExperimentConfig cfg;
    cfg.protocol = p;
    cfg.n = 4;
    cfg.duration = seconds(20);
    adversary::AdversarySpec flood;
    flood.node = 3;
    flood.strategy = "future-flood";
    cfg.adversaries = {flood};
    Experiment e(cfg);
    e.start();
    std::uint64_t peak = 0;
    for (TimePoint t = TimePoint::zero(); t < TimePoint::zero() + cfg.duration;
         t = t + milliseconds(100)) {
      e.scheduler().run_until(t);
      for (NodeId id = 0; id < 3; ++id)
        peak = std::max(peak, e.node(id).counters().accumulator_entries);
    }
    e.scheduler().run_until(TimePoint::zero() + cfg.duration);
    const ExperimentResult r = e.result();
    EXPECT_LE(peak, entry_bound(cfg.n));
    EXPECT_TRUE(r.logs_consistent);
    EXPECT_GT(r.summary.committed_blocks, 20u);
    for (NodeId id = 0; id < 3; ++id)
      EXPECT_GT(e.node(id).counters().vote_window_dropped, 0u) << "node " << id;
  }
}

TEST(ViewWindow, LaggingNodeIsAmplifiedIntoTheLiveView) {
  // n = 4 with node 3 crashed: nodes 0 and 1 resume in view 40 (as if from
  // their WALs), node 2 starts cold in view 1, more than kViewWindow behind.
  // No quorum exists without node 2, so the world only moves if the two
  // view-40 timeouts, both past node 2's window, make it join view 40.
  constexpr std::size_t kN = 4;
  constexpr View kResume = 40;
  static_assert(kResume > 1 + kViewWindow);
  const auto gen = ValidatorSet::generate(kN, crypto::fast_scheme(), 1);
  sim::Scheduler sched;
  std::vector<std::unique_ptr<IConsensusNode>> nodes;
  net::NetworkConfig net_cfg;
  net_cfg.matrix = net::LatencyMatrix::uniform(milliseconds(50));
  net_cfg.regions_used = 1;
  net_cfg.seed = 1;
  net_cfg.delta = milliseconds(500);
  net::SimNetwork network(sched, kN, net_cfg, [&](NodeId to, NodeId from, const MessagePtr& m) {
    if (to < nodes.size()) nodes[to]->handle(from, m);
  });
  const auto leaders = std::make_shared<const RoundRobinSchedule>(kN);
  for (NodeId id = 0; id < 3; ++id) {
    NodeContext ctx;
    ctx.id = id;
    ctx.validators = gen.set;
    ctx.priv = gen.private_keys[id];
    ctx.network = &network;
    ctx.sched = &sched;
    ctx.leaders = leaders;
    ctx.delta = milliseconds(500);
    ctx.payload_for_view = [](View v) { return Payload::synthetic(64, v); };
    nodes.push_back(make_protocol_node(ProtocolKind::kPipelinedMoonshot, std::move(ctx)));
  }
  wal::RecoveredState ahead;
  ahead.resume_view = kResume;
  nodes[0]->restore_from_wal(ahead);
  nodes[1]->restore_from_wal(ahead);
  for (auto& node : nodes) node->start();
  sched.run_until(TimePoint::zero() + seconds(20));

  EXPECT_GT(nodes[2]->current_view(), kResume);
  EXPECT_EQ(nodes[2]->counters().vote_window_dropped, 0u);
  for (const auto& node : nodes) EXPECT_GT(node->commit_log().blocks().size(), 5u);
}

}  // namespace
}  // namespace moonshot
