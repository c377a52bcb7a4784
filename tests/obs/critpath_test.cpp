#include "obs/critpath.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "chaos/engine.hpp"
#include "chaos/schedule.hpp"
#include "harness/experiment.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace moonshot {
namespace {

constexpr auto kDelta = milliseconds(100);  // one-way network delay

// Jitter-free uniform-δ Pipelined Moonshot — the paper's fixed-δ setting
// where ω = δ and λ = 3δ hold exactly.
ExperimentConfig traced_pm_config(obs::Tracer& tracer) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 4;
  cfg.delta = milliseconds(500);  // pacemaker bound; generous vs real δ
  cfg.duration = seconds(6);
  cfg.seed = 7;
  cfg.net.matrix = net::LatencyMatrix::uniform(kDelta, 1);
  cfg.net.regions_used = 1;
  cfg.net.jitter = 0.0;
  cfg.net.proc_base = Duration(0);
  cfg.net.proc_sig = Duration(0);
  cfg.net.proc_cert = Duration(0);
  cfg.net.proc_per_kb = Duration(0);
  cfg.net.adversarial_before_gst = false;
  cfg.tracer = &tracer;
  return cfg;
}

obs::Event make_event(std::int64_t t_ms, NodeId node, obs::EventKind kind, View view,
                      std::uint64_t a = 0, std::uint64_t b = 0) {
  obs::Event e;
  e.t = TimePoint{Duration(milliseconds(t_ms)).count()};
  e.node = node;
  e.kind = kind;
  e.view = view;
  e.a = a;
  e.b = b;
  return e;
}

// One synthetic view-1 lifecycle seen by observer 0: node 1 proposes at 0,
// node 2 receives and votes at 100, node 0 receives that vote and certifies
// at 200, and commits at 300.
std::vector<obs::Event> one_block_trace() {
  using obs::EventKind;
  return {
      make_event(0, 1, EventKind::kProposalSent, 1, /*height=*/1),
      make_event(100, 2, EventKind::kProposalRecv, 1),
      make_event(100, 2, EventKind::kVoteCast, 1, /*kind=*/0),
      make_event(200, 0, EventKind::kVoteRecv, 1, /*kind=*/0, /*voter=*/2),
      make_event(200, 0, EventKind::kQcFormed, 1, 0, /*kind=*/0),
      make_event(300, 0, EventKind::kCommit, 1, /*height=*/1),
  };
}

TEST(CritPath, EmptyTraceYieldsEmptyReport) {
  const auto report = obs::analyze_critical_path(obs::build_lifecycle_index({}, 4));
  EXPECT_TRUE(report.blocks.empty());
  EXPECT_EQ(report.latency.count(), 0u);
  EXPECT_EQ(report.period.count(), 0u);
}

TEST(Decompose, SyntheticFourStampBlock) {
  // View 2's proposal at 100 gives one ω sample of 100 ms; λ = 300 ms splits
  // into propose_flight → vote_flight → commit_rule, 100 ms each.
  auto events = one_block_trace();
  events.push_back(make_event(100, 2, obs::EventKind::kOptProposalSent, 2, 2));
  const auto report =
      obs::analyze_critical_path(obs::build_lifecycle_index(events, 4), /*observer=*/0);

  ASSERT_EQ(report.blocks.size(), 1u);
  const auto& b = report.blocks[0];
  EXPECT_TRUE(b.complete);
  EXPECT_EQ(b.view, 1u);
  EXPECT_EQ(b.height, 1u);
  EXPECT_EQ(to_ms(b.latency()), 300.0);
  ASSERT_EQ(b.segments.size(), 3u);
  EXPECT_EQ(b.segments[0].kind, obs::SegmentKind::kProposeFlight);
  EXPECT_EQ(b.segments[1].kind, obs::SegmentKind::kVoteFlight);
  EXPECT_EQ(b.segments[2].kind, obs::SegmentKind::kCommitRule);
  for (const auto& s : b.segments) EXPECT_EQ(to_ms(s.duration()), 100.0);

  EXPECT_EQ(report.period.count(), 1u);
  EXPECT_NEAR(report.period.mean_ms(), 100.0, 1e-9);
  EXPECT_EQ(report.latency.count(), 1u);
  EXPECT_NEAR(report.latency.mean_ms(), 300.0, 1e-9);
}

TEST(Decompose, SingleViewRunHasLatencyButNoPeriodSample) {
  // Only view 1 ever proposes: one λ sample, but ω needs two adjacent
  // proposals, so the period histogram must stay empty.
  const auto report =
      obs::analyze_critical_path(obs::build_lifecycle_index(one_block_trace(), 4), 0);
  ASSERT_EQ(report.blocks.size(), 1u);
  EXPECT_TRUE(report.blocks[0].complete);
  EXPECT_EQ(report.latency.count(), 1u);
  EXPECT_EQ(report.period.count(), 0u);
}

TEST(Decompose, MissingVoteLeavesBlockIncomplete) {
  // The critical voter's vote_cast stamp is gone: the walk clamps the gap
  // to unattributed, the block stays incomplete, and incomplete blocks do
  // not feed the λ histogram.
  auto events = one_block_trace();
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const obs::Event& e) {
                                return e.kind == obs::EventKind::kVoteCast;
                              }),
               events.end());
  const auto report =
      obs::analyze_critical_path(obs::build_lifecycle_index(events, 4), 0);
  ASSERT_EQ(report.blocks.size(), 1u);
  EXPECT_FALSE(report.blocks[0].complete);
  EXPECT_EQ(report.blocks[0].attributed().count(), report.blocks[0].latency().count());
  EXPECT_EQ(report.latency.count(), 0u);
}

TEST(Decompose, PeriodSkipsNonAdjacentViews) {
  // Views 1 and 3 propose; view 2 never does (timed out). No ω sample may
  // span the gap.
  const std::vector<obs::Event> events = {
      make_event(0, 1, obs::EventKind::kProposalSent, 1, 1),
      make_event(900, 3, obs::EventKind::kProposalSent, 3, 2),
  };
  const auto report =
      obs::analyze_critical_path(obs::build_lifecycle_index(events, 4), 0);
  EXPECT_EQ(report.period.count(), 0u);
}

TEST(Decompose, OtherObserversEventsAreIgnored) {
  // Node 2 commits, but observer 0 never does: no block is attributed.
  const std::vector<obs::Event> events = {
      make_event(0, 1, obs::EventKind::kProposalSent, 1, 1),
      make_event(50, 2, obs::EventKind::kVoteCast, 1),
      make_event(90, 2, obs::EventKind::kQcFormed, 1),
      make_event(120, 2, obs::EventKind::kCommit, 1, 1),
  };
  const auto report =
      obs::analyze_critical_path(obs::build_lifecycle_index(events, 4), /*observer=*/0);
  EXPECT_TRUE(report.blocks.empty());
  EXPECT_EQ(report.latency.count(), 0u);
}

// The core contract: segment durations telescope, so the attribution sums to
// the measured commit latency λ exactly (the sim is discrete, so "exactly"
// means to the tick), for every committed block.
TEST(CritPath, AttributionTelescopesToExactlyLatency) {
  obs::Tracer tracer(4);
  const auto r = run_experiment(traced_pm_config(tracer));
  ASSERT_TRUE(r.logs_consistent);
  ASSERT_GT(r.summary.committed_blocks, 20u);

  const auto report =
      obs::analyze_critical_path(obs::build_lifecycle_index(tracer.merged(), 4));
  ASSERT_GT(report.blocks.size(), 20u);
  for (const auto& b : report.blocks) {
    EXPECT_TRUE(b.complete) << "view " << b.view;
    EXPECT_EQ(b.attributed().count(), b.latency().count())
        << "view " << b.view << ": segments must sum to λ";
    ASSERT_FALSE(b.segments.empty());
    // Endpoints are contiguous: each segment starts where the previous ends.
    EXPECT_EQ(b.segments.front().start.ns, b.proposed.ns);
    EXPECT_EQ(b.segments.back().end.ns, b.committed.ns);
    for (std::size_t i = 1; i < b.segments.size(); ++i) {
      EXPECT_EQ(b.segments[i].start.ns, b.segments[i - 1].end.ns);
    }
  }
  // λ ≈ 3δ on the fixed-δ happy path.
  EXPECT_NEAR(report.latency.mean_ms() / to_ms(kDelta), 3.0, 0.15);
}

// The headline acceptance check: a traced Pipelined Moonshot happy path on a
// uniform jitter-free network shows the paper's constants — block period
// ω ≈ δ (optimistic proposals, §IV) and commit latency λ ≈ 3δ (§III).
TEST(Decompose, PipelinedMoonshotShowsPaperConstants) {
  obs::Tracer tracer(4);
  auto cfg = traced_pm_config(tracer);
  cfg.duration = seconds(10);
  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.logs_consistent);
  ASSERT_GT(r.summary.committed_blocks, 20u);

  const auto report =
      obs::analyze_critical_path(obs::build_lifecycle_index(tracer.merged(), 4));
  ASSERT_GT(report.blocks.size(), 20u);
  const double delta_ms = to_ms(kDelta);
  EXPECT_NEAR(report.period.mean_ms() / delta_ms, 1.0, 0.15);   // ω ≈ 1δ
  EXPECT_NEAR(report.latency.mean_ms() / delta_ms, 3.0, 0.30);  // λ ≈ 3δ
  // Flights dominate: each hop of the 3δ chain is one δ.
  const auto& flights =
      report.by_kind[static_cast<std::size_t>(obs::SegmentKind::kProposeFlight)];
  EXPECT_NEAR(flights.mean_ms() / delta_ms, 1.0, 0.20);
}

TEST(CritPath, FaultFreeFixedDeltaRunHasZeroBoundViolations) {
  obs::Tracer tracer(4);
  run_experiment(traced_pm_config(tracer));
  const auto report =
      obs::analyze_critical_path(obs::build_lifecycle_index(tracer.merged(), 4));
  const auto violations = obs::check_bounds(report, obs::paper_bound("pm"),
                                            kDelta, /*omega=*/kDelta);
  EXPECT_TRUE(violations.empty());
}

TEST(CritPath, SingleViewRunAttributesItsOneBlock) {
  obs::Tracer tracer(4);
  auto cfg = traced_pm_config(tracer);
  cfg.duration = milliseconds(350);  // one 3δ commit at ~301 ms, nothing more
  run_experiment(cfg);
  const auto report =
      obs::analyze_critical_path(obs::build_lifecycle_index(tracer.merged(), 4));
  ASSERT_EQ(report.blocks.size(), 1u);
  const auto& b = report.blocks[0];
  EXPECT_TRUE(b.complete);
  EXPECT_EQ(b.view, 1u);
  EXPECT_EQ(b.attributed().count(), b.latency().count());
  EXPECT_NEAR(to_ms(b.latency()) / to_ms(kDelta), 3.0, 0.15);
}

// EventRing wrap mid-lifecycle: a tiny ring drops the early views' stamps.
// Blocks whose proposal stamp survived must still attribute fully (gaps
// clamp to unattributed); blocks whose proposal is gone are skipped, never
// mis-attributed.
TEST(CritPath, RingWrapMidLifecycleClampsInsteadOfCrashing) {
  obs::TracerConfig tiny;
  tiny.ring_capacity = 256;
  obs::Tracer tracer(4, tiny);
  const auto r = run_experiment(traced_pm_config(tracer));
  ASSERT_GT(tracer.total_dropped(), 0u);

  const auto report =
      obs::analyze_critical_path(obs::build_lifecycle_index(tracer.merged(), 4));
  // Early blocks wrapped away entirely; only a tail is attributable.
  EXPECT_LT(report.blocks.size(), r.summary.committed_blocks);
  ASSERT_FALSE(report.blocks.empty());
  for (const auto& b : report.blocks) {
    EXPECT_EQ(b.attributed().count(), b.latency().count()) << "view " << b.view;
  }
}

TEST(CritPath, DelayBurstAppearsOnCriticalPath) {
  obs::Tracer tracer(4);
  auto cfg = traced_pm_config(tracer);
  Experiment e(cfg);
  const auto sched = chaos::FaultSchedule::parse("burst(2500-2700;d=400)");
  ASSERT_TRUE(sched.has_value());
  chaos::ChaosEngine engine(e, *sched, cfg.seed);
  engine.arm();
  e.start();
  e.scheduler().run_until(TimePoint{cfg.duration.count()});

  const auto report =
      obs::analyze_critical_path(obs::build_lifecycle_index(tracer.merged(), 4));
  ASSERT_GT(report.blocks.size(), 20u);

  // The 400 ms burst must show up as a long flight segment on the critical
  // path of the views in (and shortly after) the burst window.
  Duration longest{};
  for (const auto& b : report.blocks) {
    for (const auto& s : b.segments) longest = std::max(longest, s.duration());
    EXPECT_EQ(b.attributed().count(), b.latency().count()) << "view " << b.view;
  }
  EXPECT_GE(to_ms(longest), 350.0);

  // ...and the affected blocks violate the 3δ bound while the rest hold.
  const auto violations = obs::check_bounds(report, obs::paper_bound("pm"),
                                            kDelta, kDelta);
  EXPECT_FALSE(violations.empty());
  EXPECT_LT(violations.size(), report.blocks.size() / 2);
}

TEST(CritPath, PaperBoundsMatchTableOne) {
  EXPECT_EQ(obs::paper_bound("pm").delta_mult, 3.0);
  EXPECT_EQ(obs::paper_bound("sm").omega_mult, 0.0);
  EXPECT_EQ(obs::paper_bound("cm").delta_mult, 2.0);
  EXPECT_EQ(obs::paper_bound("cm").omega_mult, 1.0);
  EXPECT_EQ(obs::paper_bound("j").delta_mult, 5.0);
  EXPECT_EQ(obs::paper_bound("jolteon").delta_mult, 5.0);
  EXPECT_EQ(obs::paper_bound("hs").delta_mult, 7.0);
  EXPECT_EQ(obs::paper_bound("HS").delta_mult, 7.0);  // tags are case-folded
  EXPECT_EQ(obs::paper_bound("unknown").delta_mult, 3.0);
}

TEST(SpanGraph, BuildsOneLifecycleRootPerViewWithValidTopology) {
  obs::Tracer tracer(4);
  run_experiment(traced_pm_config(tracer));
  const auto g =
      obs::build_span_graph(obs::build_lifecycle_index(tracer.merged(), 4));
  ASSERT_GT(g.roots.size(), 20u);

  for (const auto root : g.roots) {
    ASSERT_GE(root, 0);
    ASSERT_LT(static_cast<std::size_t>(root), g.spans.size());
    EXPECT_EQ(g.spans[root].kind, obs::SpanKind::kLifecycle);
    EXPECT_EQ(g.spans[root].parent, obs::kNoSpan);
  }
  for (std::size_t i = 0; i < g.spans.size(); ++i) {
    const auto& s = g.spans[i];
    EXPECT_EQ(s.id, static_cast<std::int32_t>(i));
    EXPECT_LE(s.start.ns, s.end.ns);
    if (s.parent != obs::kNoSpan) {
      ASSERT_LT(static_cast<std::size_t>(s.parent), g.spans.size());
      // Tree parents precede children (topological by view, tree order).
      EXPECT_LT(s.parent, s.id);
    }
  }
  for (const auto& e : g.edges) {
    ASSERT_GE(e.from, 0);
    ASSERT_GE(e.to, 0);
    ASSERT_LT(static_cast<std::size_t>(e.from), g.spans.size());
    ASSERT_LT(static_cast<std::size_t>(e.to), g.spans.size());
  }

  // One root per view, in view order, and a committed mid-run view has one.
  bool has_view_5 = false;
  for (std::size_t i = 0; i < g.roots.size(); ++i) {
    const auto& root = g.spans[static_cast<std::size_t>(g.roots[i])];
    if (i > 0) {
      EXPECT_LT(g.spans[static_cast<std::size_t>(g.roots[i - 1])].view, root.view);
    }
    has_view_5 |= root.view == 5;
  }
  EXPECT_TRUE(has_view_5);
}

// Message, WAL and view-entry events are not lifecycle stamps (message and
// WAL events all carry view 0): none of them may open a view, and a view
// whose only stamps are vote receipts has nothing to draw, so no root.
TEST(SpanGraph, OnlyLifecycleStampsCreateViews) {
  using obs::EventKind;
  auto events = one_block_trace();
  events.push_back(make_event(300, 1, EventKind::kMsgSent, 0, /*type=*/3, 100));
  events.push_back(make_event(300, 2, EventKind::kWalAppend, 0));
  events.push_back(make_event(300, 3, EventKind::kViewEnter, 2, /*reason=*/1));
  events.push_back(make_event(300, 3, EventKind::kVoteRecv, 3, 0, /*voter=*/1));
  const auto g = obs::build_span_graph(obs::build_lifecycle_index(events, 4));
  ASSERT_EQ(g.roots.size(), 1u);
  EXPECT_EQ(g.spans[static_cast<std::size_t>(g.roots[0])].view, 1u);
  for (const auto& s : g.spans) EXPECT_EQ(s.view, 1u);
}

// Under ring wrap the oldest retained events of a node are mostly message
// events; every lifecycle root that survives must still hold a stamp.
TEST(SpanGraph, RingWrappedTraceHasNoStamplessRoots) {
  obs::TracerConfig tiny;
  tiny.ring_capacity = 64;
  obs::Tracer tracer(4, tiny);
  run_experiment(traced_pm_config(tracer));
  ASSERT_GT(tracer.total_dropped(), 0u);
  const auto g =
      obs::build_span_graph(obs::build_lifecycle_index(tracer.merged(), 4));
  ASSERT_FALSE(g.roots.empty());
  std::vector<int> children(g.spans.size(), 0);
  for (const auto& s : g.spans) {
    if (s.parent != obs::kNoSpan) children[static_cast<std::size_t>(s.parent)]++;
  }
  for (const auto root : g.roots) {
    EXPECT_GT(children[static_cast<std::size_t>(root)], 0)
        << "stampless root for view " << g.spans[static_cast<std::size_t>(root)].view;
  }
}

}  // namespace
}  // namespace moonshot
