#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace moonshot {
namespace {

obs::Event make_event(std::int64_t t_ns, std::uint64_t seq, NodeId node,
                      obs::EventKind kind, View view = 0) {
  obs::Event e;
  e.t = TimePoint{t_ns};
  e.seq = seq;
  e.node = node;
  e.kind = kind;
  e.view = view;
  return e;
}

TEST(EventRing, FillsWithoutDroppingUntilCapacity) {
  obs::EventRing ring(4);
  for (std::uint64_t i = 0; i < 4; ++i)
    ring.push(make_event(static_cast<std::int64_t>(i), i, 0, obs::EventKind::kVoteCast));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.recorded(), 4u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(snap[i].seq, i);
}

TEST(EventRing, OverwritesOldestOnWrap) {
  obs::EventRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    ring.push(make_event(static_cast<std::int64_t>(i), i, 0, obs::EventKind::kVoteCast));
  EXPECT_EQ(ring.size(), 4u);       // retention window stays at capacity
  EXPECT_EQ(ring.recorded(), 10u);  // but the totals keep counting
  EXPECT_EQ(ring.dropped(), 6u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-to-newest window over the last four pushes: seq 6, 7, 8, 9.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(snap[i].seq, 6 + i);
}

TEST(Tracer, RoutesNodeEventsToNodeRingAndEnvToEnvRing) {
  obs::Tracer t(2);
  t.record(0, obs::EventKind::kVoteCast, 1);
  t.record(1, obs::EventKind::kVoteCast, 1);
  t.record(1, obs::EventKind::kCommit, 1);
  t.record(kNoNode, obs::EventKind::kSchedQueue, 0);
  EXPECT_EQ(t.ring(0).size(), 1u);
  EXPECT_EQ(t.ring(1).size(), 2u);
  EXPECT_EQ(t.env_ring().size(), 1u);
  EXPECT_EQ(t.total_recorded(), 4u);
  EXPECT_EQ(t.total_dropped(), 0u);
}

TEST(Tracer, MessageCountersTallyInline) {
  obs::Tracer t(2);
  t.record(0, obs::EventKind::kMsgSent, 0, /*type=*/3, /*bytes=*/100, kNoNode);
  t.record(0, obs::EventKind::kMsgSent, 0, 3, 250, kNoNode);
  t.record(1, obs::EventKind::kMsgDelivered, 0, 3, 100, 0);
  t.record(1, obs::EventKind::kMsgDropped, 0, 3, 250, 0);
  t.record(0, obs::EventKind::kMsgSent, 0, /*type=*/0, 900, 1);
  EXPECT_EQ(t.message_counter(3).sent, 2u);
  EXPECT_EQ(t.message_counter(3).sent_bytes, 350u);
  EXPECT_EQ(t.message_counter(3).delivered, 1u);
  EXPECT_EQ(t.message_counter(3).dropped, 1u);
  EXPECT_EQ(t.message_counter(0).sent, 1u);
  EXPECT_EQ(t.message_counter(0).sent_bytes, 900u);
}

TEST(Tracer, DigestIsOrderSensitiveAndSurvivesWrap) {
  obs::TracerConfig tiny;
  tiny.ring_capacity = 4;

  // Same events, same order -> same digest, even after the ring wraps.
  obs::Tracer a(1, tiny), b(1, tiny);
  for (std::uint64_t i = 0; i < 32; ++i) {
    a.record(0, obs::EventKind::kVoteCast, i, i);
    b.record(0, obs::EventKind::kVoteCast, i, i);
  }
  EXPECT_GT(a.total_dropped(), 0u);
  EXPECT_EQ(a.digest(), b.digest());

  // One extra wrapped-away event must still change the digest.
  obs::Tracer c(1, tiny);
  c.record(0, obs::EventKind::kCommit, 999);
  for (std::uint64_t i = 0; i < 32; ++i) c.record(0, obs::EventKind::kVoteCast, i, i);
  EXPECT_EQ(c.ring(0).size(), a.ring(0).size());
  EXPECT_NE(c.digest(), a.digest());
}

TEST(Tracer, MergedOrdersByTimeThenSeq) {
  obs::Tracer t(2);
  sim::Scheduler sched;
  t.set_clock(&sched);
  // Interleave nodes across two simulated instants; within one instant the
  // global seq preserves record order across rings.
  sched.schedule_at(TimePoint{100}, [&] {
    t.record(1, obs::EventKind::kVoteCast, 1);
    t.record(0, obs::EventKind::kVoteRecv, 1);
    t.record(kNoNode, obs::EventKind::kSchedQueue, 0);
  });
  sched.schedule_at(TimePoint{50}, [&] { t.record(0, obs::EventKind::kViewEnter, 1); });
  sched.run_all();

  const auto merged = t.merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].kind, obs::EventKind::kViewEnter);
  EXPECT_EQ(merged[0].t.ns, 50);
  EXPECT_EQ(merged[1].kind, obs::EventKind::kVoteCast);
  EXPECT_EQ(merged[2].kind, obs::EventKind::kVoteRecv);
  EXPECT_EQ(merged[3].kind, obs::EventKind::kSchedQueue);
  for (std::size_t i = 1; i < merged.size(); ++i) EXPECT_LT(merged[i - 1].seq, merged[i].seq);
}

ExperimentConfig traced_config(obs::Tracer* tracer) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 4;
  cfg.delta = milliseconds(200);
  cfg.duration = seconds(2);
  cfg.seed = 42;
  cfg.net.matrix = net::LatencyMatrix::uniform(milliseconds(50), 1);
  cfg.net.regions_used = 1;
  cfg.net.jitter = 0.0;
  cfg.net.adversarial_before_gst = false;
  cfg.tracer = tracer;
  return cfg;
}

TEST(Tracer, TracedRunsAreDeterministic) {
  obs::Tracer t1(4), t2(4);
  run_experiment(traced_config(&t1));
  run_experiment(traced_config(&t2));
  EXPECT_GT(t1.total_recorded(), 0u);
  EXPECT_EQ(t1.total_recorded(), t2.total_recorded());
  EXPECT_EQ(t1.digest(), t2.digest());

  // The retained windows match event-for-event, not just in digest.
  const auto m1 = t1.merged();
  const auto m2 = t2.merged();
  ASSERT_EQ(m1.size(), m2.size());
  for (std::size_t i = 0; i < m1.size(); ++i) {
    EXPECT_EQ(m1[i].t, m2[i].t);
    EXPECT_EQ(m1[i].seq, m2[i].seq);
    EXPECT_EQ(m1[i].node, m2[i].node);
    EXPECT_EQ(m1[i].kind, m2[i].kind);
    EXPECT_EQ(m1[i].view, m2[i].view);
    EXPECT_EQ(m1[i].a, m2[i].a);
    EXPECT_EQ(m1[i].b, m2[i].b);
    EXPECT_EQ(m1[i].c, m2[i].c);
  }
}

TEST(Tracer, TracedRunEmitsCoreProtocolEvents) {
  obs::Tracer t(4);
  run_experiment(traced_config(&t));
  std::size_t enters = 0, proposals = 0, votes = 0, qcs = 0, commits = 0, sends = 0;
  for (const auto& e : t.merged()) {
    switch (e.kind) {
      case obs::EventKind::kViewEnter: ++enters; break;
      case obs::EventKind::kOptProposalSent:
      case obs::EventKind::kProposalSent: ++proposals; break;
      case obs::EventKind::kVoteCast: ++votes; break;
      case obs::EventKind::kQcFormed: ++qcs; break;
      case obs::EventKind::kCommit: ++commits; break;
      case obs::EventKind::kMsgSent: ++sends; break;
      default: break;
    }
  }
  EXPECT_GT(enters, 4u);  // every node enters several views
  EXPECT_GT(proposals, 0u);
  EXPECT_GT(votes, 0u);
  EXPECT_GT(qcs, 0u);
  EXPECT_GT(commits, 0u);
  EXPECT_GT(sends, 0u);
}

}  // namespace
}  // namespace moonshot
