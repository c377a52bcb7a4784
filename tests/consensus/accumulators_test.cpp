#include "consensus/accumulators.hpp"

#include <gtest/gtest.h>

#include "types/cert_cache.hpp"

namespace moonshot {
namespace {

class AccumulatorTest : public ::testing::Test {
 protected:
  AccumulatorTest() : gen_(ValidatorSet::generate(4, crypto::fast_scheme(), 1)) {
    block_ = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(10, 1));
  }
  Vote vote_from(NodeId id, VoteKind kind = VoteKind::kNormal, View view = 1) {
    return Vote::make(kind, view, block_->id(), id, gen_.private_keys[id],
                      gen_.set->scheme());
  }
  TimeoutMsg timeout_from(NodeId id, View view) {
    return TimeoutMsg::make(view, id, nullptr, gen_.private_keys[id], gen_.set->scheme());
  }
  ValidatorSet::Generated gen_;
  BlockPtr block_;
};

TEST_F(AccumulatorTest, EmitsQcAtQuorum) {
  VoteAccumulator acc(gen_.set, true);
  EXPECT_EQ(acc.add(vote_from(0), 1), nullptr);
  EXPECT_EQ(acc.add(vote_from(1), 1), nullptr);
  const auto qc = acc.add(vote_from(2), 1);
  ASSERT_NE(qc, nullptr);
  EXPECT_EQ(qc->voters.size(), 3u);
  EXPECT_EQ(qc->height, 1u);
}

TEST_F(AccumulatorTest, EmitsOnlyOnce) {
  VoteAccumulator acc(gen_.set, true);
  acc.add(vote_from(0), 1);
  acc.add(vote_from(1), 1);
  ASSERT_NE(acc.add(vote_from(2), 1), nullptr);
  EXPECT_EQ(acc.add(vote_from(3), 1), nullptr);  // past quorum: no re-emit
}

TEST_F(AccumulatorTest, IgnoresDuplicateVoter) {
  VoteAccumulator acc(gen_.set, true);
  acc.add(vote_from(0), 1);
  acc.add(vote_from(0), 1);
  acc.add(vote_from(0), 1);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 1u);
}

TEST_F(AccumulatorTest, RejectsInvalidSignature) {
  VoteAccumulator acc(gen_.set, true);
  auto v = vote_from(0);
  v.sig.data[0] ^= 1;
  acc.add(v, 1);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 0u);
}

TEST_F(AccumulatorTest, SkipsSignatureCheckWhenDisabled) {
  VoteAccumulator acc(gen_.set, false);
  auto v = vote_from(0);
  v.sig.data[0] ^= 1;
  acc.add(v, 1);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 1u);
}

TEST_F(AccumulatorTest, KindsAccumulateSeparately) {
  // 2 normal + 2 optimistic votes for the same block: no certificate.
  VoteAccumulator acc(gen_.set, true);
  EXPECT_EQ(acc.add(vote_from(0, VoteKind::kNormal), 1), nullptr);
  EXPECT_EQ(acc.add(vote_from(1, VoteKind::kNormal), 1), nullptr);
  EXPECT_EQ(acc.add(vote_from(2, VoteKind::kOptimistic), 1), nullptr);
  EXPECT_EQ(acc.add(vote_from(3, VoteKind::kOptimistic), 1), nullptr);
  // A third optimistic vote completes the optimistic certificate.
  const auto qc = acc.add(vote_from(0, VoteKind::kOptimistic), 1);
  ASSERT_NE(qc, nullptr);
  EXPECT_EQ(qc->kind, VoteKind::kOptimistic);
}

TEST_F(AccumulatorTest, PruneDropsOldViews) {
  VoteAccumulator acc(gen_.set, true);
  acc.add(vote_from(0, VoteKind::kNormal, 1), 1);
  acc.add(vote_from(0, VoteKind::kNormal, 5), 1);
  acc.prune_below(3);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 0u);
  EXPECT_EQ(acc.count(5, VoteKind::kNormal, block_->id()), 1u);
}

TEST_F(AccumulatorTest, TimeoutThresholds) {
  TimeoutAccumulator acc(gen_.set, true);
  auto r = acc.add(timeout_from(0, 2));
  EXPECT_EQ(r.f_plus_1_view, 0u);
  EXPECT_EQ(r.tc, nullptr);
  r = acc.add(timeout_from(1, 2));  // f+1 = 2
  EXPECT_EQ(r.f_plus_1_view, 2u);
  EXPECT_EQ(r.tc, nullptr);
  r = acc.add(timeout_from(2, 2));  // quorum = 3
  EXPECT_EQ(r.f_plus_1_view, 0u);  // one-shot
  ASSERT_NE(r.tc, nullptr);
  EXPECT_EQ(r.tc->view, 2u);
  r = acc.add(timeout_from(3, 2));
  EXPECT_EQ(r.tc, nullptr);  // one-shot
}

TEST_F(AccumulatorTest, TimeoutDuplicateSenderIgnored) {
  TimeoutAccumulator acc(gen_.set, true);
  acc.add(timeout_from(0, 2));
  const auto r = acc.add(timeout_from(0, 2));
  EXPECT_EQ(r.f_plus_1_view, 0u);
  EXPECT_EQ(acc.count(2), 1u);
}

TEST_F(AccumulatorTest, DuplicateVoteSkipsSignatureCheck) {
  // Dedupe happens before verification: a replay with a corrupted signature
  // is dropped as a duplicate, and the original vote survives.
  VoteAccumulator acc(gen_.set, true);
  acc.add(vote_from(0), 1);
  auto replay = vote_from(0);
  replay.sig.data[0] ^= 1;  // would fail verification if it were checked
  EXPECT_EQ(acc.add(replay, 1), nullptr);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 1u);
}

TEST_F(AccumulatorTest, CountsEquivocations) {
  VoteAccumulator acc(gen_.set, true);
  const auto other =
      Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(20, 2));
  acc.add(vote_from(0), 1);
  acc.add(vote_from(1), 1);
  EXPECT_EQ(acc.equivocations_seen(), 0u);
  // Node 0 votes again in view 1, same kind, different block: equivocation.
  const auto eq = Vote::make(VoteKind::kNormal, 1, other->id(), 0,
                             gen_.private_keys[0], gen_.set->scheme());
  acc.add(eq, 1);
  EXPECT_EQ(acc.equivocations_seen(), 1u);
  // The equivocating vote still counts toward its own block's bucket.
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, other->id()), 1u);
  EXPECT_EQ(acc.count(1, VoteKind::kNormal, block_->id()), 2u);
  // Different kinds for different blocks are not equivocation.
  acc.add(vote_from(2, VoteKind::kOptimistic), 1);
  EXPECT_EQ(acc.equivocations_seen(), 1u);
}

TEST_F(AccumulatorTest, DuplicateTimeoutSkipsSignatureCheck) {
  TimeoutAccumulator acc(gen_.set, true);
  acc.add(timeout_from(0, 2));
  auto replay = timeout_from(0, 2);
  replay.sig.data[0] ^= 1;
  const auto r = acc.add(replay);
  EXPECT_EQ(r.f_plus_1_view, 0u);
  EXPECT_EQ(acc.count(2), 1u);
}

TEST_F(AccumulatorTest, TimeoutLockValidationUsesCertCache) {
  // Timeouts carrying the same lock should verify its signatures once.
  const auto ed = ValidatorSet::generate(4, crypto::ed25519_scheme(), 5);
  std::vector<Vote> votes;
  for (NodeId i = 0; i < ed.set->quorum_size(); ++i)
    votes.push_back(Vote::make(VoteKind::kNormal, 1, block_->id(), i,
                               ed.private_keys[i], ed.set->scheme()));
  const auto qc = QuorumCert::assemble(votes, 1, *ed.set);
  ASSERT_TRUE(qc);

  TimeoutAccumulator acc(ed.set, true);
  CertVerifyCache cache;
  acc.set_cert_cache(&cache);
  for (NodeId i = 0; i < 3; ++i)
    acc.add(TimeoutMsg::make(2, i, qc, ed.private_keys[i], ed.set->scheme()));
  EXPECT_EQ(acc.count(2), 3u);
  EXPECT_EQ(cache.stats().insertions, 1u);  // lock verified exactly once
  EXPECT_EQ(cache.stats().hits, 2u);        // the other two timeouts hit
}

TEST_F(AccumulatorTest, ConflictingTimeoutFirstWins) {
  // Node 0 first claims no lock, then re-times-out claiming a view-1 lock.
  // The first message is pinned: swapping retroactively would let the sender
  // rewrite an already-emitted TC's high-QC.
  std::vector<Vote> votes;
  for (NodeId i = 0; i < 3; ++i) votes.push_back(vote_from(i));
  const QcPtr lock = QuorumCert::assemble(votes, 1, *gen_.set);
  ASSERT_TRUE(lock);

  TimeoutAccumulator acc(gen_.set, true);
  acc.add(timeout_from(0, 2));  // no lock
  const auto conflict = TimeoutMsg::make(2, 0, lock, gen_.private_keys[0],
                                         gen_.set->scheme());
  const auto r = acc.add(conflict);
  EXPECT_EQ(r.f_plus_1_view, 0u);
  EXPECT_EQ(r.tc, nullptr);
  EXPECT_EQ(acc.count(2), 1u);
  EXPECT_EQ(acc.equivocations_seen(), 1u);
  EXPECT_EQ(acc.duplicates_dropped(), 0u);

  // The TC assembled after two more honest timeouts carries the pinned
  // no-lock entry for node 0, not the conflicting lock.
  acc.add(timeout_from(1, 2));
  const auto done = acc.add(timeout_from(2, 2));
  ASSERT_NE(done.tc, nullptr);
  EXPECT_EQ(done.tc->high_qc, nullptr);
  EXPECT_EQ(done.tc->high_qc_view(), 0u);
}

TEST_F(AccumulatorTest, ConflictingTimeoutCountedOncePerSender) {
  std::vector<Vote> votes;
  for (NodeId i = 0; i < 3; ++i) votes.push_back(vote_from(i));
  const QcPtr lock = QuorumCert::assemble(votes, 1, *gen_.set);
  ASSERT_TRUE(lock);

  TimeoutAccumulator acc(gen_.set, true);
  acc.add(timeout_from(0, 2));
  const auto conflict = TimeoutMsg::make(2, 0, lock, gen_.private_keys[0],
                                         gen_.set->scheme());
  // A TimeoutEquivocator spamming the same conflict is one equivocation, not
  // one per message.
  acc.add(conflict);
  acc.add(conflict);
  acc.add(conflict);
  EXPECT_EQ(acc.equivocations_seen(), 1u);
  // A second sender conflicting is its own piece of evidence.
  acc.add(timeout_from(1, 2));
  acc.add(TimeoutMsg::make(2, 1, lock, gen_.private_keys[1], gen_.set->scheme()));
  EXPECT_EQ(acc.equivocations_seen(), 2u);
}

TEST_F(AccumulatorTest, ExactTimeoutResendIsDuplicateNotEquivocation) {
  TimeoutAccumulator acc(gen_.set, true);
  acc.add(timeout_from(0, 2));
  acc.add(timeout_from(0, 2));  // identical lock view: pacemaker retransmit
  acc.add(timeout_from(0, 2));
  EXPECT_EQ(acc.equivocations_seen(), 0u);
  EXPECT_EQ(acc.duplicates_dropped(), 2u);
  EXPECT_EQ(acc.count(2), 1u);
}

TEST_F(AccumulatorTest, TimeoutViewsIndependent) {
  TimeoutAccumulator acc(gen_.set, true);
  acc.add(timeout_from(0, 2));
  acc.add(timeout_from(1, 3));
  EXPECT_EQ(acc.count(2), 1u);
  EXPECT_EQ(acc.count(3), 1u);
}

// --- the view window [floor, view + kViewWindow) --------------------------------

TEST_F(AccumulatorTest, VoteWindowEdges) {
  View view = 20;
  VoteAccumulator acc(gen_.set, true, false, &view);
  acc.prune_below(18);
  const View top = view + kViewWindow;
  for (const View v : {View{17}, View{18}, top - 1, top})
    acc.add(vote_from(0, VoteKind::kNormal, v), 1);
  EXPECT_EQ(acc.count(17, VoteKind::kNormal, block_->id()), 0u);  // floor − 1
  EXPECT_EQ(acc.count(18, VoteKind::kNormal, block_->id()), 1u);  // floor
  EXPECT_EQ(acc.count(top - 1, VoteKind::kNormal, block_->id()), 1u);
  EXPECT_EQ(acc.count(top, VoteKind::kNormal, block_->id()), 0u);
  EXPECT_EQ(acc.window_dropped(), 2u);
  // The window's upper end follows the node's view.
  ++view;
  acc.add(vote_from(0, VoteKind::kNormal, top), 1);
  EXPECT_EQ(acc.count(top, VoteKind::kNormal, block_->id()), 1u);
  EXPECT_EQ(acc.window_dropped(), 2u);
}

TEST_F(AccumulatorTest, CommitVoteWindowEdges) {
  // Commit votes keep 16 views below the node's view.
  View view = 40;
  VoteAccumulator acc(gen_.set, true, false, &view);
  acc.prune_below(view - 16);
  const View floor = view - 16;
  const View top = view + kViewWindow;
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(acc.add(vote_from(id, VoteKind::kCommit, floor - 1), 1), nullptr);
    EXPECT_EQ(acc.add(vote_from(id, VoteKind::kCommit, top), 1), nullptr);
  }
  EXPECT_EQ(acc.window_dropped(), 6u);
  EXPECT_EQ(acc.entries(), 0u);
  for (const View v : {floor, top - 1}) {
    acc.add(vote_from(0, VoteKind::kCommit, v), 1);
    acc.add(vote_from(1, VoteKind::kCommit, v), 1);
    const QcPtr qc = acc.add(vote_from(2, VoteKind::kCommit, v), 1);
    ASSERT_NE(qc, nullptr) << "view " << v;
    EXPECT_EQ(qc->view, v);
  }
  EXPECT_EQ(acc.window_dropped(), 6u);
}

TEST_F(AccumulatorTest, TimeoutWindowEdges) {
  View view = 20;
  TimeoutAccumulator acc(gen_.set, true, &view);
  acc.prune_below(18);
  const View top = view + kViewWindow;
  for (const View v : {View{17}, View{18}, top - 1}) {
    EXPECT_EQ(acc.add(timeout_from(0, v)).f_plus_1_view, 0u);
    EXPECT_EQ(acc.add(timeout_from(1, v)).f_plus_1_view, v == 17 ? 0u : v) << "view " << v;
  }
  EXPECT_EQ(acc.count(17), 0u);
  EXPECT_EQ(acc.count(18), 2u);
  EXPECT_EQ(acc.count(top - 1), 2u);
  // Past the window only each sender's view is kept, and f+1 of them still
  // trigger the amplification.
  EXPECT_EQ(acc.add(timeout_from(0, top)).f_plus_1_view, 0u);
  EXPECT_EQ(acc.add(timeout_from(1, top)).f_plus_1_view, top);
  EXPECT_EQ(acc.count(top), 0u);
  EXPECT_EQ(acc.add(timeout_from(2, top)).tc, nullptr);
}

TEST_F(AccumulatorTest, TimeoutsPastTheWindowKeepEachSendersHighestView) {
  TimeoutAccumulator acc(gen_.set, true);  // window [0, kViewWindow)
  const View far = 3 * kViewWindow;
  EXPECT_EQ(acc.add(timeout_from(0, far + 10)).f_plus_1_view, 0u);
  EXPECT_EQ(acc.add(timeout_from(0, far)).f_plus_1_view, 0u);  // lower: ignored
  EXPECT_EQ(acc.entries(), 1u);
  // f+1 = 2 senders: the amplification view is the lower of the two highest.
  EXPECT_EQ(acc.add(timeout_from(1, far + 5)).f_plus_1_view, far + 5);
  EXPECT_EQ(acc.add(timeout_from(1, far + 20)).f_plus_1_view, far + 10);
  EXPECT_EQ(acc.add(timeout_from(0, far + 15)).f_plus_1_view, far + 15);
  EXPECT_EQ(acc.add(timeout_from(0, far + 15)).f_plus_1_view, 0u);  // re-send
  // A forged timeout does not displace the sender's view.
  auto forged = timeout_from(0, far + 30);
  forged.sig.data[0] ^= 1;
  EXPECT_EQ(acc.add(forged).f_plus_1_view, 0u);
  EXPECT_EQ(acc.add(timeout_from(2, far + 16)).f_plus_1_view, far + 16);
  EXPECT_EQ(acc.entries(), 3u);
}

}  // namespace
}  // namespace moonshot
