// Rule-level unit tests: drive single protocol nodes with hand-crafted
// messages through a capturing network, and assert exactly which messages
// each Figure 1 / Figure 3 / Figure 4 rule emits.
#include <gtest/gtest.h>

#include "consensus/hotstuff/hotstuff.hpp"
#include "consensus/jolteon/jolteon.hpp"
#include "consensus/moonshot/commit_moonshot.hpp"
#include "consensus/moonshot/pipelined_moonshot.hpp"
#include "consensus/moonshot/simple_moonshot.hpp"

namespace moonshot {
namespace {

/// Records every send instead of delivering it.
class CaptureNetwork final : public net::INetwork {
 public:
  struct Sent {
    NodeId from;
    NodeId to;  // kNoNode = multicast
    MessagePtr msg;
  };
  void multicast(NodeId from, MessagePtr m) override {
    sent.push_back({from, kNoNode, std::move(m)});
  }
  void unicast(NodeId from, NodeId to, MessagePtr m) override {
    sent.push_back({from, to, std::move(m)});
  }

  template <typename T>
  std::vector<const T*> of_type() const {
    std::vector<const T*> out;
    for (const auto& s : sent)
      if (const T* p = std::get_if<T>(s.msg.get())) out.push_back(p);
    return out;
  }
  std::vector<Vote> votes() const {
    std::vector<Vote> out;
    for (const auto* v : of_type<VoteMsg>()) out.push_back(v->vote);
    return out;
  }
  void clear() { sent.clear(); }

  std::vector<Sent> sent;
};

/// Fixture: a 4-node validator set; the node under test is id 0 by default,
/// and the other identities' keys are available for forging votes/timeouts.
class NodeRulesTest : public ::testing::Test {
 protected:
  NodeRulesTest() : gen_(ValidatorSet::generate(4, crypto::fast_scheme(), 1)) {}

  NodeContext make_ctx(NodeId id) {
    NodeContext ctx;
    ctx.id = id;
    ctx.validators = gen_.set;
    ctx.priv = gen_.private_keys[id];
    ctx.network = &net_;
    ctx.sched = &sched_;
    ctx.leaders = std::make_shared<const RoundRobinSchedule>(4);
    ctx.delta = milliseconds(100);
    ctx.payload_for_view = [](View v) { return Payload::synthetic(100, v); };
    ctx.verify_signatures = true;
    return ctx;
  }

  Vote vote_from(NodeId id, VoteKind kind, View view, const BlockId& block) {
    return Vote::make(kind, view, block, id, gen_.private_keys[id], gen_.set->scheme());
  }
  QcPtr qc_for(const BlockPtr& block, VoteKind kind = VoteKind::kNormal) {
    std::vector<Vote> votes;
    for (NodeId i = 0; i < 3; ++i)
      votes.push_back(vote_from(i, kind, block->view(), block->id()));
    return QuorumCert::assemble(votes, block->height(), *gen_.set);
  }
  TimeoutMsg timeout_from(NodeId id, View view, QcPtr lock) {
    return TimeoutMsg::make(view, id, std::move(lock), gen_.private_keys[id],
                            gen_.set->scheme());
  }
  TcPtr tc_for(View view, QcPtr lock) {
    std::vector<TimeoutMsg> ts;
    for (NodeId i = 0; i < 3; ++i) ts.push_back(timeout_from(i, view, lock));
    return TimeoutCert::assemble(ts, *gen_.set);
  }
  BlockPtr child_of(const BlockPtr& parent, View view) {
    return Block::create(view, parent->height() + 1, parent->id(),
                         Payload::synthetic(100, view));
  }

  ValidatorSet::Generated gen_;
  sim::Scheduler sched_;
  CaptureNetwork net_;
};

// --- Pipelined Moonshot (Figure 3) ---------------------------------------------

TEST_F(NodeRulesTest, PmVotesOnValidNormalProposal) {
  // Node 1 in view 1; leader of view 1 is node 0.
  PipelinedMoonshotNode node(make_ctx(1));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  const auto votes = net_.votes();
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0].kind, VoteKind::kNormal);
  EXPECT_EQ(votes[0].block, b1->id());
  EXPECT_EQ(votes[0].view, 1u);
}

TEST_F(NodeRulesTest, PmRejectsProposalFromWrongLeader) {
  PipelinedMoonshotNode node(make_ctx(1));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  // Node 2 is not the leader of view 1.
  node.handle(2, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{2}));
  EXPECT_TRUE(net_.votes().empty());
}

TEST_F(NodeRulesTest, PmRejectsNormalProposalWithStaleJustify) {
  PipelinedMoonshotNode node(make_ctx(1));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  net_.clear();
  // A proposal for view 3 justified by the view-1 certificate (gap) must be
  // refused: normal proposals need C_{v-1}.
  const auto qc1 = qc_for(b1);
  node.handle(0, make_message<CertMsg>(qc1, NodeId{0}));  // advance to view 2
  const auto b3 = child_of(b1, 3);
  node.handle(2, make_message<ProposalMsg>(b3, qc1, nullptr, NodeId{2}));
  for (const auto& v : net_.votes()) EXPECT_NE(v.block, b3->id());
}

TEST_F(NodeRulesTest, PmOptimisticVoteRequiresMatchingLock) {
  PipelinedMoonshotNode node(make_ctx(2));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  const auto b2 = child_of(b1, 2);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  net_.clear();  // drop the normal vote for b1
  // Opt proposal for view 2 arrives while the node is still in view 1 with a
  // genesis lock: no vote yet.
  node.handle(1, make_message<OptProposalMsg>(b2, NodeId{1}));
  EXPECT_TRUE(net_.votes().empty());
  // The certificate for b1 arrives; node locks it, enters view 2, and the
  // buffered optimistic proposal becomes votable.
  node.handle(0, make_message<CertMsg>(qc_for(b1), NodeId{0}));
  const auto votes = net_.votes();
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0].kind, VoteKind::kOptimistic);
  EXPECT_EQ(votes[0].block, b2->id());
}

TEST_F(NodeRulesTest, PmSendsNormalVoteEvenAfterOptimisticVoteForSameBlock) {
  // Figure 3: "P_i must send this vote if it has already sent an optimistic
  // vote for B_k" — both votes, same block.
  PipelinedMoonshotNode node(make_ctx(2));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  const auto b2 = child_of(b1, 2);
  const auto qc1 = qc_for(b1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  net_.clear();  // drop the normal vote for b1
  node.handle(1, make_message<OptProposalMsg>(b2, NodeId{1}));
  node.handle(0, make_message<CertMsg>(qc1, NodeId{0}));  // -> opt vote
  node.handle(1, make_message<ProposalMsg>(b2, qc1, nullptr, NodeId{1}));  // -> normal vote
  const auto votes = net_.votes();
  ASSERT_EQ(votes.size(), 2u);
  EXPECT_EQ(votes[0].kind, VoteKind::kOptimistic);
  EXPECT_EQ(votes[1].kind, VoteKind::kNormal);
  EXPECT_EQ(votes[0].block, votes[1].block);
}

TEST_F(NodeRulesTest, PmRefusesNormalVoteAfterOptVoteForEquivocatingBlock) {
  PipelinedMoonshotNode node(make_ctx(2));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  const auto qc1 = qc_for(b1);
  const auto b2a = child_of(b1, 2);
  auto payload_b = Payload::synthetic(999, 999);
  const auto b2b = Block::create(2, b1->height() + 1, b1->id(), payload_b);
  node.handle(1, make_message<OptProposalMsg>(b2a, NodeId{1}));
  node.handle(0, make_message<CertMsg>(qc1, NodeId{0}));  // opt vote for b2a
  net_.clear();
  // The (Byzantine) leader now sends a conflicting normal proposal b2b.
  node.handle(1, make_message<ProposalMsg>(b2b, qc1, nullptr, NodeId{1}));
  EXPECT_TRUE(net_.votes().empty());
}

TEST_F(NodeRulesTest, PmFallbackVoteChecksTcRank) {
  PipelinedMoonshotNode node(make_ctx(2));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  const auto qc1 = qc_for(b1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  node.handle(0, make_message<CertMsg>(qc1, NodeId{0}));  // lock qc1, view 2
  net_.clear();

  // TC for view 2 whose highest lock is qc1; fallback proposal for view 3
  // justified by the *genesis* certificate ranks below it: refused.
  const auto tc2 = tc_for(2, qc1);
  const auto bad = child_of(Block::genesis(), 3);
  node.handle(2, make_message<FbProposalMsg>(bad, QuorumCert::genesis_qc(), tc2, NodeId{2}));
  EXPECT_TRUE(net_.votes().empty());

  // Justified by qc1 (equal rank): accepted.
  const auto good = child_of(b1, 3);
  node.handle(2, make_message<FbProposalMsg>(good, qc1, tc2, NodeId{2}));
  const auto votes = net_.votes();
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0].kind, VoteKind::kFallback);
  EXPECT_EQ(votes[0].block, good->id());
}

TEST_F(NodeRulesTest, PmTimerExpiryMulticastsTimeoutWithLock) {
  PipelinedMoonshotNode node(make_ctx(1));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<CertMsg>(qc_for(b1), NodeId{0}));  // lock qc1, view 2
  net_.clear();
  sched_.run_for(milliseconds(300));  // 3Δ timer fires
  const auto timeouts = net_.of_type<TimeoutMsgWrap>();
  ASSERT_EQ(timeouts.size(), 1u);
  EXPECT_EQ(timeouts[0]->timeout.view, 2u);
  ASSERT_NE(timeouts[0]->timeout.high_qc, nullptr);
  EXPECT_EQ(timeouts[0]->timeout.high_qc->view, 1u);  // the lock travels along
  EXPECT_EQ(node.timeout_view(), 2u);
}

TEST_F(NodeRulesTest, PmBrachaAmplificationOnFPlusOneTimeouts) {
  PipelinedMoonshotNode node(make_ctx(0));
  node.start();
  net_.clear();
  // f+1 = 2 timeouts for view 1 from others force our own timeout.
  node.handle(1, make_message<TimeoutMsgWrap>(timeout_from(1, 1, QuorumCert::genesis_qc())));
  EXPECT_TRUE(net_.of_type<TimeoutMsgWrap>().empty());  // one is not enough
  node.handle(2, make_message<TimeoutMsgWrap>(timeout_from(2, 1, QuorumCert::genesis_qc())));
  const auto timeouts = net_.of_type<TimeoutMsgWrap>();
  ASSERT_EQ(timeouts.size(), 1u);
  EXPECT_EQ(timeouts[0]->timeout.view, 1u);
}

TEST_F(NodeRulesTest, PmTcAdvancesAndUnicastsToLeader) {
  PipelinedMoonshotNode node(make_ctx(0));
  node.start();
  net_.clear();
  const auto tc1 = tc_for(1, QuorumCert::genesis_qc());
  node.handle(3, make_message<TcMsg>(tc1, NodeId{3}));
  EXPECT_EQ(node.current_view(), 2u);
  // Amplification: own timeout for view 1 multicast.
  ASSERT_EQ(net_.of_type<TimeoutMsgWrap>().size(), 1u);
  // TC forwarded by unicast to L_2 = node 1 (not multicast).
  bool unicast_tc = false;
  for (const auto& s : net_.sent) {
    if (std::get_if<TcMsg>(s.msg.get())) {
      EXPECT_EQ(s.to, 1u);
      unicast_tc = true;
    }
  }
  EXPECT_TRUE(unicast_tc);
}

TEST_F(NodeRulesTest, PmLeaderFallbackProposesImmediatelyFromTc) {
  // Node 1 leads view 2. Entering via TC must produce an fb-proposal at once
  // (optimistic responsiveness — no 2Δ wait).
  PipelinedMoonshotNode node(make_ctx(1));
  node.start();
  net_.clear();
  node.handle(3, make_message<TcMsg>(tc_for(1, QuorumCert::genesis_qc()), NodeId{3}));
  const auto fbs = net_.of_type<FbProposalMsg>();
  ASSERT_EQ(fbs.size(), 1u);
  EXPECT_EQ(fbs[0]->block->view(), 2u);
  EXPECT_EQ(fbs[0]->block->parent(), Block::genesis()->id());
  EXPECT_EQ(fbs[0]->tc->view, 1u);
}

TEST_F(NodeRulesTest, PmCertMulticastOnAdvance) {
  PipelinedMoonshotNode node(make_ctx(2));
  node.start();
  net_.clear();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<CertMsg>(qc_for(b1), NodeId{0}));
  // Reorg-resilience rule: the certificate is re-multicast on view entry.
  ASSERT_EQ(net_.of_type<CertMsg>().size(), 1u);
  EXPECT_EQ(node.current_view(), 2u);
}

TEST_F(NodeRulesTest, PmOptProposalWhenNextLeaderVotes) {
  // Node 1 leads view 2: upon voting for b1 in view 1 it must immediately
  // opt-propose a child for view 2 (rule 3).
  PipelinedMoonshotNode node(make_ctx(1));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  const auto opts = net_.of_type<OptProposalMsg>();
  ASSERT_EQ(opts.size(), 1u);
  EXPECT_EQ(opts[0]->block->view(), 2u);
  EXPECT_EQ(opts[0]->block->parent(), b1->id());
}

TEST_F(NodeRulesTest, PmNoVoteAfterOwnTimeout) {
  PipelinedMoonshotNode node(make_ctx(1));
  node.start();
  sched_.run_for(milliseconds(300));  // timer fires: timeout for view 1
  net_.clear();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  EXPECT_TRUE(net_.votes().empty());  // timeout_view >= v blocks voting
}

// --- Simple Moonshot (Figure 1) ---------------------------------------------------

TEST_F(NodeRulesTest, SmVotesOnceOnlyPerView) {
  SimpleMoonshotNode node(make_ctx(2));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  EXPECT_EQ(net_.votes().size(), 1u);
  EXPECT_EQ(net_.votes()[0].kind, VoteKind::kNormal);  // SM has a single kind
}

TEST_F(NodeRulesTest, SmStatusSentWhenLockIsStale) {
  SimpleMoonshotNode node(make_ctx(2));
  node.start();
  net_.clear();
  // Jump from view 1 to view 4 via a TC for view 3: the node's lock (genesis)
  // is older than view 3, so it must report it to L_4 = node 3.
  const auto tc3 = tc_for(3, nullptr);
  node.handle(1, make_message<TcMsg>(tc3, NodeId{1}));
  EXPECT_EQ(node.current_view(), 4u);
  const auto statuses = net_.of_type<StatusMsg>();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0]->view, 4u);
  ASSERT_NE(statuses[0]->lock, nullptr);
  EXPECT_TRUE(statuses[0]->lock->is_genesis());
  bool unicast_to_leader = false;
  for (const auto& s : net_.sent)
    if (std::get_if<StatusMsg>(s.msg.get()) && s.to == 3u) unicast_to_leader = true;
  EXPECT_TRUE(unicast_to_leader);
}

TEST_F(NodeRulesTest, SmLeaderWaitsTwoDeltaAfterTc) {
  // Node 1 leads view 2; it enters via TC_1 and must NOT propose until
  // either C_1 arrives or 2Δ elapses.
  SimpleMoonshotNode node(make_ctx(1));
  node.start();
  net_.clear();
  node.handle(3, make_message<TcMsg>(tc_for(1, nullptr), NodeId{3}));
  EXPECT_TRUE(net_.of_type<ProposalMsg>().empty());  // no immediate proposal
  sched_.run_for(milliseconds(100));                 // 1Δ: still waiting
  EXPECT_TRUE(net_.of_type<ProposalMsg>().empty());
  sched_.run_for(milliseconds(150));                 // past 2Δ
  const auto props = net_.of_type<ProposalMsg>();
  ASSERT_EQ(props.size(), 1u);
  EXPECT_EQ(props[0]->block->view(), 2u);
  EXPECT_EQ(props[0]->block->parent(), Block::genesis()->id());
}

TEST_F(NodeRulesTest, SmLeaderProposesEarlyWhenCertArrives) {
  SimpleMoonshotNode node(make_ctx(1));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  net_.clear();
  node.handle(3, make_message<TcMsg>(tc_for(1, nullptr), NodeId{3}));  // enter view 2 via TC
  EXPECT_TRUE(net_.of_type<ProposalMsg>().empty());
  node.handle(2, make_message<CertMsg>(qc_for(b1), NodeId{2}));  // C_1 arrives inside 2Δ
  const auto props = net_.of_type<ProposalMsg>();
  ASSERT_EQ(props.size(), 1u);
  EXPECT_EQ(props[0]->block->parent(), b1->id());
}

TEST_F(NodeRulesTest, SmLockOnlyUpdatesAtViewEntry) {
  SimpleMoonshotNode node(make_ctx(2));
  node.start();
  // Jump to view 5 via TC_4 with a genesis lock.
  node.handle(1, make_message<TcMsg>(tc_for(4, nullptr), NodeId{1}));
  EXPECT_EQ(node.current_view(), 5u);
  EXPECT_TRUE(node.lock()->is_genesis());
  // C_1 (higher than the lock, lower than the view) arrives mid-view: the
  // lock must NOT move — Simple Moonshot locks only at view transitions.
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<CertMsg>(qc_for(b1), NodeId{0}));
  EXPECT_EQ(node.current_view(), 5u);
  EXPECT_TRUE(node.lock()->is_genesis());
  // The next transition (TC_5) applies the highest certificate received.
  node.handle(1, make_message<TcMsg>(tc_for(5, nullptr), NodeId{1}));
  EXPECT_EQ(node.current_view(), 6u);
  EXPECT_EQ(node.lock()->view, 1u);
}

// --- Commit Moonshot (Figure 4) -----------------------------------------------------

TEST_F(NodeRulesTest, CmSendsCommitVoteOnCertificate) {
  CommitMoonshotNode node(make_ctx(2));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  net_.clear();
  node.handle(0, make_message<CertMsg>(qc_for(b1), NodeId{0}));
  bool commit_vote = false;
  for (const auto& v : net_.votes())
    if (v.kind == VoteKind::kCommit && v.block == b1->id()) commit_vote = true;
  EXPECT_TRUE(commit_vote);
}

TEST_F(NodeRulesTest, CmNoCommitVoteAfterTimeout) {
  CommitMoonshotNode node(make_ctx(2));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  sched_.run_for(milliseconds(300));  // timeout for view 1 fires
  net_.clear();
  node.handle(0, make_message<CertMsg>(qc_for(b1), NodeId{0}));
  for (const auto& v : net_.votes()) EXPECT_NE(v.kind, VoteKind::kCommit);
}

TEST_F(NodeRulesTest, CmQuorumOfCommitVotesCommits) {
  CommitMoonshotNode node(make_ctx(3));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  EXPECT_EQ(node.commit_log().size(), 0u);
  for (NodeId i = 0; i < 3; ++i) {
    node.handle(i, make_message<VoteMsg>(vote_from(i, VoteKind::kCommit, 1, b1->id())));
  }
  ASSERT_EQ(node.commit_log().size(), 1u);
  EXPECT_EQ(node.commit_log().blocks()[0]->id(), b1->id());
}

// --- Jolteon ----------------------------------------------------------------------

TEST_F(NodeRulesTest, JolteonVoteGoesToNextLeaderOnly) {
  JolteonNode node(make_ctx(2));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  ASSERT_EQ(net_.sent.size(), 1u);
  EXPECT_EQ(net_.sent[0].to, 1u);  // L_2, unicast — the linear pattern
  ASSERT_NE(std::get_if<VoteMsg>(net_.sent[0].msg.get()), nullptr);
}

TEST_F(NodeRulesTest, JolteonAggregatorProposesOnQuorum) {
  // Node 1 leads round 2: three votes for b1 let it form QC_1 and propose.
  JolteonNode node(make_ctx(1));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  net_.clear();
  node.handle(0, make_message<VoteMsg>(vote_from(0, VoteKind::kNormal, 1, b1->id())));
  node.handle(2, make_message<VoteMsg>(vote_from(2, VoteKind::kNormal, 1, b1->id())));
  node.handle(3, make_message<VoteMsg>(vote_from(3, VoteKind::kNormal, 1, b1->id())));
  const auto props = net_.of_type<ProposalMsg>();
  ASSERT_EQ(props.size(), 1u);
  EXPECT_EQ(props[0]->block->view(), 2u);
  EXPECT_EQ(props[0]->block->parent(), b1->id());
  EXPECT_EQ(props[0]->justify->view, 1u);
  EXPECT_EQ(node.current_view(), 2u);
}

TEST_F(NodeRulesTest, JolteonRejectsGapProposalWithoutTc) {
  JolteonNode node(make_ctx(2));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  const auto qc1 = qc_for(b1);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  net_.clear();
  // A proposal for round 3 justified by QC_1 but with no TC_2: refused.
  const auto b3 = child_of(b1, 3);
  node.handle(2, make_message<ProposalMsg>(b3, qc1, nullptr, NodeId{2}));
  EXPECT_TRUE(net_.votes().empty());
  // The same proposal with TC_2 attached: accepted.
  const auto tc2 = tc_for(2, qc1);
  node.handle(2, make_message<ProposalMsg>(b3, qc1, tc2, NodeId{2}));
  ASSERT_EQ(net_.votes().size(), 1u);
  EXPECT_EQ(net_.votes()[0].block, b3->id());
}

TEST_F(NodeRulesTest, JolteonTwoChainCommit) {
  JolteonNode node(make_ctx(3));
  node.start();
  const auto b1 = child_of(Block::genesis(), 1);
  const auto b2 = child_of(b1, 2);
  const auto qc1 = qc_for(b1);
  const auto qc2 = qc_for(b2);
  node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), nullptr, NodeId{0}));
  node.handle(1, make_message<ProposalMsg>(b2, qc1, nullptr, NodeId{1}));
  EXPECT_EQ(node.commit_log().size(), 0u);  // one QC is not enough
  const auto b3 = child_of(b2, 3);
  node.handle(2, make_message<ProposalMsg>(b3, qc2, nullptr, NodeId{2}));
  // QC_1 + QC_2 over parent/child in consecutive rounds commit b1.
  ASSERT_GE(node.commit_log().size(), 1u);
  EXPECT_EQ(node.commit_log().blocks()[0]->id(), b1->id());
}

TEST_F(NodeRulesTest, JolteonFamilyIgnoresTcOnDirectProposal) {
  // A proposal justified from the directly preceding round needs no TC, so
  // a TC attached to it is never checked and must not move the pacemaker.
  auto bogus = std::make_shared<TimeoutCert>();
  bogus->view = 1000;  // no entries: proves nothing
  const auto b1 = child_of(Block::genesis(), 1);
  const auto check = [&](IConsensusNode& node) {
    SCOPED_TRACE(node.protocol_name());
    node.start();
    net_.clear();
    node.handle(0, make_message<ProposalMsg>(b1, QuorumCert::genesis_qc(), bogus, NodeId{0}));
    EXPECT_EQ(node.current_view(), 1u);
    EXPECT_TRUE(net_.of_type<TimeoutMsgWrap>().empty());
    ASSERT_EQ(net_.votes().size(), 1u);  // the proposal itself is fine
    EXPECT_EQ(net_.votes()[0].block, b1->id());
  };
  JolteonNode j(make_ctx(1));
  check(j);
  HotStuffNode hs(make_ctx(1));
  check(hs);
}

// --- Cross-protocol: malformed input never crashes, never emits ---------------------

class MalformedInputTest : public NodeRulesTest {};

TEST_F(MalformedInputTest, NodesIgnoreGarbage) {
  PipelinedMoonshotNode pm(make_ctx(1));
  pm.start();
  SimpleMoonshotNode sm(make_ctx(1));
  sm.start();
  JolteonNode j(make_ctx(1));
  j.start();
  net_.clear();

  const auto b1 = child_of(Block::genesis(), 1);
  // Forged vote (bad signature).
  auto forged = vote_from(2, VoteKind::kNormal, 1, b1->id());
  forged.sig.data[0] ^= 0xff;
  // Vote claiming a different sender than the channel.
  const auto mismatched = vote_from(3, VoteKind::kNormal, 1, b1->id());
  // Proposal with null members is unrepresentable through deserialization,
  // so the closest adversarial input is a proposal whose justify certificate
  // has too few votes.
  auto thin = std::make_shared<QuorumCert>();
  thin->kind = VoteKind::kNormal;
  thin->view = 1;
  thin->block = b1->id();
  thin->voters = {0};
  thin->sigs = {gen_.set->scheme().sign(gen_.private_keys[0], Bytes{})};

  for (IConsensusNode* node : std::initializer_list<IConsensusNode*>{&pm, &sm, &j}) {
    node->handle(2, make_message<VoteMsg>(forged));
    node->handle(1, make_message<VoteMsg>(mismatched));  // from != voter
    node->handle(0, make_message<ProposalMsg>(child_of(b1, 2), QcPtr(thin), nullptr, NodeId{0}));
  }
  EXPECT_TRUE(net_.votes().empty());
}

}  // namespace
}  // namespace moonshot
