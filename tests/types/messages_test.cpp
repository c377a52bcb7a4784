#include "types/messages.hpp"

#include <gtest/gtest.h>

namespace moonshot {
namespace {

class MessagesTest : public ::testing::Test {
 protected:
  MessagesTest() : gen_(ValidatorSet::generate(4, crypto::fast_scheme(), 1)) {
    block_ = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(100, 1));
    std::vector<Vote> votes;
    for (NodeId i = 0; i < 3; ++i)
      votes.push_back(Vote::make(VoteKind::kNormal, 1, block_->id(), i, gen_.private_keys[i],
                                 gen_.set->scheme()));
    qc_ = QuorumCert::assemble(votes, 1, *gen_.set);
    std::vector<TimeoutMsg> timeouts;
    for (NodeId i = 0; i < 3; ++i)
      timeouts.push_back(
          TimeoutMsg::make(2, i, qc_, gen_.private_keys[i], gen_.set->scheme()));
    tc_ = TimeoutCert::assemble(timeouts, *gen_.set);
  }

  MessagePtr round_trip(const Message& m) {
    Writer w;
    serialize_message(m, w);
    Reader r(w.buffer());
    return deserialize_message(r);
  }

  ValidatorSet::Generated gen_;
  BlockPtr block_;
  QcPtr qc_;
  TcPtr tc_;
};

TEST_F(MessagesTest, ProposalRoundTrip) {
  const auto m = make_message<ProposalMsg>(block_, qc_, nullptr, NodeId{2});
  const auto parsed = round_trip(*m);
  ASSERT_NE(parsed, nullptr);
  const auto* p = std::get_if<ProposalMsg>(parsed.get());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->block->id(), block_->id());
  EXPECT_EQ(p->justify->view, qc_->view);
  EXPECT_EQ(p->tc, nullptr);
  EXPECT_EQ(p->sender, 2u);
}

TEST_F(MessagesTest, ProposalWithTcRoundTrip) {
  const auto m = make_message<ProposalMsg>(block_, qc_, tc_, NodeId{2});
  const auto parsed = round_trip(*m);
  const auto* p = std::get_if<ProposalMsg>(parsed.get());
  ASSERT_NE(p, nullptr);
  ASSERT_NE(p->tc, nullptr);
  EXPECT_EQ(p->tc->view, tc_->view);
}

TEST_F(MessagesTest, OptProposalRoundTrip) {
  const auto parsed = round_trip(*make_message<OptProposalMsg>(block_, NodeId{1}));
  const auto* p = std::get_if<OptProposalMsg>(parsed.get());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->block->id(), block_->id());
}

TEST_F(MessagesTest, FbProposalRoundTrip) {
  const auto parsed = round_trip(*make_message<FbProposalMsg>(block_, qc_, tc_, NodeId{3}));
  const auto* p = std::get_if<FbProposalMsg>(parsed.get());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->block->id(), block_->id());
  EXPECT_EQ(p->justify->block, qc_->block);
  EXPECT_EQ(p->tc->view, tc_->view);
}

TEST_F(MessagesTest, VoteRoundTrip) {
  const Vote v = Vote::make(VoteKind::kOptimistic, 4, block_->id(), 0, gen_.private_keys[0],
                            gen_.set->scheme());
  const auto parsed = round_trip(*make_message<VoteMsg>(v));
  const auto* p = std::get_if<VoteMsg>(parsed.get());
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->vote.verify(*gen_.set));
  EXPECT_EQ(p->vote.kind, VoteKind::kOptimistic);
}

TEST_F(MessagesTest, TimeoutRoundTrip) {
  const auto t = TimeoutMsg::make(9, 1, qc_, gen_.private_keys[1], gen_.set->scheme());
  const auto parsed = round_trip(*make_message<TimeoutMsgWrap>(t));
  const auto* p = std::get_if<TimeoutMsgWrap>(parsed.get());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->timeout.view, 9u);
  EXPECT_TRUE(p->timeout.verify(*gen_.set));
}

TEST_F(MessagesTest, CertAndTcAndStatusRoundTrip) {
  {
    const auto parsed = round_trip(*make_message<CertMsg>(qc_, NodeId{0}));
    ASSERT_NE(std::get_if<CertMsg>(parsed.get()), nullptr);
  }
  {
    const auto parsed = round_trip(*make_message<TcMsg>(tc_, NodeId{0}));
    ASSERT_NE(std::get_if<TcMsg>(parsed.get()), nullptr);
  }
  {
    const auto parsed = round_trip(*make_message<StatusMsg>(View{5}, qc_, NodeId{1}));
    const auto* p = std::get_if<StatusMsg>(parsed.get());
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->view, 5u);
    EXPECT_EQ(p->lock->view, qc_->view);
  }
}

TEST_F(MessagesTest, WireSizeCountsSyntheticPayload) {
  const auto big_block =
      Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(1800000, 1));
  const auto small = make_message<ProposalMsg>(block_, qc_, nullptr, NodeId{0});
  const auto big = make_message<ProposalMsg>(big_block, qc_, nullptr, NodeId{0});
  EXPECT_GT(message_wire_size(*big), message_wire_size(*small) + 1799000);
}

TEST_F(MessagesTest, VotesAreSmall) {
  const Vote v = Vote::make(VoteKind::kNormal, 1, block_->id(), 0, gen_.private_keys[0],
                            gen_.set->scheme());
  // vote ≈ kind + view + block hash + voter + 64B signature ≈ 110 bytes.
  EXPECT_LT(message_wire_size(*make_message<VoteMsg>(v)), 150u);
}

TEST_F(MessagesTest, QcSizeLinearInQuorum) {
  // Certificates built from signature arrays grow with the quorum (paper's
  // implementation choice: arrays of ED25519 signatures).
  const auto gen10 = ValidatorSet::generate(10, crypto::fast_scheme(), 2);
  std::vector<Vote> votes;
  for (NodeId i = 0; i < 7; ++i)
    votes.push_back(Vote::make(VoteKind::kNormal, 1, block_->id(), i, gen10.private_keys[i],
                               gen10.set->scheme()));
  const auto qc10 = QuorumCert::assemble(votes, 1, *gen10.set);
  Writer w4, w10;
  qc_->serialize(w4);
  qc10->serialize(w10);
  EXPECT_GT(w10.size(), w4.size());
  EXPECT_NEAR(static_cast<double>(w10.size() - 62) / (w4.size() - 62), 7.0 / 3.0, 0.2);
}

TEST_F(MessagesTest, MalformedInputReturnsNull) {
  Bytes garbage{0x42, 0x00, 0x01};
  Reader r(garbage);
  EXPECT_EQ(deserialize_message(r), nullptr);
  Bytes empty;
  Reader r2(empty);
  EXPECT_EQ(deserialize_message(r2), nullptr);
}

TEST_F(MessagesTest, TypeNames) {
  EXPECT_STREQ(message_type_name(*make_message<OptProposalMsg>(block_, NodeId{0})),
               "opt-propose");
  EXPECT_STREQ(message_type_name(*make_message<CertMsg>(qc_, NodeId{0})), "cert");
}

}  // namespace
}  // namespace moonshot
