// The one protocol-tag parser and the one node factory that every tool and
// both clusters share.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "net/network.hpp"

namespace moonshot {
namespace {

constexpr ProtocolKind kAll[] = {ProtocolKind::kSimpleMoonshot, ProtocolKind::kPipelinedMoonshot,
                                 ProtocolKind::kCommitMoonshot, ProtocolKind::kJolteon,
                                 ProtocolKind::kHotStuff};

TEST(ProtocolKind, CliTagsAndLongSpellingsParse) {
  for (ProtocolKind p : kAll) EXPECT_EQ(parse_protocol_tag(protocol_cli_tag(p)), p);
  EXPECT_EQ(parse_protocol_tag("simple"), ProtocolKind::kSimpleMoonshot);
  EXPECT_EQ(parse_protocol_tag("pipelined"), ProtocolKind::kPipelinedMoonshot);
  EXPECT_EQ(parse_protocol_tag("commit"), ProtocolKind::kCommitMoonshot);
  EXPECT_EQ(parse_protocol_tag("jolteon"), ProtocolKind::kJolteon);
  EXPECT_EQ(parse_protocol_tag("hotstuff"), ProtocolKind::kHotStuff);
  EXPECT_EQ(parse_protocol_tag("PM"), std::nullopt);
  EXPECT_EQ(parse_protocol_tag(""), std::nullopt);
}

class NullNetwork final : public net::INetwork {
 public:
  void multicast(NodeId, MessagePtr) override {}
  void unicast(NodeId, NodeId, MessagePtr) override {}
};

TEST(ProtocolKind, FactoryBuildsTheNamedProtocol) {
  const auto gen = ValidatorSet::generate(4, crypto::fast_scheme(), 1);
  sim::Scheduler sched;
  NullNetwork net;
  for (ProtocolKind p : kAll) {
    NodeContext ctx;
    ctx.validators = gen.set;
    ctx.priv = gen.private_keys[0];
    ctx.network = &net;
    ctx.sched = &sched;
    ctx.leaders = std::make_shared<const RoundRobinSchedule>(4);
    const auto node = make_protocol_node(p, std::move(ctx));
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->protocol_name(), protocol_name(p));
  }
}

}  // namespace
}  // namespace moonshot
