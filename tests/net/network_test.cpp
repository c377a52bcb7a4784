#include "net/network.hpp"

#include <gtest/gtest.h>

#include "sim/scheduler.hpp"

namespace moonshot::net {
namespace {

MessagePtr tiny_message(NodeId sender) {
  return make_message<CertMsg>(QuorumCert::genesis_qc(), sender);
}

MessagePtr big_message(NodeId sender, std::uint64_t payload) {
  auto block = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(payload, 1));
  return make_message<ProposalMsg>(block, QuorumCert::genesis_qc(), nullptr, sender);
}

struct Capture {
  struct Delivery {
    NodeId to, from;
    TimePoint at;
  };
  std::vector<Delivery> deliveries;
};

NetworkConfig base_config(Duration one_way) {
  NetworkConfig cfg;
  cfg.matrix = LatencyMatrix::uniform(one_way, 1);
  cfg.regions_used = 1;
  cfg.jitter = 0.0;
  cfg.proc_base = Duration(0);
  cfg.proc_sig = Duration(0);
  cfg.proc_cert = Duration(0);
  cfg.proc_per_kb = Duration(0);
  cfg.adversarial_before_gst = false;
  return cfg;
}

TEST(SimNetwork, UnicastArrivesAfterPropagation) {
  sim::Scheduler sched;
  Capture cap;
  SimNetwork net(sched, 3, base_config(milliseconds(10)),
                 [&](NodeId to, NodeId from, const MessagePtr&) {
                   cap.deliveries.push_back({to, from, sched.now()});
                 });
  net.unicast(0, 1, tiny_message(0));
  sched.run_all();
  ASSERT_EQ(cap.deliveries.size(), 1u);
  EXPECT_EQ(cap.deliveries[0].to, 1u);
  // ~10ms propagation plus serialization of a small message.
  EXPECT_GE(cap.deliveries[0].at.ns, Duration(milliseconds(10)).count());
  EXPECT_LT(cap.deliveries[0].at.ns, Duration(milliseconds(11)).count());
}

TEST(SimNetwork, MulticastReachesAllIncludingSelf) {
  sim::Scheduler sched;
  Capture cap;
  SimNetwork net(sched, 4, base_config(milliseconds(5)),
                 [&](NodeId to, NodeId from, const MessagePtr&) {
                   cap.deliveries.push_back({to, from, sched.now()});
                 });
  net.multicast(2, tiny_message(2));
  sched.run_all();
  ASSERT_EQ(cap.deliveries.size(), 4u);
  // Self-delivery is immediate.
  EXPECT_EQ(cap.deliveries[0].to, 2u);
  EXPECT_EQ(cap.deliveries[0].at.ns, 0);
}

TEST(SimNetwork, BandwidthSerializesLargeMessages) {
  sim::Scheduler sched;
  Capture cap;
  auto cfg = base_config(milliseconds(0));
  cfg.bandwidth_bps = 8e6;  // 1 MB/s
  SimNetwork net(sched, 3, cfg, [&](NodeId to, NodeId from, const MessagePtr&) {
    cap.deliveries.push_back({to, from, sched.now()});
  });
  // 1 MB payload through 1 MB/s: ~1s egress per copy + ~1s ingress.
  net.unicast(0, 1, big_message(0, 1000000));
  sched.run_all();
  ASSERT_EQ(cap.deliveries.size(), 1u);
  const double secs = static_cast<double>(cap.deliveries[0].at.ns) / 1e9;
  EXPECT_NEAR(secs, 2.0, 0.1);  // egress + ingress serialization
}

TEST(SimNetwork, EgressFifoDelaysSecondMessage) {
  sim::Scheduler sched;
  Capture cap;
  auto cfg = base_config(milliseconds(0));
  cfg.bandwidth_bps = 8e6;
  SimNetwork net(sched, 3, cfg, [&](NodeId to, NodeId from, const MessagePtr&) {
    cap.deliveries.push_back({to, from, sched.now()});
  });
  net.unicast(0, 1, big_message(0, 1000000));
  net.unicast(0, 2, tiny_message(0));  // queued behind the big one
  sched.run_all();
  ASSERT_EQ(cap.deliveries.size(), 2u);
  // The tiny message cannot leave node 0 before the big one finished (~1s).
  TimePoint tiny_at{};
  for (const auto& d : cap.deliveries)
    if (d.to == 2) tiny_at = d.at;
  EXPECT_GT(tiny_at.ns, static_cast<std::int64_t>(0.9e9));
}

TEST(SimNetwork, SilencedNodeDropsTraffic) {
  sim::Scheduler sched;
  Capture cap;
  SimNetwork net(sched, 3, base_config(milliseconds(1)),
                 [&](NodeId to, NodeId from, const MessagePtr&) {
                   cap.deliveries.push_back({to, from, sched.now()});
                 });
  net.silence(1);
  net.multicast(1, tiny_message(1));  // from silenced: nothing
  net.unicast(0, 1, tiny_message(0));  // to silenced: dropped
  net.unicast(0, 2, tiny_message(0));  // unaffected
  sched.run_all();
  ASSERT_EQ(cap.deliveries.size(), 1u);
  EXPECT_EQ(cap.deliveries[0].to, 2u);
  EXPECT_GT(net.stats().messages_dropped, 0u);
}

TEST(SimNetwork, DropFilterPartitions) {
  sim::Scheduler sched;
  Capture cap;
  SimNetwork net(sched, 4, base_config(milliseconds(1)),
                 [&](NodeId to, NodeId from, const MessagePtr&) {
                   cap.deliveries.push_back({to, from, sched.now()});
                 });
  // Partition {0,1} | {2,3}.
  net.faults().add(std::make_shared<PartitionFault>(4, std::vector<std::vector<NodeId>>{{0, 1}}));
  net.multicast(0, tiny_message(0));
  sched.run_all();
  // Self + node 1 only.
  EXPECT_EQ(cap.deliveries.size(), 2u);
}

TEST(SimNetwork, PreGstAdversaryDelaysButDeliversByGstPlusDelta) {
  sim::Scheduler sched;
  Capture cap;
  auto cfg = base_config(milliseconds(1));
  cfg.adversarial_before_gst = true;
  cfg.gst = TimePoint{seconds(2).count()};
  cfg.delta = milliseconds(500);
  SimNetwork net(sched, 2, cfg, [&](NodeId to, NodeId from, const MessagePtr&) {
    cap.deliveries.push_back({to, from, sched.now()});
  });
  for (int i = 0; i < 20; ++i) net.unicast(0, 1, tiny_message(0));
  sched.run_all();
  ASSERT_EQ(cap.deliveries.size(), 20u);
  bool any_delayed = false;
  for (const auto& d : cap.deliveries) {
    EXPECT_LE(d.at.ns, (cfg.gst + cfg.delta).ns);  // partial synchrony bound
    if (d.at.ns > Duration(milliseconds(100)).count()) any_delayed = true;
  }
  EXPECT_TRUE(any_delayed);  // adversary actually used its power
}

TEST(SimNetwork, JitterIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Scheduler sched;
    std::vector<std::int64_t> times;
    auto cfg = base_config(milliseconds(10));
    cfg.jitter = 0.1;
    cfg.seed = seed;
    SimNetwork net(sched, 2, cfg, [&](NodeId, NodeId, const MessagePtr&) {
      times.push_back(sched.now().ns);
    });
    for (int i = 0; i < 5; ++i) net.unicast(0, 1, tiny_message(0));
    sched.run_all();
    return times;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(SimNetwork, StatsCountMessages) {
  sim::Scheduler sched;
  SimNetwork net(sched, 3, base_config(milliseconds(1)),
                 [](NodeId, NodeId, const MessagePtr&) {});
  net.multicast(0, tiny_message(0));
  sched.run_all();
  EXPECT_EQ(net.stats().messages_sent, 3u);  // self + 2 peers
  EXPECT_EQ(net.stats().messages_delivered, 2u);  // peers (self not counted)
  EXPECT_GT(net.stats().bytes_sent, 0u);
}

}  // namespace
}  // namespace moonshot::net
