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

TEST(SimNetwork, DeliveryOrderIsPinned) {
  // One fixed world through every path that decides when a copy arrives:
  // jitter across five regions, reorder stress, the pre-GST adversary, a
  // duplicated link, a cut link, the egress and ingress FIFOs, and sends made
  // from inside deliveries. The constants are what this script has always
  // produced; a change means delivery times or their order moved.
  constexpr std::size_t kN = 7;
  sim::Scheduler sched;
  NetworkConfig cfg;  // aws5 latencies and the default receive costs
  cfg.bandwidth_bps = 1e9;
  cfg.reorder_extra = milliseconds(3);
  cfg.gst = TimePoint{milliseconds(400).count()};
  cfg.delta = milliseconds(200);
  cfg.seed = 11;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  auto fold = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 0x100000001b3ull;
    }
  };
  std::uint64_t deliveries = 0;
  SimNetwork* net_ptr = nullptr;
  SimNetwork net(sched, kN, cfg, [&](NodeId to, NodeId from, const MessagePtr& m) {
    ++deliveries;
    fold(static_cast<std::uint64_t>(sched.now().ns));
    fold(to);
    fold(from);
    fold(m->index());
    // Replies sent from inside a delivery: every proposal is answered with a
    // unicast back, and every third certificate is relayed to everyone.
    if (to == from) return;
    if (std::holds_alternative<ProposalMsg>(*m)) {
      net_ptr->unicast(to, from, tiny_message(to));
    } else if (deliveries % 3 == 0 && sched.now() < TimePoint{seconds(1).count()}) {
      net_ptr->multicast(to, tiny_message(to));
    }
  });
  net_ptr = &net;
  // Link 0>1 delivers three copies of everything; link 2>3 is cut.
  net.faults().add(std::make_shared<LinkChaosFault>(LinkChaosFault::Kind::kDuplicate, 1.0,
                                                    Duration(0), std::vector<Link>{{0, 1}}, 5));
  net.faults().add(std::make_shared<LinkChaosFault>(LinkChaosFault::Kind::kDuplicate, 1.0,
                                                    Duration(0), std::vector<Link>{{0, 1}}, 6));
  net.faults().add(std::make_shared<LinkCutFault>(std::vector<Link>{{2, 3}}));
  for (int round = 0; round < 4; ++round) {
    const TimePoint at{milliseconds(150 * round).count()};
    sched.schedule_at(at, [&, round] {
      for (NodeId from = 0; from < kN; from += 2) net.multicast(from, tiny_message(from));
      net.multicast(static_cast<NodeId>(round), big_message(static_cast<NodeId>(round), 20000));
      net.unicast(2, 3, tiny_message(2));
      net.unicast(0, 1, tiny_message(0));
      net.unicast(5, 5, tiny_message(5));
      net.unicast(6, static_cast<NodeId>(round), big_message(6, 5000));
    });
  }
  sched.run_all();

  const NetworkStats& st = net.stats();
  EXPECT_EQ(deliveries, 195u);
  EXPECT_EQ(digest, 0xa08c1ff9d856685cull);
  EXPECT_EQ(sched.fingerprint(), 0x88936345d1cd4056ull);
  EXPECT_EQ(sched.events_executed(), 199u);
  EXPECT_EQ(st.messages_sent, 185u);
  EXPECT_EQ(st.bytes_sent, 511459u);
  EXPECT_EQ(st.messages_delivered, 171u);
  EXPECT_EQ(st.messages_dropped, 10u);
  EXPECT_EQ(st.messages_duplicated, 20u);
}

}  // namespace
}  // namespace moonshot::net
