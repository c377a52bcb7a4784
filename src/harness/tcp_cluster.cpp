#include "harness/tcp_cluster.hpp"

#include <thread>

namespace moonshot {

TcpCluster::TcpCluster(Config cfg) : cfg_(std::move(cfg)) {
  auto generated = ValidatorSet::generate(cfg_.n, crypto::fast_scheme(), cfg_.seed);
  validators_ = generated.set;
  const auto leaders = std::make_shared<const RoundRobinSchedule>(cfg_.n);

  const std::uint64_t payload_size = cfg_.payload_size;
  const std::uint64_t seed = cfg_.seed;
  PayloadSource payloads = [payload_size, seed](View v) {
    return Payload::synthetic(payload_size, seed * 0x100000000ull + v);
  };

  runtimes_.reserve(cfg_.n);
  networks_.reserve(cfg_.n);
  nodes_.reserve(cfg_.n);
  for (NodeId id = 0; id < cfg_.n; ++id) {
    runtimes_.push_back(std::make_unique<net::TcpRuntime>());
    net::TcpRuntime* rt = runtimes_.back().get();
    networks_.push_back(std::make_unique<net::TcpNetwork>(
        id, cfg_.base_port, cfg_.n,
        [rt](NodeId from, MessagePtr m) { rt->enqueue(from, std::move(m)); }));

    NodeContext ctx;
    ctx.id = id;
    ctx.validators = validators_;
    ctx.priv = generated.private_keys[id];
    ctx.network = networks_.back().get();
    ctx.sched = &rt->scheduler();
    ctx.leaders = leaders;
    ctx.delta = cfg_.delta;
    ctx.payload_for_view = payloads;
    ctx.verify_signatures = true;

    nodes_.push_back(make_protocol_node(cfg_.protocol, std::move(ctx)));
  }

  // All listeners are up (constructors returned): now dial the full mesh.
  for (auto& network : networks_) network->connect_peers();
}

TcpCluster::~TcpCluster() {
  for (auto& rt : runtimes_) rt->stop();
  for (auto& network : networks_) network->shutdown();
}

void TcpCluster::run_for(Duration wall) {
  for (NodeId id = 0; id < cfg_.n; ++id) runtimes_[id]->start(nodes_[id].get());
  std::this_thread::sleep_for(std::chrono::nanoseconds(wall.count()));
  for (auto& rt : runtimes_) rt->stop();
}

bool TcpCluster::logs_consistent() const {
  std::vector<const CommitLog*> logs;
  for (const auto& node : nodes_) logs.push_back(&node->commit_log());
  return commit_logs_consistent(logs);
}

std::size_t TcpCluster::min_committed() const {
  std::size_t best = static_cast<std::size_t>(-1);
  for (const auto& node : nodes_) best = std::min(best, node->commit_log().size());
  return best;
}

}  // namespace moonshot
