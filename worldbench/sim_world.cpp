// Simulated worlds: the three simulation workloads, run untraced through
// Experiment and traced through a decorator assembly of the same parts.
#include <algorithm>
#include <cstdio>

#include "consensus/moonshot/commit_moonshot.hpp"
#include "consensus/moonshot/pipelined_moonshot.hpp"
#include "harness/experiment.hpp"
#include "probe.hpp"
#include "support/assert.hpp"
#include "worlds.hpp"

namespace worldbench {

using namespace moonshot;

namespace {

/// The paper's WAN (Table II latencies, five regions, 10 Gbps NICs, Δ = 500
/// ms, synchronous from the start), as the repository's bench binaries set it.
ExperimentConfig wan(ProtocolKind p, std::size_t n, std::uint64_t seed, Duration duration) {
  ExperimentConfig cfg;
  cfg.protocol = p;
  cfg.n = n;
  cfg.delta = milliseconds(500);
  cfg.duration = duration;
  cfg.seed = seed;
  cfg.net.matrix = net::LatencyMatrix::aws5();
  cfg.net.regions_used = 5;
  cfg.net.jitter = 0.05;
  cfg.net.adversarial_before_gst = false;
  return cfg;
}

/// Crashes one honest node every `period`, from `period / 2` on, and
/// recovers it `down` later, so at most one honest node is down at a time.
/// The order is fixed (stride 7 through the honest ids) rather than drawn
/// from the seed: which node is down decides how many views fail, and the
/// seed should move the world's cost no more than the network jitter does.
std::vector<CrashStep> rotation(std::size_t honest, Duration total, Duration period,
                                Duration down) {
  std::vector<CrashStep> plan;
  std::size_t k = 0;
  for (TimePoint t = TimePoint::zero() + period / 2; t + down < TimePoint::zero() + total;
       t = t + period, ++k) {
    const auto node = static_cast<NodeId>((7 * k) % honest);
    plan.push_back({t, node, true});
    plan.push_back({t + down, node, false});
  }
  return plan;
}

/// Runs the world's loop in phases around its crash plan. The loop time
/// leaves out the crash/recover calls between phases.
template <typename Start, typename Step>
void drive(sim::Scheduler& sched, const SimSpec& spec, Start&& start, Step&& step, WorldRun& r) {
  auto t = Clock::now();
  start();
  const TimePoint end = sched.now() + spec.cfg.duration;
  for (const CrashStep& s : spec.plan) {
    sched.run_until(s.at);
    r.loop_s += seconds_since(t);
    step(s);
    t = Clock::now();
  }
  sched.run_until(end);
  r.loop_s += seconds_since(t);
}

void fill_outcome(const ExperimentResult& res, std::uint64_t fingerprint, WorldRun& r) {
  r.fingerprint = fingerprint;
  r.events = res.events;
  r.committed = res.summary.committed_blocks;
  r.copies = res.net_stats.messages_delivered;
  r.consistent = res.logs_consistent;
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "fp=%016llx committed=%llu lat_p50_ms=%.3f lat_p99_ms=%.3f "
                "omega_min_ms=%.3f omega_max_ms=%.3f tx_avg_ms=%.3f tx_p90_ms=%.3f",
                static_cast<unsigned long long>(fingerprint),
                static_cast<unsigned long long>(r.committed), res.summary.p50_latency_ms,
                res.summary.p99_latency_ms, res.summary.min_block_period_ms,
                res.summary.max_block_period_ms, res.tx.avg_e2e_ms, res.tx.p90_e2e_ms);
  r.digest_text = buf;
}

/// Experiment's world, assembled from the public constructors with a timing
/// decorator at each layer boundary. Construction, node wiring, crash and
/// recovery follow harness/experiment.cpp step for step, so the scheduler
/// executes the same events in the same order.
class TracedSimWorld {
 public:
  explicit TracedSimWorld(const ExperimentConfig& cfg) : cfg_(cfg) {
    MOONSHOT_INVARIANT(cfg_.adversaries.empty() && cfg_.fault_kind == FaultKind::kCrash &&
                           !cfg_.payload_source && cfg_.leader_order.empty() &&
                           cfg_.tracer == nullptr && cfg_.registry == nullptr,
                       "the traced world mirrors crash-fault experiments only");
    down_.assign(cfg_.n, 0);
    cfg_.net.seed = cfg_.seed;
    cfg_.net.delta = cfg_.delta;
    network_ = std::make_unique<net::SimNetwork>(
        sched_, cfg_.n, cfg_.net, [this](NodeId to, NodeId from, const MessagePtr& m) {
          if (is_crashed(to) || down_[to]) return;
          probe_.pending_max = std::max(probe_.pending_max, sched_.pending());
          timed_handle(probe_, m->index(), [&] { nodes_[to]->handle(from, m); });
        });
    timed_network_ = std::make_unique<TimedNetwork>(*network_, probe_);

    const auto tk = Clock::now();
    auto inner = cfg_.use_ed25519 ? crypto::ed25519_scheme() : crypto::fast_scheme();
    auto generated = ValidatorSet::generate(
        cfg_.n, std::make_shared<const TimedScheme>(std::move(inner), probe_), cfg_.seed);
    keygen_s_ = seconds_since(tk);
    validators_ = generated.set;
    private_keys_ = std::move(generated.private_keys);

    if (cfg_.tx_rate > 0) {
      tx_ = std::make_unique<TxTracker>(cfg_.tx_rate, validators_->quorum_size(), cfg_.seed);
    }
    std::vector<NodeId> byzantine;
    for (std::size_t i = cfg_.n - cfg_.crashed; i < cfg_.n; ++i) {
      byzantine.push_back(static_cast<NodeId>(i));
    }
    MOONSHOT_INVARIANT(cfg_.schedule == ScheduleKind::kRoundRobin ||
                           cfg_.schedule == ScheduleKind::kWJ,
                       "the benchmark's worlds use round-robin or WJ leaders");
    if (cfg_.schedule == ScheduleKind::kWJ) {
      leaders_ = make_schedule_wj(cfg_.n, byzantine);
    } else {
      leaders_ = std::make_shared<const RoundRobinSchedule>(cfg_.n);
    }
    const std::uint64_t payload_size = cfg_.payload_size;
    const std::uint64_t seed = cfg_.seed;
    payloads_ = [payload_size, seed](View v) {
      return Payload::synthetic(payload_size, seed * 0x100000000ull + v);
    };
    if (cfg_.enable_wal) {
      wals_.resize(cfg_.n);
      for (NodeId id = 0; id < cfg_.n; ++id) {
        wals_[id] = std::make_unique<wal::Wal>(id, &sched_, cfg_.seed, cfg_.wal);
      }
    }
    nodes_.reserve(cfg_.n);
    for (NodeId id = 0; id < cfg_.n; ++id) {
      auto node = make_node(id);
      attach_commit_hook(*node, id);
      nodes_.push_back(std::move(node));
    }
    for (NodeId b : byzantine) network_->silence(b);
  }

  void start() {
    for (NodeId id = 0; id < cfg_.n; ++id) {
      if (!is_crashed(id) && !down_[id]) nodes_[id]->start();
    }
  }

  void crash_node(NodeId id) {
    if (is_crashed(id) || down_[id]) return;
    down_[id] = 1;
    network_->silence(id);
    nodes_[id]->halt();
    if (wal::Wal* w = wal_of(id)) w->crash();
  }

  /// Durable recovery: replay the WAL into a fresh instance.
  void recover_node(NodeId id) {
    if (!down_[id]) return;
    auto fresh = make_node(id);
    wal::Wal* w = wal_of(id);
    MOONSHOT_INVARIANT(w != nullptr, "durable recovery requires enable_wal");
    recover_calls_++;
    const auto t0 = Clock::now();
    fresh->restore_from_wal(w->replay());
    recover_s_ += seconds_since(t0);
    attach_commit_hook(*fresh, id);
    retired_.push_back(std::move(nodes_[id]));
    nodes_[id] = std::move(fresh);
    down_[id] = 0;
    network_->unsilence(id);
    nodes_[id]->start();
  }

  ExperimentResult result() {
    ExperimentResult r;
    r.quorum = validators_->quorum_size();
    r.summary = metrics_.summarize(r.quorum, cfg_.duration);
    r.net_stats = network_->stats();
    r.events = sched_.events_executed();
    std::vector<const CommitLog*> logs;
    for (NodeId id = 0; id < cfg_.n; ++id) {
      if (is_crashed(id)) continue;
      r.max_view = std::max(r.max_view, nodes_[id]->current_view());
      logs.push_back(&nodes_[id]->commit_log());
    }
    r.logs_consistent = commit_logs_consistent(logs);
    if (tx_) r.tx = tx_->summarize(cfg_.duration);
    return r;
  }

  /// Per-layer counts read from the world after the run.
  void collect(LayerInputs& in) const {
    in.probe = probe_;
    in.keygen_s = keygen_s_;
    in.net = network_->stats();
    in.recover_calls = recover_calls_;
    in.recover_s = recover_s_;
    const auto add_node = [&](const IConsensusNode& node) {
      const NodeCounters c = node.counters();
      in.view_changes += c.view_changes;
      in.timeouts_fired += c.timeouts_fired;
      in.vote_duplicates += c.vote_duplicates_dropped;
      in.cert_cache_hits += c.cert_cache_hits;
      in.cert_cache_misses += c.cert_cache_misses;
    };
    for (const auto& node : retired_) add_node(*node);
    for (NodeId id = 0; id < cfg_.n; ++id) {
      add_node(*nodes_[id]);
      if (is_crashed(id)) continue;
      in.ledger_commits += nodes_[id]->commit_log().size();
      in.block_store_max = std::max<std::uint64_t>(in.block_store_max,
                                                   nodes_[id]->block_store().size());
      in.commit_log_max = std::max<std::uint64_t>(in.commit_log_max,
                                                  nodes_[id]->commit_log().size());
    }
    for (const auto& w : wals_) {
      const wal::WalStats& s = w->stats();
      in.wal.appends += s.appends;
      in.wal.bytes_appended += s.bytes_appended;
      in.wal.syncs += s.syncs;
      in.wal.snapshots += s.snapshots;
      in.wal.replayed_records += s.replayed_records;
    }
  }

  sim::Scheduler& scheduler() { return sched_; }

 private:
  bool is_crashed(NodeId id) const { return id + cfg_.crashed >= cfg_.n; }
  wal::Wal* wal_of(NodeId id) { return id < wals_.size() ? wals_[id].get() : nullptr; }

  std::unique_ptr<IConsensusNode> make_node(NodeId id) {
    NodeContext ctx;
    ctx.id = id;
    ctx.validators = validators_;
    ctx.priv = private_keys_[id];
    ctx.network = timed_network_.get();
    ctx.sched = &sched_;
    ctx.leaders = leaders_;
    ctx.delta = cfg_.delta;
    ctx.payload_for_view = payloads_;
    ctx.on_block_created = [this](const BlockPtr& b, TimePoint t) {
      metrics_.on_created(b, t);
      if (tx_) tx_->on_block_created(b, t);
    };
    ctx.verify_signatures = cfg_.verify_signatures;
    ctx.enable_opt_proposal = cfg_.enable_opt_proposal;
    ctx.multicast_votes = cfg_.multicast_votes;
    ctx.timeout_backoff = cfg_.timeout_backoff;
    ctx.timeout_backoff_cap = cfg_.timeout_backoff_cap;
    ctx.timeout_jitter_pct = cfg_.timeout_jitter_pct;
    ctx.backoff_reset_on_progress = cfg_.backoff_reset_on_progress;
    ctx.seed = cfg_.seed;
    ctx.aggregate_certificates =
        cfg_.aggregate_certificates && validators_->scheme().supports_aggregation();
    ctx.lso_mode = cfg_.lso_mode;
    ctx.wal = wal_of(id);
    switch (cfg_.protocol) {
      case ProtocolKind::kPipelinedMoonshot:
        return std::make_unique<PipelinedMoonshotNode>(std::move(ctx));
      case ProtocolKind::kCommitMoonshot:
        return std::make_unique<CommitMoonshotNode>(std::move(ctx));
      default:
        MOONSHOT_INVARIANT(false, "the benchmark's worlds run PM or CM");
    }
    return nullptr;
  }

  void attach_commit_hook(IConsensusNode& node, NodeId id) {
    node.commit_log_mutable().add_callback([this, id](const BlockPtr& b, TimePoint t) {
      metrics_.on_committed(id, b, t);
      if (tx_) tx_->on_block_committed(id, b, t);
    });
  }

  ExperimentConfig cfg_;
  Probe probe_;
  double keygen_s_ = 0;
  std::uint64_t recover_calls_ = 0;
  double recover_s_ = 0;
  sim::Scheduler sched_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<TimedNetwork> timed_network_;
  ValidatorSetPtr validators_;
  std::vector<crypto::PrivateKey> private_keys_;
  LeaderSchedulePtr leaders_;
  PayloadSource payloads_;
  MetricsCollector metrics_;
  std::unique_ptr<TxTracker> tx_;
  std::vector<std::unique_ptr<wal::Wal>> wals_;
  std::vector<std::unique_ptr<IConsensusNode>> nodes_;
  std::vector<std::unique_ptr<IConsensusNode>> retired_;
  std::vector<char> down_;
};

}  // namespace

std::optional<SimSpec> sim_spec(const std::string& workload, std::uint64_t seed, bool tiny) {
  SimSpec s;
  if (workload == "pm-n200-wan") {
    // O(n²) vote multicast: FastScheme, verification off, empty payload.
    s.cfg = wan(ProtocolKind::kPipelinedMoonshot, 200, seed,
                tiny ? milliseconds(800) : seconds(2));
  } else if (workload == "pm-n50-ed25519") {
    s.cfg = wan(ProtocolKind::kPipelinedMoonshot, 50, seed,
                tiny ? milliseconds(800) : milliseconds(2500));
    s.cfg.use_ed25519 = true;
    s.cfg.verify_signatures = true;
  } else if (workload == "cm-n100-wj-wal") {
    const Duration total = tiny ? seconds(20) : seconds(60);
    s.cfg = wan(ProtocolKind::kCommitMoonshot, 100, seed, total);
    s.cfg.crashed = 32;  // f = 33: one more honest node may be down at a time
    s.cfg.schedule = ScheduleKind::kWJ;
    s.cfg.enable_wal = true;
    s.cfg.recovery = RecoveryMode::kDurable;
    s.cfg.wal.fsync_base = microseconds(500);
    s.cfg.wal.fsync_per_kb = microseconds(20);
    s.cfg.wal.fsync_jitter = 0.2;
    s.cfg.wal.snapshot_threshold = 256 * 1024;
    s.cfg.tx_rate = 200;
    s.plan = rotation(s.cfg.n - s.cfg.crashed, total, seconds(10), seconds(4));
  } else {
    return std::nullopt;
  }
  return s;
}

WorldRun run_sim_untraced(const SimSpec& spec) {
  WorldRun r;
  const auto t0 = Clock::now();
  auto exp = std::make_unique<Experiment>(spec.cfg);
  drive(
      exp->scheduler(), spec, [&] { exp->start(); },
      [&](const CrashStep& s) {
        if (s.crash) {
          exp->crash_node(s.node);
        } else {
          exp->recover_node(s.node);
        }
      },
      r);
  const auto tr = Clock::now();
  const ExperimentResult res = exp->result();
  r.result_s = seconds_since(tr);
  fill_outcome(res, exp->scheduler().fingerprint(), r);
  const auto td = Clock::now();
  exp.reset();
  r.teardown_s = seconds_since(td);
  r.world_s = seconds_since(t0);
  return r;
}

WorldRun run_sim_traced(const SimSpec& spec) {
  WorldRun r;
  const auto t0 = Clock::now();
  auto world = std::make_unique<TracedSimWorld>(spec.cfg);
  drive(
      world->scheduler(), spec, [&] { world->start(); },
      [&](const CrashStep& s) {
        if (s.crash) {
          world->crash_node(s.node);
        } else {
          world->recover_node(s.node);
        }
      },
      r);
  const auto tr = Clock::now();
  const ExperimentResult res = world->result();
  r.result_s = seconds_since(tr);
  fill_outcome(res, world->scheduler().fingerprint(), r);
  r.traced.emplace();
  world->collect(*r.traced);
  const auto td = Clock::now();
  world.reset();
  r.teardown_s = seconds_since(td);
  r.world_s = seconds_since(t0);
  return r;
}

double setup_sim(const SimSpec& spec) {
  const auto t0 = Clock::now();
  auto exp = std::make_unique<Experiment>(spec.cfg);
  const double s = seconds_since(t0);
  exp.reset();
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

}  // namespace worldbench
