#include "harness/experiment.hpp"

#include "adversary/adversary_node.hpp"
#include "consensus/hotstuff/hotstuff.hpp"
#include "consensus/jolteon/jolteon.hpp"
#include "consensus/moonshot/commit_moonshot.hpp"
#include "consensus/moonshot/pipelined_moonshot.hpp"
#include "consensus/moonshot/simple_moonshot.hpp"
#include "obs/registry.hpp"
#include "support/assert.hpp"
#include "support/log.hpp"
#include "support/prng.hpp"

namespace moonshot {

const char* protocol_name(ProtocolKind p) {
  switch (p) {
    case ProtocolKind::kSimpleMoonshot: return "simple-moonshot";
    case ProtocolKind::kPipelinedMoonshot: return "pipelined-moonshot";
    case ProtocolKind::kCommitMoonshot: return "commit-moonshot";
    case ProtocolKind::kJolteon: return "jolteon";
    case ProtocolKind::kHotStuff: return "hotstuff";
  }
  return "?";
}

const char* protocol_tag(ProtocolKind p) {
  switch (p) {
    case ProtocolKind::kSimpleMoonshot: return "SM";
    case ProtocolKind::kPipelinedMoonshot: return "PM";
    case ProtocolKind::kCommitMoonshot: return "CM";
    case ProtocolKind::kJolteon: return "J";
    case ProtocolKind::kHotStuff: return "HS";
  }
  return "?";
}

const char* protocol_cli_tag(ProtocolKind p) {
  switch (p) {
    case ProtocolKind::kSimpleMoonshot: return "sm";
    case ProtocolKind::kPipelinedMoonshot: return "pm";
    case ProtocolKind::kCommitMoonshot: return "cm";
    case ProtocolKind::kJolteon: return "j";
    case ProtocolKind::kHotStuff: return "hs";
  }
  return "?";
}

std::optional<ProtocolKind> parse_protocol_tag(std::string_view tag) {
  if (tag == "sm" || tag == "simple") return ProtocolKind::kSimpleMoonshot;
  if (tag == "pm" || tag == "pipelined") return ProtocolKind::kPipelinedMoonshot;
  if (tag == "cm" || tag == "commit") return ProtocolKind::kCommitMoonshot;
  if (tag == "j" || tag == "jolteon") return ProtocolKind::kJolteon;
  if (tag == "hs" || tag == "hotstuff") return ProtocolKind::kHotStuff;
  return std::nullopt;
}

std::unique_ptr<IConsensusNode> make_protocol_node(ProtocolKind p, NodeContext ctx) {
  switch (p) {
    case ProtocolKind::kSimpleMoonshot:
      return std::make_unique<SimpleMoonshotNode>(std::move(ctx));
    case ProtocolKind::kPipelinedMoonshot:
      return std::make_unique<PipelinedMoonshotNode>(std::move(ctx));
    case ProtocolKind::kCommitMoonshot:
      return std::make_unique<CommitMoonshotNode>(std::move(ctx));
    case ProtocolKind::kJolteon:
      return std::make_unique<JolteonNode>(std::move(ctx));
    case ProtocolKind::kHotStuff:
      return std::make_unique<HotStuffNode>(std::move(ctx));
  }
  return nullptr;
}

const char* schedule_name(ScheduleKind s) {
  switch (s) {
    case ScheduleKind::kRoundRobin: return "round-robin";
    case ScheduleKind::kB: return "B";
    case ScheduleKind::kWM: return "WM";
    case ScheduleKind::kWJ: return "WJ";
  }
  return "?";
}

namespace {
LeaderSchedulePtr build_schedule(const ExperimentConfig& cfg,
                                 const std::vector<NodeId>& byzantine) {
  if (!cfg.leader_order.empty()) {
    return std::make_shared<const ListSchedule>(cfg.leader_order);
  }
  switch (cfg.schedule) {
    case ScheduleKind::kRoundRobin:
      return std::make_shared<const RoundRobinSchedule>(cfg.n);
    case ScheduleKind::kB: return make_schedule_b(cfg.n, byzantine);
    case ScheduleKind::kWM: return make_schedule_wm(cfg.n, byzantine);
    case ScheduleKind::kWJ: return make_schedule_wj(cfg.n, byzantine);
  }
  return nullptr;
}
}  // namespace

Experiment::Experiment(ExperimentConfig cfg) : cfg_(std::move(cfg)) {
  MOONSHOT_INVARIANT(cfg_.n >= 1, "need at least one node");
  MOONSHOT_INVARIANT(cfg_.crashed <= (cfg_.n - 1) / 3,
                     "crashed nodes must not exceed f");

  down_.assign(cfg_.n, 0);

  if (cfg_.tracer) cfg_.tracer->set_clock(&sched_);

  // Stamp log lines with this run's simulated time. The last-constructed
  // experiment wins (fine: concurrent experiments share one process only in
  // tests, where logs are filtered anyway); the destructor deregisters.
  set_log_clock(
      [](const void* ctx) { return static_cast<const sim::Scheduler*>(ctx)->now().ns; },
      &sched_);

  // Network.
  cfg_.net.seed = cfg_.seed;
  cfg_.net.delta = cfg_.delta;
  network_ = std::make_unique<net::SimNetwork>(
      sched_, cfg_.n, cfg_.net, [this](NodeId to, NodeId from, const MessagePtr& m) {
        if (is_crashed(to) || down_[to]) return;
        nodes_[to]->handle(from, m);
      });
  network_->set_tracer(cfg_.tracer);

  // Validators & keys.
  auto scheme = cfg_.use_ed25519 ? crypto::ed25519_scheme() : crypto::fast_scheme();
  auto generated = ValidatorSet::generate(cfg_.n, std::move(scheme), cfg_.seed);
  validators_ = generated.set;
  private_keys_ = std::move(generated.private_keys);

  if (cfg_.tx_rate > 0) {
    tx_tracker_ = std::make_unique<TxTracker>(cfg_.tx_rate, validators_->quorum_size(),
                                              cfg_.seed);
  }

  // Faulty set: the highest `crashed` node ids (crash-silent).
  std::vector<NodeId> byzantine;
  for (std::size_t i = cfg_.n - cfg_.crashed; i < cfg_.n; ++i)
    byzantine.push_back(static_cast<NodeId>(i));
  leaders_ = build_schedule(cfg_, byzantine);

  // Active-Byzantine placements. fault_kind == kEquivocate is sugar: the
  // statically faulty ids are rewritten into "equivocate" specs, so
  // everything downstream (WAL handout, commit hooks, node construction,
  // conformance exemption) has exactly one notion of "adversary".
  adversary_.assign(cfg_.n, 0);
  if (cfg_.fault_kind == FaultKind::kEquivocate) {
    for (NodeId b : byzantine) {
      adversary::AdversarySpec spec;
      spec.node = b;
      spec.strategy = "equivocate";
      cfg_.adversaries.push_back(std::move(spec));
    }
  }
  for (const auto& spec : cfg_.adversaries) {
    MOONSHOT_INVARIANT(spec.node < cfg_.n, "adversary spec names an unknown node");
    MOONSHOT_INVARIANT(adversary::known_strategy(spec.strategy),
                       "unknown adversary strategy");
    MOONSHOT_INVARIANT(!is_crashed(spec.node),
                       "a node cannot be both crashed and adversarial");
    adversary_[spec.node] = 1;
  }
  std::size_t faulty_total =
      cfg_.fault_kind == FaultKind::kCrash ? cfg_.crashed : 0;
  for (NodeId id = 0; id < cfg_.n; ++id) faulty_total += adversary_[id] ? 1 : 0;
  MOONSHOT_INVARIANT(faulty_total <= (cfg_.n - 1) / 3,
                     "crashed + adversarial nodes must not exceed f");
  coalition_ = std::make_shared<adversary::CoalitionState>();
  for (NodeId id = 0; id < cfg_.n; ++id) {
    if (adversary_[id]) coalition_->members.push_back(id);
  }

  // Deterministic per-view payloads (fixed per view; see types/payload.hpp).
  payloads_ = cfg_.payload_source;
  if (!payloads_) {
    const std::uint64_t payload_size = cfg_.payload_size;
    const std::uint64_t seed = cfg_.seed;
    payloads_ = [payload_size, seed](View v) {
      return Payload::synthetic(payload_size, seed * 0x100000000ull + v);
    };
  }

  // WALs are built before the nodes so make_node() can hand out pointers.
  // Adversaries never get one: enforcing one-vote-per-view on the adversary
  // would neuter the very attacks the Byzantine tests exercise.
  if (cfg_.enable_wal) {
    wals_.resize(cfg_.n);
    for (NodeId id = 0; id < cfg_.n; ++id) {
      if (is_adversary(id)) continue;
      wals_[id] = std::make_unique<wal::Wal>(id, &sched_, cfg_.seed, cfg_.wal);
      wals_[id]->set_tracer(cfg_.tracer);
    }
  }

  nodes_.reserve(cfg_.n);
  for (NodeId id = 0; id < cfg_.n; ++id) {
    auto node = make_node(id);
    if (!is_adversary(id)) attach_commit_hook(*node, id);
    if (cfg_.tolerant_commit_log) {
      node->commit_log_mutable().set_fork_policy(CommitLog::ForkPolicy::kRecord);
    }
    nodes_.push_back(std::move(node));
  }

  if (cfg_.fault_kind == FaultKind::kCrash) {
    for (NodeId b : byzantine) network_->silence(b);
  }
}

std::unique_ptr<IConsensusNode> Experiment::make_node(NodeId id) {
  NodeContext ctx;
  ctx.id = id;
  ctx.validators = validators_;
  ctx.priv = private_keys_[id];
  ctx.network = network_.get();
  ctx.sched = &sched_;
  ctx.leaders = leaders_;
  ctx.delta = cfg_.delta;
  ctx.payload_for_view = payloads_;
  ctx.on_block_created = [this](const BlockPtr& b, TimePoint t) {
    metrics_.on_created(b, t);
    if (tx_tracker_) tx_tracker_->on_block_created(b, t);
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
  ctx.tracer = cfg_.tracer;

  if (is_adversary(id)) {
    std::vector<adversary::Binding> bindings;
    for (const auto& spec : cfg_.adversaries) {
      if (spec.node != id) continue;
      adversary::Binding b;
      b.spec = spec;
      b.strategy = adversary::make_strategy(spec);
      MOONSHOT_INVARIANT(b.strategy != nullptr, "unknown adversary strategy");
      bindings.push_back(std::move(b));
    }
    return std::make_unique<adversary::AdversaryNode>(std::move(ctx), std::move(bindings),
                                                      coalition_);
  }
  ctx.wal = id < wals_.size() ? wals_[id].get() : nullptr;
  return make_protocol_node(cfg_.protocol, std::move(ctx));
}

void Experiment::attach_commit_hook(IConsensusNode& node, NodeId id) {
  node.commit_log_mutable().add_callback([this, id](const BlockPtr& b, TimePoint t) {
    metrics_.on_committed(id, b, t);
    if (tx_tracker_) tx_tracker_->on_block_committed(id, b, t);
  });
}

void Experiment::crash_node(NodeId id) {
  MOONSHOT_INVARIANT(id < cfg_.n, "crash of unknown node");
  if (is_faulty(id) || down_[id]) return;  // statically faulty or already down
  down_[id] = 1;
  network_->silence(id);
  nodes_[id]->halt();
  // The crash tears the WAL's unsynced tail (a partial in-flight write may
  // survive); everything synced stays durable for recovery.
  if (wal::Wal* wal = wal_of(id)) wal->crash();
}

void Experiment::recover_node(NodeId id) { recover_node(id, cfg_.recovery); }

void Experiment::recover_node(NodeId id, RecoveryMode mode) {
  MOONSHOT_INVARIANT(id < cfg_.n, "recovery of unknown node");
  if (!down_[id]) return;

  // The commit hook is attached only after restore: replayed commits must
  // not be double-counted by the metrics collector.
  auto fresh = make_node(id);
  wal::Wal* wal = wal_of(id);
  switch (mode) {
    case RecoveryMode::kDurable:
      MOONSHOT_INVARIANT(wal != nullptr, "durable recovery requires enable_wal");
      fresh->restore_from_wal(wal->replay());
      break;
    case RecoveryMode::kAmnesia:
      // Disk lost too: cold start from genesis with an empty WAL.
      if (wal) wal->wipe();
      break;
  }
  attach_commit_hook(*fresh, id);

  retired_.push_back(std::move(nodes_[id]));
  nodes_[id] = std::move(fresh);
  down_[id] = 0;
  network_->unsilence(id);
  if (started_) nodes_[id]->start();
}

Experiment::~Experiment() { clear_log_clock(&sched_); }

void Experiment::start() {
  if (started_) return;
  started_ = true;
  for (NodeId id = 0; id < cfg_.n; ++id) {
    if (!is_crashed(id) && !down_[id]) nodes_[id]->start();  // equivocators start too
  }

  // Scheduler queue-depth sampling: a self-rescheduling probe every Δ, gated
  // on the run duration so run_all()-style drivers still terminate.
  if (cfg_.tracer && cfg_.sample_queue_depth) {
    struct Sampler {
      Experiment* exp;
      TimePoint until;
      void operator()() const {
        sim::Scheduler& s = exp->sched_;
        exp->cfg_.tracer->record(kNoNode, obs::EventKind::kSchedQueue, 0, s.pending(),
                                 s.events_executed());
        if (s.now() + exp->cfg_.delta <= until) {
          s.schedule_after(exp->cfg_.delta, Sampler{exp, until});
        }
      }
    };
    Sampler{this, sched_.now() + cfg_.duration}();
  }
}

ExperimentResult Experiment::run() {
  start();
  sched_.run_for(cfg_.duration);
  return result();
}

ExperimentResult Experiment::result() {
  ExperimentResult r;
  r.quorum = validators_->quorum_size();
  r.summary = metrics_.summarize(r.quorum, cfg_.duration);
  r.net_stats = network_->stats();
  r.events = sched_.events_executed();
  std::vector<const CommitLog*> logs;
  for (NodeId id = 0; id < cfg_.n; ++id) {
    if (is_faulty(id)) continue;  // only honest logs are judged
    r.max_view = std::max(r.max_view, nodes_[id]->current_view());
    logs.push_back(&nodes_[id]->commit_log());
  }
  r.logs_consistent = commit_logs_consistent(logs);
  if (tx_tracker_) r.tx = tx_tracker_->summarize(cfg_.duration);
  if (cfg_.registry) export_metrics(*cfg_.registry);
  return r;
}

void Experiment::export_metrics(obs::Registry& reg) {
  reg.set_time(sched_.now());
  const std::string tag = protocol_tag(cfg_.protocol);
  const obs::MetricLabels proto{{"protocol", tag}};

  const auto summary = metrics_.summarize(validators_->quorum_size(), cfg_.duration);
  reg.gauge("committed_blocks", "Blocks committed by a quorum", proto)
      .set(static_cast<double>(summary.committed_blocks));
  reg.gauge("throughput_blocks_per_sec", "Quorum-committed blocks per second",
            proto)
      .set(summary.blocks_per_sec);
  reg.gauge("commit_latency_avg_ms",
            "Mean creation-to-quorum-commit latency (ms)", proto)
      .set(summary.avg_latency_ms);
  reg.gauge("commit_latency_p99_ms",
            "p99 creation-to-quorum-commit latency (ms)", proto)
      .set(summary.p99_latency_ms);
  reg.gauge("transfer_rate_bps", "Committed payload bytes per second", proto)
      .set(summary.transfer_rate_bps);
  // Re-published whole on every export (periodic snapshots, bench grids):
  // reset-then-observe keeps the series idempotent, last-write-wins.
  auto& lat_hist = reg.histogram(
      "commit_latency_seconds",
      "Creation-to-quorum-commit latency distribution", proto);
  lat_hist.reset();
  for (const auto& vl : metrics_.per_view_latencies(validators_->quorum_size()))
    lat_hist.observe(vl.second);

  // Per-node pacemaker counters plus the derived per-protocol totals the
  // registry sums across nodes (view_change_total, timeout_retransmit_total,
  // cert_cache_hit_ratio).
  std::uint64_t view_changes = 0, retransmits = 0, hits = 0, misses = 0;
  for (NodeId id = 0; id < cfg_.n; ++id) {
    const NodeCounters c = nodes_[id]->counters();
    view_changes += c.view_changes;
    retransmits += c.timeout_retransmits;
    hits += c.cert_cache_hits;
    misses += c.cert_cache_misses;
    const obs::MetricLabels labels{{"protocol", tag},
                                   {"node", std::to_string(id)}};
    reg.counter("node_views_entered_total", "Views entered", labels)
        .set(c.views_entered);
    reg.counter("node_timeouts_fired_total", "View timer expiries", labels)
        .set(c.timeouts_fired);
    reg.counter("node_equivocations_seen_total",
                "Conflicting votes observed by the accumulator", labels)
        .set(c.equivocations_seen);
    // Byzantine-evidence detections, nonzero-only so fault-free runs export
    // a clean series. `node` is the *detector*, not the culprit: every
    // honest accumulator that observed the misbehaviour reports it.
    const std::pair<const char*, std::uint64_t> detections[] = {
        {"vote-equivocation", c.equivocations_seen},
        {"timeout-equivocation", c.timeout_equivocations_seen},
        {"vote-duplicate", c.vote_duplicates_dropped},
        {"timeout-duplicate", c.timeout_duplicates_dropped},
        {"vote-bad-sig", c.vote_bad_signatures_caught},
        {"vote-out-of-window", c.vote_window_dropped},
    };
    for (const auto& [kind, value] : detections) {
      if (value == 0) continue;
      const obs::MetricLabels det{{"protocol", tag},
                                  {"kind", kind},
                                  {"node", std::to_string(id)}};
      reg.counter("adversary_detected_total",
                  "Byzantine evidence observed by honest accumulators, by kind",
                  det)
          .set(value);
    }
  }
  reg.counter("view_change_total",
              "Views entered via a timeout certificate (all nodes)", proto)
      .set(view_changes);
  reg.counter("timeout_retransmit_total",
              "Timeout/proposal retransmissions (all nodes)", proto)
      .set(retransmits);
  reg.gauge("cert_cache_hit_ratio",
            "Certificate-verification cache hit ratio (all nodes)", proto)
      .set(hits + misses == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(hits + misses));

  network_->export_metrics(reg, tag);

  if (cfg_.tracer) {
    for (std::size_t t = 0; t < obs::kMessageTypeCount; ++t) {
      const obs::MessageCounter& mc = cfg_.tracer->message_counter(t);
      if (mc.sent == 0 && mc.delivered == 0 && mc.dropped == 0) continue;
      const obs::MetricLabels labels{{"protocol", tag},
                                     {"type", obs::message_type_label(t)}};
      reg.counter("msg_sent_total", "Messages sent, by wire type", labels)
          .set(mc.sent);
      reg.counter("msg_delivered_total", "Messages delivered, by wire type",
                  labels)
          .set(mc.delivered);
      reg.counter("msg_dropped_total", "Messages dropped, by wire type",
                  labels)
          .set(mc.dropped);
    }
    reg.counter("trace_events_recorded_total",
                "Structured trace events recorded", proto)
        .set(cfg_.tracer->total_recorded());
    reg.counter("trace_events_dropped_total",
                "Trace events overwritten by ring wrap", proto)
        .set(cfg_.tracer->total_dropped());
  }
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  Experiment e(cfg);
  return e.run();
}

}  // namespace moonshot
