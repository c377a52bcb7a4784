// The experiment runner: builds a simulated WAN of consensus nodes, injects
// faults per the paper's leader schedules, runs for a configured simulated
// duration, and reports the paper's metrics.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/coalition.hpp"
#include "adversary/spec.hpp"
#include "consensus/context.hpp"
#include "consensus/node.hpp"
#include "harness/metrics.hpp"
#include "harness/tx_tracker.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "types/validator_set.hpp"
#include "wal/wal.hpp"

namespace moonshot {

enum class ProtocolKind {
  kSimpleMoonshot,
  kPipelinedMoonshot,
  kCommitMoonshot,
  kJolteon,
  kHotStuff,  // chained HotStuff (Table I row 1; not in the paper's WAN runs)
};
const char* protocol_name(ProtocolKind p);
/// Short tags used in the paper's figures: SM, PM, CM, J.
const char* protocol_tag(ProtocolKind p);
/// Lower-case tags as the CLI tools spell --protocol: sm, pm, cm, j, hs.
const char* protocol_cli_tag(ProtocolKind p);
/// Inverse of protocol_cli_tag(), also accepting the long spellings simple,
/// pipelined, commit, jolteon and hotstuff; nullopt for anything else.
std::optional<ProtocolKind> parse_protocol_tag(std::string_view tag);
/// Builds an honest node of protocol `p`.
std::unique_ptr<IConsensusNode> make_protocol_node(ProtocolKind p, NodeContext ctx);

enum class ScheduleKind {
  kRoundRobin,  // plain fair rotation (happy-path runs)
  kB,           // honest… then byzantine…           (paper §VI-B)
  kWM,          // (honest, byzantine)×f' then honest
  kWJ,          // (honest, honest, byzantine)×f' then honest
};
const char* schedule_name(ScheduleKind s);

enum class FaultKind {
  kCrash,       // crash-silent: node sends and receives nothing
  kEquivocate,  // active adversary: conflicting proposals + double votes
};

/// How recover_node() rebuilds a crashed node's state.
enum class RecoveryMode {
  /// Crash recovery of an honest node: replay its write-ahead log (torn-tail
  /// truncation included) and refuse re-votes. Requires enable_wal.
  kDurable,
  /// The hazard demo: the disk is gone too. The node cold-starts from
  /// genesis and its WAL (if any) is wiped, so it may vote twice in a view.
  /// This is the mode that can violate safety.
  kAmnesia,
};

struct ExperimentConfig {
  ProtocolKind protocol = ProtocolKind::kPipelinedMoonshot;
  std::size_t n = 4;
  /// Synthetic payload bytes per block (paper: 0 .. 9 MB, 180-byte items).
  std::uint64_t payload_size = 0;
  /// Protocol Δ (timer base). The paper's failure runs use 500 ms.
  Duration delta = milliseconds(500);
  /// Simulated run length.
  Duration duration = seconds(60);
  std::uint64_t seed = 1;
  ScheduleKind schedule = ScheduleKind::kRoundRobin;
  /// When non-empty, overrides `schedule` with an explicit rotation (views
  /// cycle through this list). Twins-style worlds use it to place the
  /// adversary at chosen positions — including consecutive views, which no
  /// fair schedule produces.
  std::vector<NodeId> leader_order;
  /// Number of faulty nodes f' (the highest `crashed` node ids).
  std::size_t crashed = 0;
  /// How the faulty nodes misbehave.
  FaultKind fault_kind = FaultKind::kCrash;
  /// Active-Byzantine placements (src/adversary/). Each spec turns its node
  /// into an AdversaryNode running the named strategy over the given view
  /// range; several specs may target one node (disjoint ranges). All
  /// adversaries in a run share one coalition. Combined with `crashed`
  /// kCrash nodes the total faulty count must stay ≤ (n-1)/3.
  /// (fault_kind == kEquivocate is sugar: the ctor rewrites the `crashed`
  /// ids into "equivocate" specs here.)
  std::vector<adversary::AdversarySpec> adversaries;
  /// Network model (latency matrix, bandwidth, GST…). `delta`/`seed` above
  /// are copied in when the experiment is built.
  net::NetworkConfig net;
  /// Use real Ed25519 instead of the fast simulation scheme.
  bool use_ed25519 = false;
  /// Make nodes verify signatures cryptographically (tests; slow at scale —
  /// the network model charges verification time either way).
  bool verify_signatures = false;
  /// Custom per-view payload source; when set it overrides payload_size
  /// (used by the SMR examples to carry real transactions).
  PayloadSource payload_source;
  /// Ablation switches (see consensus/context.hpp).
  bool enable_opt_proposal = true;
  bool multicast_votes = true;
  /// Exponential pacemaker backoff (see consensus/context.hpp).
  bool timeout_backoff = false;
  /// Backoff hardening knobs (see consensus/context.hpp): exponent cap,
  /// seeded per-node timer jitter (percent), fast reset on certificate
  /// progress. Defaults reproduce the historical behaviour exactly.
  int timeout_backoff_cap = 6;
  int timeout_jitter_pct = 0;
  bool backoff_reset_on_progress = false;
  /// Threshold-style O(1) certificates (see consensus/context.hpp).
  bool aggregate_certificates = false;
  /// Leader-speaks-once variant (see consensus/context.hpp).
  bool lso_mode = false;
  /// Client transaction arrival rate (tx/s) for end-to-end latency tracking;
  /// 0 disables the tracker.
  double tx_rate = 0.0;
  /// Optional structured tracer (src/obs/). When set, the experiment wires
  /// it into every node context and the network, registers the scheduler as
  /// its clock, and samples scheduler queue depth every Δ.
  obs::Tracer* tracer = nullptr;
  /// Optional metrics registry (src/obs/registry.hpp). When set, result()
  /// publishes the run's summary, per-node pacemaker counters, cert-cache
  /// hit ratios, network statistics, and message-type counters into it,
  /// stamped with the scheduler's simulated time. export_metrics() can also
  /// be called directly mid-run for time-series snapshots.
  obs::Registry* registry = nullptr;
  /// Give every honest node a write-ahead log (equivocators never get one:
  /// double-voting is their job). Off by default — the WAL changes vote
  /// admission control, so pre-WAL determinism digests require it off.
  bool enable_wal = false;
  /// Fsync latency model and compaction threshold for the per-node WALs.
  wal::WalOptions wal;
  /// Mode for recover_node(id); chaos schedules pick it per event via
  /// recover_node(id, mode).
  RecoveryMode recovery = RecoveryMode::kDurable;
  /// Commit forks latch CommitLog::fork_detected() instead of aborting the
  /// process (ForkPolicy::kRecord). The model checker needs seeded commit-rule
  /// bugs to surface as reportable violations; leave off everywhere else.
  bool tolerant_commit_log = false;
  /// The every-Δ scheduler queue-depth probe (tracer runs only). The model
  /// checker disables it: the probe's untagged self-rescheduling events would
  /// pollute the choice-point frontier and the state digests.
  bool sample_queue_depth = true;
};

struct ExperimentResult {
  MetricsCollector::Summary summary;
  net::NetworkStats net_stats;
  View max_view = 0;      // highest view reached by any honest node
  std::uint64_t events = 0;
  bool logs_consistent = true;  // cross-node commit-log safety check
  std::size_t quorum = 0;
  /// End-to-end transaction latency (populated when cfg.tx_rate > 0).
  TxTracker::Summary tx;
};

/// Owns the simulator, network, and nodes for one run. Tests can drive the
/// scheduler manually; benchmarks call run() once.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg);
  ~Experiment();

  /// Starts all live nodes (idempotent). Called implicitly by run(); call it
  /// directly when driving the scheduler manually in phases.
  void start();

  /// Runs for cfg.duration of simulated time.
  ExperimentResult run();

  /// Collects the result without running (for manual driving in tests).
  ExperimentResult result();

  // --- chaos hooks: dynamic crash & rebuild-from-storage recovery -------------
  /// Crash-stops an honest node mid-run: halts it, silences its traffic and
  /// discards inbound deliveries. No-op on statically faulty or already-down
  /// nodes.
  void crash_node(NodeId id);
  /// Rebuilds a previously crash_node()ed node per cfg.recovery, reconnects
  /// it and restarts it. The husk of the old instance is retired, its pending
  /// callbacks inert.
  void recover_node(NodeId id);
  /// Same, with an explicit recovery mode (chaos schedules route here).
  void recover_node(NodeId id, RecoveryMode mode);
  bool is_down(NodeId id) const { return down_.at(id); }

  /// Publishes the run's metrics into `reg`, stamped with the scheduler's
  /// current simulated time. Idempotent (gauges are set, counters mirrored),
  /// so it can be called repeatedly to build a JSONL time series.
  void export_metrics(obs::Registry& reg);

  sim::Scheduler& scheduler() { return sched_; }
  net::SimNetwork& network() { return *network_; }
  IConsensusNode& node(NodeId id) { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }
  bool is_faulty(NodeId id) const {
    return id + cfg_.crashed >= cfg_.n || is_adversary(id);
  }
  bool is_crashed(NodeId id) const {
    return id + cfg_.crashed >= cfg_.n && cfg_.fault_kind == FaultKind::kCrash;
  }
  /// True when `id` runs the active-Byzantine framework (any adversary spec
  /// names it — including the kEquivocate sugar).
  bool is_adversary(NodeId id) const { return id < adversary_.size() && adversary_[id] != 0; }
  /// The shared coalition state of this run's adversaries (tests inspect it).
  const adversary::CoalitionPtr& coalition() const { return coalition_; }
  const ExperimentConfig& config() const { return cfg_; }
  /// The node's write-ahead log (null when enable_wal is off or the node is
  /// an equivocator). Exposed for tests and fuzzers to corrupt/inspect.
  wal::Wal* wal_of(NodeId id) { return id < wals_.size() ? wals_[id].get() : nullptr; }
  MetricsCollector& metrics() { return metrics_; }
  const ValidatorSetPtr& validators() const { return validators_; }
  const LeaderSchedulePtr& leaders() const { return leaders_; }

 private:
  std::unique_ptr<IConsensusNode> make_node(NodeId id);
  void attach_commit_hook(IConsensusNode& node, NodeId id);

  ExperimentConfig cfg_;
  sim::Scheduler sched_;
  std::unique_ptr<net::SimNetwork> network_;
  ValidatorSetPtr validators_;
  std::vector<crypto::PrivateKey> private_keys_;
  LeaderSchedulePtr leaders_;
  PayloadSource payloads_;
  std::vector<std::unique_ptr<IConsensusNode>> nodes_;
  /// Per-node WALs (the "disks"): owned by the experiment, not the node, so
  /// they survive a crash exactly like a file survives a process.
  std::vector<std::unique_ptr<wal::Wal>> wals_;
  /// Halted pre-crash instances, kept alive until teardown so scheduler
  /// callbacks that still reference them stay safe.
  std::vector<std::unique_ptr<IConsensusNode>> retired_;
  std::vector<char> down_;
  std::vector<char> adversary_;  // bitmap: node id runs the adversary framework
  adversary::CoalitionPtr coalition_;
  MetricsCollector metrics_;
  std::unique_ptr<TxTracker> tx_tracker_;
  bool started_ = false;
};

/// One-call convenience for benches.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace moonshot
