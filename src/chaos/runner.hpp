// Runs one (protocol, seed, schedule) chaos scenario and checks the full
// invariant suite:
//  * safety — cross-node commit-log consistency, checked both at the heal
//    point and at the end of the run;
//  * conformance — behavioural rules over the message trace. Durably
//    recovered nodes replay their votes from the WAL and refuse re-votes, so
//    the rules hold for them too; only m=amnesia targets are exempt, since
//    forgetting their votes is the point of that mode;
//  * liveness after heal — every honest node's commit log must grow during
//    the fault-free tail;
//  * chain shape — committed heights are dense (no gaps).
//
// The report carries a determinism digest folding the commit logs, metrics
// and the scheduler's execution fingerprint: two runs of the same
// (protocol, seed, schedule) must produce identical digests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/schedule.hpp"
#include "harness/experiment.hpp"

namespace moonshot::chaos {

struct ChaosRunConfig {
  ProtocolKind protocol = ProtocolKind::kPipelinedMoonshot;
  std::size_t n = 4;
  Duration delta = milliseconds(500);
  Duration duration = seconds(10);
  std::uint64_t seed = 1;
  FaultSchedule schedule;
  /// Number of actively Byzantine (equivocating) nodes — the highest node
  /// ids. They propose conflicting blocks and double-vote; all safety and
  /// chain-shape checks run over the honest remainder only.
  std::size_t byzantine = 0;
  /// Explicit leader rotation override (see ExperimentConfig::leader_order).
  /// Twins-style runs use it to hand the equivocator consecutive views.
  std::vector<NodeId> leader_order;
  /// Require commit-log growth on every honest node after the last heal.
  /// Needs a reasonable fault-free tail; disable for schedules that run
  /// faults to the end.
  bool check_liveness = true;
  /// Testing hook for the shrinker: treat a partition window overlapping a
  /// crash window as a fake safety violation. Lets tests exercise
  /// shrink-to-minimal-reproducer without a real consensus bug.
  bool inject_bug = false;
  /// Optional structured tracer (src/obs/). When set, the run is traced and
  /// the tracer's event digest is folded into the report digest, so replay
  /// verification covers the trace stream too.
  obs::Tracer* tracer = nullptr;
  /// Give honest nodes a WAL. Always on when the schedule has a crash event
  /// (FaultSchedule::wants_wal).
  bool enable_wal = false;
  /// Fsync model / compaction threshold for the per-node WALs.
  wal::WalOptions wal;
  /// Network model override (latency matrix, drops, GST). Seed and delta are
  /// stamped in by the experiment.
  net::NetworkConfig net;
  /// Check per-view commit latency against the paper's failure-scenario
  /// bounds (src/adversary/oracle.hpp). Judges only views inside an adv()
  /// placement's blast radius, so it is meant for adversary-only schedules
  /// (smoke tests, bound calibration) — network faults stretch latency for
  /// reasons the adversary bounds don't model.
  bool latency_oracle = false;
  /// Worst-case honest message delay δ fed to the oracle; 0 = Δ/4 (a
  /// conservative default for LAN-like matrices under Δ=500ms).
  Duration oracle_hop = Duration(0);
  /// When non-empty and any oracle latches, a flight recording (metrics,
  /// span tail, critical paths, event tail, replay command — see
  /// obs/flight.hpp) is written here, its rendered postmortem to the .txt
  /// sibling. If no tracer was supplied, the run gets a private one so the
  /// recording has events to dump; the private tracer is *not* folded into
  /// the determinism digest, so recordings can be toggled without perturbing
  /// replay verification.
  std::string flight_path;
};

struct ChaosReport {
  bool safety_ok = true;
  bool liveness_ok = true;
  bool conformance_ok = true;
  bool chain_shape_ok = true;
  bool latency_ok = true;  // latency-degradation oracle (when enabled)
  std::vector<std::string> violations;  // human-readable failure details
  /// Determinism digest: commit logs + metrics + scheduler fingerprint.
  std::uint64_t digest = 0;
  std::uint64_t committed_blocks = 0;  // 2f+1-threshold commits
  View max_view = 0;

  bool ok() const {
    return safety_ok && liveness_ok && conformance_ok && chain_shape_ok && latency_ok;
  }
  /// One-line failure summary ("" when ok()).
  std::string failure() const;
};

ChaosReport run_chaos(const ChaosRunConfig& cfg);

}  // namespace moonshot::chaos
