// Systematic state-space exploration for the consensus protocols.
//
// The explorer drives the discrete-event Scheduler through many delivery
// orderings of a small world (n=4, a handful of views) and checks safety and
// liveness oracles after every scheduling decision:
//
//  * exhaustive — depth-first enumeration of every tagged-event ordering,
//    pruned by sleep-set partial-order reduction (deliveries to different
//    receivers commute) and by state-digest deduplication (two interleavings
//    that leave every replica having observed the same local event sequence
//    are the same state);
//  * random — seeded trace sampling with Twins-style targeted withholding:
//    each trace picks a "deaf set" of nodes whose deliveries are held back
//    during a window, plus a budget of early view-timer fires. This is the
//    strategy that reaches withheld-certificate forks far beyond exhaustive
//    depth.
//
// A violation is emitted as a chaos-compatible FaultSchedule of mc() choice
// events, so the PR-1 machinery applies unchanged: replay() re-executes the
// counterexample deterministically and shrink() ddmins it to a locally
// minimal reproducer with the same violation kind.
//
// Validation is mutational: builds with -DMOONSHOT_MUTATIONS=ON can arm one
// of the seeded protocol bugs (support/mutations.hpp), and the explorer must
// flag every one of them — see mutation_probe_config() and tests/mc/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/schedule.hpp"
#include "harness/experiment.hpp"
#include "support/mutations.hpp"

namespace moonshot::mc {

enum class Strategy {
  kExhaustive,  // DFS over all orderings (sleep sets + state dedup)
  kRandom,      // seeded traces with deaf-set withholding + timer injection
};
const char* strategy_name(Strategy s);

struct McConfig {
  ProtocolKind protocol = ProtocolKind::kPipelinedMoonshot;
  std::size_t n = 4;
  Strategy strategy = Strategy::kExhaustive;
  /// Choice points per trace (the exploration depth bound).
  std::size_t max_depth = 14;
  /// Trace budget: DFS leaves (exhaustive) or sampled traces (random).
  std::size_t max_traces = 4000;
  std::uint64_t seed = 1;
  /// Early view-timer fires allowed per trace while deliveries are still
  /// pending. At quiescence (nothing but timers left) timers are always
  /// enabled — otherwise a partially-delivered world would dead-end.
  std::size_t max_timer_injections = 2;
  /// Explicit leader rotation (ExperimentConfig::leader_order). Mutation
  /// probes use it to hand the equivocator consecutive views.
  std::vector<NodeId> leader_order;
  /// Actively Byzantine equivocators (the highest node ids).
  std::size_t byzantine = 0;
  /// Explicit active-adversary placements (src/adversary/ strategies) for the
  /// small world. Twins-style probes combine them with leader_order to hand a
  /// strategy consecutive views. Counterexample schedules embed the full
  /// adversary world as adv() events, so a replayed schedule rebuilds the
  /// same placements regardless of the caller's flags.
  std::vector<adversary::AdversarySpec> adversaries;
  /// Random strategy only: when non-empty, each trace samples one strategy
  /// from this pool for each of the `byzantine` highest node ids (replacing
  /// the fixed equivocator sugar for that trace). Placements ride along in
  /// any counterexample via the adv() events above.
  std::vector<std::string> adversary_pool;
  /// Protocol Δ. Small: mc worlds run on a 1 ms uniform LAN.
  Duration delta = milliseconds(40);
  /// Check bounded view synchronization + commit growth on sampled leaves by
  /// running a 64Δ fault-free natural tail after the explored prefix.
  bool check_liveness = true;
  /// Check liveness at every k-th leaf (tails are the expensive part).
  std::size_t liveness_sample_every = 16;
  /// Seeded protocol bug to arm for this exploration (mutation-validation
  /// builds only; must be kNone when MOONSHOT_MUTATIONS is off).
  Mutation mutation = Mutation::kNone;
  /// When non-empty, replay() writes a flight recording (obs/flight.hpp)
  /// here, and its rendered postmortem to the .txt sibling, if the replayed
  /// schedule produces a violation. Shrinking clears it for its oracle calls
  /// so only the final replay emits a recording.
  std::string flight_path;
  /// Worker lanes for exploration (exec/world_runner.hpp); 0 behaves like 1.
  /// The result is a pure function of the rest of the config — byte-identical
  /// between jobs=1 and jobs=N. (Diagnostic stderr log lines are outside that
  /// contract: concurrent lanes run speculative traces past an adopted
  /// violation, and those may log.)
  ///  * random — traces are sampled in blocks (each trace's PRNG stream is
  ///    already a pure function of its index); the lowest-index violating
  ///    trace wins and stats are truncated to traces [0, violator], exactly
  ///    the prefix a sequential scan would have accumulated;
  ///  * exhaustive — the root frontier is sharded, one independent DFS per
  ///    first choice (private visited/sleep state, the trace budget split
  ///    evenly); the lowest-index violating shard wins and stats sum over
  ///    shards [0, winner]. Shards share no dedup state, so two shards may
  ///    both explore a state reachable from either first choice.
  std::size_t jobs = 1;
};

enum class ViolationKind {
  kNone = 0,
  kCommitFork,      // one replica's CommitLog latched a conflicting commit
  kLogDivergence,   // two honest replicas committed different blocks at a height
  kLiveness,        // no commit growth / view sync in the fault-free tail
};
const char* violation_kind_name(ViolationKind v);

struct Violation {
  ViolationKind kind = ViolationKind::kNone;
  /// Human-readable description of the first (latched) violation point.
  std::string detail;
  /// Digest over (kind, detail): stable across replay because both safety
  /// violations latch at their first occurrence.
  std::uint64_t digest = 0;
  /// Replayable counterexample: the choice prefix as zero-width mc() events.
  chaos::FaultSchedule schedule;

  explicit operator bool() const { return kind != ViolationKind::kNone; }
};

struct McStats {
  std::uint64_t traces = 0;          // leaves (exhaustive) / traces (random)
  std::uint64_t choices = 0;         // choice points executed (incl. rebuilds)
  std::uint64_t events = 0;          // scheduler events run across all traces
  std::uint64_t states_deduped = 0;  // DFS branches cut by state-digest match
  std::uint64_t sleep_skips = 0;     // DFS branches cut by sleep sets
  std::uint64_t liveness_checks = 0;
  std::uint64_t max_depth_seen = 0;
  bool budget_exhausted = false;     // trace budget ran out before completion
};

struct McResult {
  Violation violation;
  McStats stats;
  bool ok() const { return violation.kind == ViolationKind::kNone; }
};

/// Explores per cfg. Stops at the first violation (counterexample attached)
/// or when the strategy completes / the trace budget runs out.
McResult explore(const McConfig& cfg);

/// Replays a counterexample: applies each mc() choice against the live
/// frontier (lenient matching — events dropped by shrinking are skipped),
/// runs the natural tail, and reports the latched violation (kNone if the
/// schedule no longer reproduces one).
Violation replay(const McConfig& cfg, const chaos::FaultSchedule& schedule);

/// ddmin-shrinks a counterexample to a locally minimal schedule that still
/// replays to the same violation kind.
chaos::FaultSchedule shrink(const McConfig& cfg, const Violation& v,
                            std::size_t max_oracle_calls = 200);

/// CI smoke budget: exhaustive, small depth, finishes in seconds.
McConfig smoke_config(ProtocolKind p);

/// Probe tuned to catch mutation `m` (placement of the equivocator, deaf-set
/// strategy, timer budget). The mutation harness asserts explore() finds a
/// violation under every mutation and none without.
McConfig mutation_probe_config(Mutation m, ProtocolKind p);

}  // namespace moonshot::mc
