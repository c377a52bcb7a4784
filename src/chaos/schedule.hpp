// Declarative, replayable fault schedules.
//
// A FaultSchedule is a list of timed fault events driven against a running
// Experiment by the ChaosEngine. Schedules round-trip through a compact
// textual form so a failing fuzz run can be replayed from a command line:
//
//   part(100-600;0,1|2,3)            symmetric partition into groups
//   cut(100-600;0>1,2>0)             asymmetric partition (directed links)
//   drop(0-2000;p=50;links=0>1)      probabilistic per-link drop
//   dup(0-2000;p=20)                 probabilistic duplication (all links)
//   delay(0-2000;d=200;p=100)        per-link delay spike of d ms
//   crash(200-1500;n=2)              crash node 2 at 200ms, rebuild it from
//                                    its WAL at 1500ms (m=durable says so too)
//   crash(200-1500;n=2;m=amnesia)    same, but the disk is lost too
//   burst(0-1000;d=300)              adversarial delay burst on all traffic
//   mc(40-40;k=d;r=2;p=1;y=3;u=0)    model-checker choice: deliver the 0th
//                                    pending (1→2, wire-type 3) event now
//   mc(40-40;k=t;r=2)                model-checker choice: fire node 2's timer
//   adv(0-0;n=3;s=silent)            node 3 runs the SilentLeader strategy
//   adv(0-0;n=3;s=delay;v=2-9;d=800) DelayedRelease over views 2..9, 800 ms
//   adv(0-0;n=3;s=partial;q=2)       PartialBroadcast to the 2 lowest ids
//
// adv() events are zero-width placements, not timed faults: the adversary is
// built into the experiment before it starts (a node cannot turn Byzantine
// mid-run), and the view range v=a-b (b=0 = unbounded) — not the time
// window — bounds when the strategy acts. The engine never arms them.
//
// Times are milliseconds from simulation start; events are ';'-separated.
// Probabilities are integer percents and delays integer milliseconds so the
// textual form round-trips exactly (schedules are generated at millisecond
// granularity).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/spec.hpp"
#include "harness/experiment.hpp"
#include "net/fault.hpp"
#include "support/time.hpp"
#include "types/ids.hpp"

namespace moonshot::chaos {

enum class FaultType {
  kPartition,  // symmetric split into groups
  kLinkCut,    // directed link cut (asymmetric partition)
  kDrop,       // probabilistic per-link drop
  kDuplicate,  // probabilistic per-link duplication
  kDelay,      // per-link delay spike
  kCrash,      // crash-stop at start, rebuild from persisted state at end
  kBurst,      // adversarial delay burst on every link
  kMcChoice,   // model-checker scheduling choice (counterexample replay only)
  kAdversary,  // active-Byzantine placement (src/adversary/), built pre-start
};
const char* fault_type_tag(FaultType t);

struct FaultEvent {
  FaultType type = FaultType::kPartition;
  /// Active window [start, end): the fault arms at `start` and heals at
  /// `end` (for kCrash, `end` is the rebuild time).
  TimePoint start = TimePoint::zero();
  TimePoint end = TimePoint::zero();
  std::vector<std::vector<NodeId>> groups;  // kPartition
  std::vector<net::Link> links;             // link faults; empty = every link
  std::vector<NodeId> nodes;                // kCrash
  int percent = 100;                        // trigger probability, 0..100
  Duration delay = Duration(0);             // kDelay / kBurst spike size
  /// kCrash recovery (grammar key `m=`). Durable unless the event says
  /// m=amnesia, which is the only mode ever printed.
  RecoveryMode recovery = RecoveryMode::kDurable;

  // kMcChoice only. The explorer emits counterexamples as zero-width mc()
  // events; src/mc/ replays them by matching the pending-event frontier, and
  // the chaos shrinker treats them like any other droppable event. The engine
  // itself never arms them.
  char mc_kind = 'd';          // 'd' = delivery, 't' = view-timer fire
  NodeId mc_to = 0;            // receiver (delivery) / owner (timer)
  NodeId mc_from = 0;          // sender (delivery only)
  std::uint32_t mc_type = 0;   // message wire-type index (delivery only)
  std::uint32_t mc_ordinal = 0;  // ordinal among matching frontier entries

  // kAdversary only (node in `nodes`, hold-back in `delay`). Defaults are
  // never printed, so minimal adv() strings round-trip byte-for-byte.
  std::string adv_strategy = "silent";  // s= (one of adversary::strategy_names())
  View adv_view_from = 1;               // v=a-b active view range
  View adv_view_to = 0;                 //   (b = 0 → unbounded)
  std::size_t adv_subset = 0;           // q= PartialBroadcast recipient count

  /// The kAdversary event as a framework placement spec (one per node id in
  /// `nodes`, normally exactly one).
  std::vector<adversary::AdversarySpec> adversary_specs() const;

  std::string to_string() const;
};

struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  /// Latest heal time over all events (zero when empty): after this point
  /// the network is fault-free and liveness must return.
  TimePoint last_heal() const;
  /// Node ids named by m=amnesia crash events: they may vote twice, so the
  /// conformance rules exempt them.
  std::vector<NodeId> amnesia_targets() const;
  /// True when the schedule has any crash event. Every runner that replays
  /// a schedule enables the write-ahead log on this, so a crashed honest
  /// node always has a disk to recover from.
  bool wants_wal() const;
  /// Every adversary placement in the schedule, flattened for
  /// ExperimentConfig::adversaries.
  std::vector<adversary::AdversarySpec> adversaries() const;

  std::string to_string() const;
  static std::optional<FaultSchedule> parse(std::string_view text);
};

}  // namespace moonshot::chaos
