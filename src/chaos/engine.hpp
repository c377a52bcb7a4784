// The chaos engine: arms a declarative FaultSchedule onto a running
// Experiment.
//
// For each event it schedules an activation at `start` and a heal at `end`
// on the experiment's own scheduler, so fault timing participates in the
// same deterministic event order as everything else:
//  * filter faults (partition/cut/drop/dup/delay/burst) are translated into
//    net/fault.hpp chain members, added on activation and removed on heal;
//  * crash events call Experiment::crash_node at `start` and
//    Experiment::recover_node at `end`, rebuilding the node from its
//    write-ahead log (or from nothing, for m=amnesia).
//
// Probabilistic faults derive their PRNG streams from (seed, event index),
// so a (schedule, seed) pair replays bit-identically.
#pragma once

#include <memory>

#include "chaos/schedule.hpp"
#include "harness/experiment.hpp"

namespace moonshot::chaos {

class ChaosEngine {
 public:
  ChaosEngine(Experiment& experiment, FaultSchedule schedule, std::uint64_t seed);

  /// Schedules all activations and heals. Call once, before driving the
  /// scheduler past the first event's start time.
  void arm();

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  net::LinkFaultPtr build_filter(const FaultEvent& ev, std::size_t index) const;
  void activate(std::size_t index);
  void heal(std::size_t index);

  Experiment& exp_;
  FaultSchedule schedule_;
  std::uint64_t seed_;
  bool armed_ = false;
  /// Active chain entries per event (null while inactive / for crash events).
  std::vector<net::LinkFaultPtr> active_;
};

}  // namespace moonshot::chaos
