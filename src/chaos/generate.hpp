// Seeded random fault-schedule generation for the fuzz driver.
//
// Constraints baked into generated schedules (so the invariant suite's
// expectations are sound):
//  * every fault heals before `duration - stable_tail` — the run always ends
//    with a fault-free window in which liveness must return;
//  * crash-recovery targets are drawn from a fixed pool of at most
//    `crash_pool` low node ids, and crash_pool + statically-faulty <= f —
//    a crashed node is silent for its window, so it is budgeted against
//    the adversary like any other faulty node. Generated crashes recover
//    durably (no m= key);
//  * partitions/drops/delays are unconstrained: they may only hurt liveness
//    while active, never safety.
#pragma once

#include "chaos/schedule.hpp"

namespace moonshot::chaos {

struct GenerateOptions {
  std::size_t n = 4;
  /// Nodes the adversary already controls statically (Experiment cfg.crashed).
  std::size_t static_faulty = 0;
  /// Crash-recovery pool size; crash events target ids [0, crash_pool).
  /// Keep crash_pool + static_faulty <= (n-1)/3.
  std::size_t crash_pool = 1;
  Duration duration = seconds(10);
  /// Fault-free window at the end of the run (liveness must return here).
  Duration stable_tail = seconds(4);
  std::size_t min_events = 1;
  std::size_t max_events = 6;
  /// Largest delay spike / burst, ms granularity.
  Duration max_delay = milliseconds(400);
  /// Crash-heavy bias: several non-overlapping crash windows per schedule
  /// (plus the usual background faults) instead of at most one.
  bool crash_heavy = false;
  /// Active-adversary placements per schedule (0 = none). Placements take
  /// the HIGHEST node ids — disjoint from the low-id crash pool — and are
  /// budgeted against f with the other faults:
  /// crash_pool + static_faulty + adversary_pool <= (n-1)/3.
  std::size_t adversary_pool = 0;
  /// Strategy names drawn for placements; empty = every registered strategy
  /// (adversary::strategy_names()).
  std::vector<std::string> adversary_strategies;
};

FaultSchedule generate_schedule(const GenerateOptions& opt, std::uint64_t seed);

}  // namespace moonshot::chaos
