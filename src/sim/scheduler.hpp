// Discrete-event simulation engine.
//
// A Scheduler owns the simulated clock and a priority queue of timestamped
// callbacks. Events at equal timestamps execute in scheduling order (stable),
// which — together with seeded PRNGs — makes every run bit-reproducible.
// Cancellation needs no lookup structure: each queued event owns a reusable
// slot holding its state, and a TaskId names the slot plus its generation.
//
// Events may carry an EventTag classifying them as *choice points* for the
// model-checking explorer (src/mc/): message deliveries and protocol timers.
// Normal runs ignore tags entirely; the explorer enumerates the pending
// frontier() and picks which tagged event runs next via run_task().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "support/time.hpp"

namespace moonshot::sim {

/// Handle for cancelling a scheduled event: (generation << 32) | slot. Each
/// queued event owns a slot; when it leaves the queue (run or discarded) the
/// slot's generation advances, so a stale id never matches the slot's next
/// occupant. Generations start at 1, so 0 is never a valid id.
using TaskId = std::uint64_t;

/// Classification of a scheduled event for systematic exploration. Untagged
/// (kInternal) events are deterministic bookkeeping the explorer always runs
/// eagerly in (time, seq) order; tagged events are the nondeterminism the
/// explorer controls.
struct EventTag {
  enum class Kind : std::uint8_t {
    kInternal = 0,  // bookkeeping: not a choice point
    kDelivery = 1,  // a message arriving at `node` from `peer`
    kTimer = 2,     // a protocol timer owned by `node`
  };
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  Kind kind = Kind::kInternal;
  std::uint32_t node = kNone;  // receiver (delivery) / owner (timer)
  std::uint32_t peer = kNone;  // sender, for deliveries
  std::uint32_t type = 0;      // message wire-type index, for deliveries

  static EventTag delivery(std::uint32_t to, std::uint32_t from, std::uint32_t type) {
    return EventTag{Kind::kDelivery, to, from, type};
  }
  static EventTag timer(std::uint32_t node) { return EventTag{Kind::kTimer, node, kNone, 0}; }
};

/// A pending (not yet run, not cancelled) event as seen by frontier().
struct PendingEvent {
  TaskId id = 0;
  TimePoint t;
  std::uint64_t seq = 0;
  EventTag tag;
};

class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time.
  TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now). Returns a cancellable id.
  TaskId schedule_at(TimePoint t, Callback cb);
  TaskId schedule_at(TimePoint t, EventTag tag, Callback cb);

  /// Schedules `cb` after `d` from now.
  TaskId schedule_after(Duration d, Callback cb);
  TaskId schedule_after(Duration d, EventTag tag, Callback cb);

  /// Cancels a pending event. Cancelling an already-run or unknown id is a
  /// harmless no-op (timers race with their own expiry).
  void cancel(TaskId id);

  /// Executes the next event, advancing the clock. Returns false if empty.
  bool run_next();

  /// Runs events until the queue is empty or the clock would pass `limit`.
  /// The clock is left at min(limit, time of last event run).
  void run_until(TimePoint limit);

  /// Runs for `d` simulated time from now.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Drains the queue completely (bounded by `max_events` as a runaway guard).
  void run_all(std::uint64_t max_events = UINT64_MAX);

  /// The pending-event frontier in deterministic (time, seq) order, excluding
  /// cancelled entries. This is the explorer's view of the enabled set; it is
  /// O(pending · log pending) and intended for small model-checking worlds.
  std::vector<PendingEvent> frontier() const;

  /// Executes the pending event `id` out of queue order (a model-checker
  /// choice). The clock advances to max(now, event time) — choosing a later
  /// event models the earlier ones being delayed, not dropped. Returns false
  /// for unknown or cancelled ids.
  bool run_task(TaskId id);

  /// Eagerly runs every pending kInternal event — in (time, seq) order,
  /// including ones newly scheduled along the way — until only tagged events
  /// remain. The explorer calls this between choices so that deterministic
  /// bookkeeping (network hops, self-deliveries) never appears as a choice
  /// point and every in-flight delivery surfaces on the frontier. Returns the
  /// number of events run; `max_events` is a runaway guard.
  std::uint64_t run_internal(std::uint64_t max_events = 1 << 20);

  std::size_t pending() const { return heap_.size() - cancelled_count_; }
  std::uint64_t events_executed() const { return executed_; }

  /// Order-sensitive digest of the execution so far: folds the (time, seq) of
  /// every executed event into an FNV-1a accumulator. Two runs of the same
  /// seeded simulation must end with identical fingerprints; the chaos
  /// replay machinery uses this to assert bit-identical re-runs.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  struct Event {
    TimePoint t;
    std::uint64_t seq;   // tie-breaker: FIFO among equal timestamps
    std::uint32_t slot;  // index into slots_
    EventTag tag;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  /// Cancellation state of one queued event. Slots are recycled through
  /// free_; `gen` advances each time the occupant leaves the heap.
  struct Slot {
    enum class State : std::uint8_t { kFree, kQueued, kCancelled };
    std::uint32_t gen = 1;
    State state = State::kFree;
  };

  TaskId id_of(const Event& ev) const {
    return (TaskId{slots_[ev.slot].gen} << 32) | ev.slot;
  }
  bool cancelled(const Event& ev) const {
    return slots_[ev.slot].state == Slot::State::kCancelled;
  }
  /// The slot `id` names if its event is still queued and not cancelled.
  Slot* live(TaskId id);
  /// Frees the slot of an event that left the heap; returns whether the
  /// event had been cancelled.
  bool release(std::uint32_t slot);
  void execute(Event ev);

  // Binary heap ordered by Later (min (t, seq) at front), maintained with
  // std::push_heap/pop_heap. A plain vector (rather than priority_queue) so
  // frontier() can enumerate and run_task() can extract arbitrary entries.
  std::vector<Event> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t cancelled_count_ = 0;  // heap_ entries whose slot is kCancelled
  TimePoint now_ = TimePoint::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t fingerprint_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

}  // namespace moonshot::sim
