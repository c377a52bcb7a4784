// Discrete-event simulation engine.
//
// A Scheduler owns the simulated clock and a priority queue of timestamped
// events. Events at equal timestamps execute in scheduling order (stable),
// which — together with seeded PRNGs — makes every run bit-reproducible.
//
// Two kinds of event share one (time, seq) order:
//  * A single event carries a callback (timers, bookkeeping, self-delivery).
//    Cancellation needs no lookup structure: each queued single event owns a
//    reusable slot holding its tag and callback, and a TaskId names the slot
//    plus its generation.
//  * A run is the copies of one network send (schedule_run): one heap entry,
//    keyed by its earliest remaining copy, whose copies carry no callback.
//    Each copy takes its own seq, so a run executes exactly as the copies
//    would one by one; running a copy calls the one run sink the network
//    registers, with the copy's tag and the run's `ref`, and then re-keys the
//    entry to the next copy. Copies cannot be cancelled.
//
// Events may carry an EventTag classifying them as *choice points* for the
// model-checking explorer (src/mc/): message deliveries and protocol timers.
// Normal runs ignore tags entirely; the explorer enumerates the pending
// frontier() — every copy of every run on its own — and picks which tagged
// event runs next via run_task().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "support/fnv.hpp"
#include "support/time.hpp"

namespace moonshot::sim {

/// Handle for a scheduled event. A single event's id is
/// (generation << 32) | slot: each queued single event owns a slot; when it
/// leaves the queue (run or discarded) the slot's generation advances, so a
/// stale id never matches the slot's next occupant. Generations run from 1 to
/// 2^31 - 1, so 0 is never a valid id. A run copy's id is kCopyId | seq.
using TaskId = std::uint64_t;
inline constexpr TaskId kCopyId = TaskId{1} << 63;

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

/// One copy of a run, as schedule_run() takes it: when it is delivered and
/// its (delivery) tag.
struct RunCopy {
  TimePoint t;
  EventTag tag;
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
  /// Receives every executed run copy: its tag and its run's `ref`.
  using RunSink = std::function<void(const EventTag& tag, std::uint32_t ref)>;

  /// Current simulated time.
  TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now). Returns a cancellable id.
  TaskId schedule_at(TimePoint t, Callback cb);
  TaskId schedule_at(TimePoint t, EventTag tag, Callback cb);

  /// Schedules `cb` after `d` from now.
  TaskId schedule_after(Duration d, Callback cb);
  TaskId schedule_after(Duration d, EventTag tag, Callback cb);

  /// Registers the sink that runs every run copy. At most one sink is set at
  /// a time; pass nullptr to clear it.
  void set_run_sink(RunSink sink);

  /// Schedules the copies of one send as one run. The copies, given in send
  /// order, each take the next seq exactly as schedule_at would; the sink
  /// gets `ref` with each. Every copy must be tagged (not kInternal) and not
  /// in the past. An empty span schedules nothing.
  void schedule_run(std::span<const RunCopy> copies, std::uint32_t ref);

  /// Cancels a pending single event. Cancelling an already-run or unknown id,
  /// or a run copy's, is a harmless no-op (timers race with their own expiry).
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
  /// cancelled entries and listing every remaining copy of every run. This is
  /// the explorer's view of the enabled set; it is O(pending · log pending)
  /// and intended for small model-checking worlds.
  std::vector<PendingEvent> frontier() const;

  /// Executes the pending event `id` out of queue order (a model-checker
  /// choice). The clock advances to max(now, event time) — choosing a later
  /// event models the earlier ones being delayed, not dropped. Any copy of a
  /// run may be chosen, in O(pending). Returns false for unknown or cancelled
  /// ids.
  bool run_task(TaskId id);

  /// Eagerly runs every pending kInternal event — in (time, seq) order,
  /// including ones newly scheduled along the way — until only tagged events
  /// remain. The explorer calls this between choices so that deterministic
  /// bookkeeping (network hops, self-deliveries) never appears as a choice
  /// point and every in-flight delivery surfaces on the frontier. Returns the
  /// number of events run; `max_events` is a runaway guard.
  std::uint64_t run_internal(std::uint64_t max_events = 1 << 20);

  /// Pending events: single events not cancelled plus the copies left in
  /// runs.
  std::size_t pending() const { return pending_; }
  std::uint64_t events_executed() const { return executed_; }

  /// Order-sensitive digest of the execution so far: folds the (time, seq) of
  /// every executed event into an FNV-1a accumulator. Two runs of the same
  /// seeded simulation must end with identical fingerprints; the chaos
  /// replay machinery uses this to assert bit-identical re-runs.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  static constexpr std::uint32_t kRunBit = 1u << 31;

  /// A heap entry: a single event's slot, or kRunBit | the index of a run
  /// keyed by its earliest remaining copy.
  struct Entry {
    TimePoint t;
    std::uint64_t seq;  // tie-breaker: FIFO among equal timestamps
    std::uint32_t ref;
  };
  static bool before(TimePoint at, std::uint64_t aseq, TimePoint bt, std::uint64_t bseq) {
    return at < bt || (at == bt && aseq < bseq);
  }
  static bool before(const Entry& a, const Entry& b) { return before(a.t, a.seq, b.t, b.seq); }

  /// The state of one single event. Slots are recycled through free_; `gen`
  /// advances each time the occupant leaves the heap.
  struct Slot {
    enum class State : std::uint8_t { kFree, kQueued, kCancelled };
    std::uint32_t gen = 1;
    State state = State::kFree;
    EventTag tag;
    Callback cb;
  };
  struct Copy {
    TimePoint t;
    std::uint64_t seq;
    EventTag tag;
  };
  /// The copies of one send, sorted by (t, seq); [next, end) are pending.
  /// Runs are recycled through free_runs_, keeping their capacity.
  struct Run {
    std::vector<Copy> copies;
    std::size_t next = 0;
    std::uint32_t ref = 0;
  };

  TaskId id_of(std::uint32_t slot) const { return (TaskId{slots_[slot].gen} << 32) | slot; }
  bool cancelled(const Entry& e) const {
    return (e.ref & kRunBit) == 0 && slots_[e.ref].state == Slot::State::kCancelled;
  }
  /// The slot `id` names if its event is still queued and not cancelled.
  Slot* live(TaskId id);
  /// Frees the slot of a single event that left the heap.
  void release(std::uint32_t slot);
  /// Takes the callback of a single event leaving the heap and frees its slot.
  Callback take(std::uint32_t slot);
  void free_run(std::uint32_t run);
  /// Advances the clock to (t, seq) and folds it into the fingerprint.
  void step(TimePoint t, std::uint64_t seq);
  /// Executes the earliest copy of the run at the heap top.
  void run_head_copy();
  /// Executes the pending run copy `seq` out of order; false if none.
  bool run_copy(std::uint64_t seq);

  void push(Entry e);
  void pop_top();
  void sift_down(std::size_t i);
  /// Restores the heap after an arbitrary edit (run_task only).
  void reheap();

  // Binary min-heap on (t, seq) with hand-written sifts, so a run's entry can
  // be re-keyed in place. A plain vector so frontier() can enumerate and
  // run_task() can extract arbitrary entries.
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Run> runs_;
  std::vector<std::uint32_t> free_runs_;
  RunSink sink_;
  std::size_t pending_ = 0;
  TimePoint now_ = TimePoint::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t fingerprint_ = kFnv1aOffsetBasis;
};

}  // namespace moonshot::sim
