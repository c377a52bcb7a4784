// Per-node ring-buffered trace collector.
//
// A Tracer owns one fixed-capacity ring per replica plus one environment
// ring. record() is the hot path: one clock read, one slot write — no
// allocation, no locks (the simulator is single-threaded). There is no
// runtime off switch: an untraced run passes a null Tracer* to every hook. When a ring
// fills, the oldest events are overwritten and counted as dropped; the
// running digest still covers every event ever recorded, so two runs of the
// same seeded simulation produce identical digests even after wrap.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/event.hpp"
#include "sim/scheduler.hpp"
#include "support/fnv.hpp"

namespace moonshot::obs {

/// Fixed-capacity overwrite-oldest event ring.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity) : events_(capacity) {}

  void push(const Event& e) {
    events_[next_ % events_.size()] = e;
    ++next_;
  }

  std::size_t capacity() const { return events_.size(); }
  std::size_t size() const { return next_ < events_.size() ? next_ : events_.size(); }
  std::uint64_t recorded() const { return next_; }
  std::uint64_t dropped() const {
    return next_ > events_.size() ? next_ - events_.size() : 0;
  }

  /// Oldest-to-newest copy of the retained window.
  std::vector<Event> snapshot() const;

 private:
  std::vector<Event> events_;
  std::uint64_t next_ = 0;  // total pushes; next_ % capacity = write slot
};

/// Per-message-type tallies, maintained inline by record() for the kMsgSent /
/// kMsgDelivered / kMsgDropped events so benches read them without a trace
/// replay pass.
struct MessageCounter {
  std::uint64_t sent = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

struct TracerConfig {
  /// Events retained per ring (per node, and one environment ring).
  std::size_t ring_capacity = 1 << 16;
};

class Tracer {
 public:
  /// `nodes` replica rings are created, plus one environment ring.
  explicit Tracer(std::size_t nodes, TracerConfig cfg = {});

  /// The simulated clock events are stamped with. Must be set before the
  /// first record(); the Experiment wires its own scheduler in.
  void set_clock(const sim::Scheduler* clock) { clock_ = clock; }

  /// Hot path. Events from `node` go to its ring; kNoNode to the
  /// environment ring.
  void record(NodeId node, EventKind kind, View view, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint64_t c = 0) {
    Event e;
    e.t = clock_ ? clock_->now() : TimePoint::zero();
    e.seq = next_seq_++;
    e.view = view;
    e.a = a;
    e.b = b;
    e.c = c;
    e.node = node;
    e.kind = kind;
    ring_for(node).push(e);
    fold_event(e);
    if (kind == EventKind::kMsgSent) {
      auto& ctr = counters_[a % kMessageTypeCount];
      ctr.sent++;
      ctr.sent_bytes += b;
    } else if (kind == EventKind::kMsgDelivered) {
      counters_[a % kMessageTypeCount].delivered++;
    } else if (kind == EventKind::kMsgDropped) {
      counters_[a % kMessageTypeCount].dropped++;
    }
  }

  std::size_t node_count() const { return rings_.size() - 1; }
  const EventRing& ring(NodeId node) const { return rings_.at(node); }
  const EventRing& env_ring() const { return rings_.back(); }

  /// All retained events across every ring, ordered by (time, seq).
  std::vector<Event> merged() const;

  /// Order-sensitive FNV-1a digest over every event ever recorded (including
  /// ones the rings have since overwritten). Deterministic: two runs of the
  /// same seeded simulation yield the same digest.
  std::uint64_t digest() const { return digest_; }

  /// Commutative-across-nodes combination of per-replica digests, each
  /// covering that node's event *content and local order* but neither
  /// timestamps nor the global sequence: two executions in which every node
  /// observed the same events in the same order — at different absolute
  /// times, interleaved differently with other nodes — fold to the same
  /// value. The model checker (src/mc/) uses it as the state key for
  /// cross-interleaving deduplication. The environment ring is excluded (it
  /// records scheduler noise).
  std::uint64_t state_digest() const {
    std::uint64_t acc = kFnv1aOffsetBasis;
    for (std::size_t i = 0; i < node_digests_.size(); ++i) {
      acc ^= node_digests_[i] * (2 * i + 0x9e3779b97f4a7c15ull);
    }
    return acc;
  }

  std::uint64_t total_recorded() const { return total_recorded_; }
  std::uint64_t total_dropped() const;

  const MessageCounter& message_counter(std::size_t type) const {
    return counters_.at(type);
  }

 private:
  EventRing& ring_for(NodeId node) {
    const std::size_t i = node == kNoNode ? rings_.size() - 1 : node;
    return i < rings_.size() ? rings_[i] : rings_.back();
  }
  void fold_event(const Event& e) {
    fnv1a_fold(digest_, static_cast<std::uint64_t>(e.t.ns));
    fnv1a_fold(digest_,
               (static_cast<std::uint64_t>(e.node) << 8) | static_cast<std::uint64_t>(e.kind));
    fnv1a_fold(digest_, e.view);
    fnv1a_fold(digest_, e.a);
    fnv1a_fold(digest_, e.b);
    fnv1a_fold(digest_, e.c);
    ++total_recorded_;
    if (e.node < node_digests_.size()) {
      std::uint64_t& nd = node_digests_[e.node];
      fnv1a_fold(nd, static_cast<std::uint64_t>(e.kind));
      fnv1a_fold(nd, e.view);
      fnv1a_fold(nd, e.a);
      fnv1a_fold(nd, e.b);
      fnv1a_fold(nd, e.c);
    }
  }

  std::vector<EventRing> rings_;  // [0..n-1] replicas, [n] environment
  std::vector<std::uint64_t> node_digests_;  // per-replica, time-independent
  std::vector<MessageCounter> counters_ = std::vector<MessageCounter>(kMessageTypeCount);
  const sim::Scheduler* clock_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t digest_ = kFnv1aOffsetBasis;
  std::uint64_t total_recorded_ = 0;
};

/// 64-bit prefix of a content-derived id (block ids etc.) for event args.
template <typename Id>
std::uint64_t id_prefix(const Id& id) {
  std::uint64_t v = 0;
  std::size_t i = 0;
  for (const auto byte : id) {
    v = (v << 8) | static_cast<std::uint8_t>(byte);
    if (++i == 8) break;
  }
  return v;
}

}  // namespace moonshot::obs
