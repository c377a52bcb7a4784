#include "net/network.hpp"

#include <algorithm>

#include "obs/registry.hpp"

namespace moonshot::net {

// The obs layer mirrors the wire-type order of the Message variant so it can
// label counters without depending on types/messages.hpp internals. Catch a
// drifting variant at compile time.
static_assert(std::variant_size_v<Message> == obs::kMessageTypeCount,
              "obs::kMessageTypeCount / message_type_label() must mirror the Message variant");

SimNetwork::SimNetwork(sim::Scheduler& sched, std::size_t n, NetworkConfig cfg,
                       DeliverFn deliver)
    : sched_(sched),
      cfg_(std::move(cfg)),
      regions_(n, std::min(cfg_.regions_used, cfg_.matrix.regions())),
      deliver_(std::move(deliver)),
      prng_(cfg_.seed ^ 0x6e657477u),
      egress_free_(n, TimePoint::zero()),
      ingress_free_(n, TimePoint::zero()),
      silenced_(n, false) {
  sched_.set_run_sink(
      [this](const sim::EventTag& tag, std::uint32_t ref) { deliver_copy(tag, ref); });
}

SimNetwork::~SimNetwork() { sched_.set_run_sink(nullptr); }

Duration SimNetwork::serialization(std::uint64_t wire_size) const {
  return Duration(
      static_cast<std::int64_t>(static_cast<double>(wire_size) * 8.0 / cfg_.bandwidth_bps * 1e9));
}

Duration SimNetwork::proc_cost(const Message& m, std::uint64_t wire_size) const {
  Duration c = cfg_.proc_base;
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, VoteMsg>) {
          c = c + cfg_.proc_sig;
        } else if constexpr (std::is_same_v<T, TimeoutMsgWrap>) {
          c = c + cfg_.proc_sig + (msg.timeout.high_qc ? cfg_.proc_cert : Duration(0));
        } else if constexpr (std::is_same_v<T, ProposalMsg> || std::is_same_v<T, FbProposalMsg> ||
                             std::is_same_v<T, CertMsg> || std::is_same_v<T, TcMsg> ||
                             std::is_same_v<T, StatusMsg>) {
          c = c + cfg_.proc_cert;
        }
        // OptProposalMsg carries no certificate: base cost only.
        (void)msg;
      },
      m);
  c = c + Duration(static_cast<std::int64_t>(
          static_cast<double>(cfg_.proc_per_kb.count()) * (static_cast<double>(wire_size) / 1024.0)));
  return c;
}

void SimNetwork::schedule_self(NodeId node, const MessagePtr& m) {
  stats_.messages_sent++;
  sched_.schedule_at(sched_.now(), [this, node, m] { deliver_(node, node, m); });
}

void SimNetwork::multicast(NodeId from, MessagePtr m) {
  if (silenced_.at(from)) return;
  if (tap_) tap_(from, *m);
  const std::uint64_t wire = message_wire_size(*m);
  if (tracer_) {
    tracer_->record(from, obs::EventKind::kMsgSent, 0, m->index(), wire, kNoNode);
  }
  const std::size_t n = egress_free_.size();

  // Self-delivery first: immediate and free (local shortcut).
  schedule_self(from, m);

  // The NIC serializes the n-1 copies back-to-back.
  TimePoint egress = std::max(sched_.now(), egress_free_[from]);
  const Duration ser = serialization(wire);
  const Duration rx = ser + proc_cost(*m, wire);
  for (NodeId to = 0; to < n; ++to) {
    if (to == from) continue;
    egress = egress + ser;
    send_one(from, to, *m, wire, egress, rx);
  }
  egress_free_[from] = egress;
  schedule_run(std::move(m), wire);
}

void SimNetwork::unicast(NodeId from, NodeId to, MessagePtr m) {
  if (silenced_.at(from)) return;
  if (tap_) tap_(from, *m);
  const std::uint64_t wire = message_wire_size(*m);
  if (tracer_) {
    tracer_->record(from, obs::EventKind::kMsgSent, 0, m->index(), wire, to);
  }
  if (to == from) {
    schedule_self(from, m);
    return;
  }
  const Duration ser = serialization(wire);
  const TimePoint egress = std::max(sched_.now(), egress_free_[from]) + ser;
  egress_free_[from] = egress;
  send_one(from, to, *m, wire, egress, ser + proc_cost(*m, wire));
  schedule_run(std::move(m), wire);
}

void SimNetwork::send_one(NodeId from, NodeId to, const Message& m, std::uint64_t wire,
                          TimePoint egress_done, Duration rx) {
  stats_.messages_sent++;
  stats_.bytes_sent += wire;

  if (silenced_.at(to)) {
    stats_.messages_dropped++;
    if (tracer_) tracer_->record(to, obs::EventKind::kMsgDropped, 0, m.index(), wire, from);
    return;
  }

  FaultVerdict verdict;
  if (!faults_.empty()) verdict = faults_.apply(from, to, m, sched_.now());
  if (verdict.drop) {
    stats_.messages_dropped++;
    if (tracer_) tracer_->record(to, obs::EventKind::kMsgDropped, 0, m.index(), wire, from);
    return;
  }

  add_copy(from, to, m, wire, egress_done, verdict.extra_delay, rx);
  for (int dup = 0; dup < verdict.duplicates; ++dup) {
    stats_.messages_duplicated++;
    add_copy(from, to, m, wire, egress_done, verdict.extra_delay, rx);
  }
}

void SimNetwork::add_copy(NodeId from, NodeId to, const Message& m, std::uint64_t wire,
                          TimePoint egress_done, Duration extra_delay, Duration rx) {
  // Propagation with jitter.
  const Duration base =
      cfg_.matrix.one_way(regions_.region_of(from), regions_.region_of(to));
  const double j = 1.0 + cfg_.jitter * (2.0 * prng_.next_double() - 1.0);
  TimePoint arrival = egress_done + extra_delay +
      Duration(static_cast<std::int64_t>(static_cast<double>(base.count()) * j));

  // TCP windowing: a single stream sustains at most window/RTT, so a message
  // takes an extra size/(window/RTT) beyond propagation — negligible for
  // votes, dominant for multi-megabyte proposals on long-RTT links.
  if (cfg_.tcp_window_bytes > 0) {
    const double rtt_s = 2.0 * static_cast<double>(base.count()) / 1e9;
    if (rtt_s > 0) {
      const double stream_bps =
          std::min(cfg_.bandwidth_bps,
                   static_cast<double>(cfg_.tcp_window_bytes) * 8.0 / rtt_s);
      arrival = arrival + Duration(static_cast<std::int64_t>(
                              static_cast<double>(wire) * 8.0 / stream_bps * 1e9));
    }
  }

  // Reorder stress: per-message random extra delay (defeats per-link FIFO).
  if (cfg_.reorder_extra.count() > 0) {
    arrival = arrival + Duration(static_cast<std::int64_t>(
                            prng_.next_double() *
                            static_cast<double>(cfg_.reorder_extra.count())));
  }

  // Partial synchrony: the adversary may hold pre-GST messages, but must
  // deliver by GST + Δ.
  if (cfg_.adversarial_before_gst && sched_.now() < cfg_.gst) {
    const TimePoint bound = cfg_.gst + cfg_.delta;
    if (arrival < bound) {
      const std::int64_t span = (bound - arrival).count();
      arrival = arrival + Duration(static_cast<std::int64_t>(
                              prng_.next_double() * static_cast<double>(span)));
    }
  }

  // Receive pipeline: FIFO through the destination NIC + processing (`rx`,
  // the same for every copy of a send). We don't know the future ingress
  // state at `arrival`, so we approximate the FIFO by tracking the
  // pipeline's busy-until watermark.
  const TimePoint start = std::max(arrival, ingress_free_[to]);
  const TimePoint done = start + rx;
  ingress_free_[to] = done;

  // Tagged as a delivery choice point: the model checker (src/mc/) reorders
  // copies freely; normal runs execute them in (time, seq) order.
  run_.push_back(sim::RunCopy{
      done, sim::EventTag::delivery(to, from, static_cast<std::uint32_t>(m.index()))});
}

void SimNetwork::schedule_run(MessagePtr m, std::uint64_t wire) {
  if (run_.empty()) return;
  if (free_in_flight_.empty()) {
    free_in_flight_.push_back(static_cast<std::uint32_t>(in_flight_.size()));
    in_flight_.emplace_back();
  }
  const std::uint32_t ref = free_in_flight_.back();
  free_in_flight_.pop_back();
  in_flight_[ref] = InFlight{std::move(m), wire, static_cast<std::uint32_t>(run_.size())};
  sched_.schedule_run(run_, ref);
  run_.clear();
}

void SimNetwork::deliver_copy(const sim::EventTag& tag, std::uint32_t ref) {
  InFlight& f = in_flight_[ref];
  stats_.messages_delivered++;
  if (tracer_) {
    tracer_->record(tag.node, obs::EventKind::kMsgDelivered, 0, tag.type, f.wire, tag.peer);
  }
  // Delivering may send, which can grow in_flight_: hold the message locally.
  MessagePtr m;
  if (--f.copies_left == 0) {
    m = std::move(f.msg);
    free_in_flight_.push_back(ref);
  } else {
    m = f.msg;
  }
  deliver_(tag.node, tag.peer, m);
}

void SimNetwork::export_metrics(obs::Registry& reg,
                                const std::string& protocol) const {
  const obs::MetricLabels labels{{"protocol", protocol}};
  reg.counter("net_messages_sent_total", "Messages handed to the network",
              labels)
      .set(stats_.messages_sent);
  reg.counter("net_bytes_sent_total", "Wire bytes handed to the network",
              labels)
      .set(stats_.bytes_sent);
  reg.counter("net_messages_delivered_total", "Messages delivered", labels)
      .set(stats_.messages_delivered);
  reg.counter("net_messages_dropped_total",
              "Messages dropped by faults or partitions", labels)
      .set(stats_.messages_dropped);
  reg.counter("net_messages_duplicated_total",
              "Extra copies injected by duplication faults", labels)
      .set(stats_.messages_duplicated);
}

}  // namespace moonshot::net
