// The simulated network: transport interface + WAN model.
//
// Model (per DESIGN.md):
//  * Propagation: one-way latency from the region latency matrix, with
//    seeded multiplicative jitter.
//  * Bandwidth: each node has one NIC; outgoing messages serialize through
//    an egress FIFO at `bandwidth_bps`, incoming through an ingress FIFO
//    that also accounts a per-message processing cost (NIC + CPU treated as
//    a single receive pipeline). This is what makes O(n²) vote multicasting
//    and multi-megabyte proposals cost what they cost in the paper's WAN.
//  * Partial synchrony: before GST an adversary may additionally delay
//    honest messages, but every message sent before GST is delivered by
//    GST + Δ (Dwork et al.); after GST only the natural model applies.
//  * Faults: crashed nodes can be silenced (drop egress+ingress); an ordered
//    chain of composable link faults (net/fault.hpp) injects partitions,
//    per-link drops, duplication and delay spikes — the substrate the chaos
//    engine (src/chaos/) drives.
//
// Delivery path: a send computes every copy's arrival time up front (fault
// duplicates included) and hands them to the scheduler as one run
// (sim::Scheduler::schedule_run). The message itself waits in a free-listed
// in-flight table, one entry and one shared_ptr per send, not per copy; the
// run carries the entry's index, and the scheduler calls the network's run
// sink with it for each copy. The entry is freed with the last copy.
// Self-delivery stays an ordinary scheduler callback.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/fault.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "support/prng.hpp"
#include "types/messages.hpp"

namespace moonshot::obs {
class Registry;
}

namespace moonshot::net {

/// Transport interface the consensus layer sends through.
class INetwork {
 public:
  virtual ~INetwork() = default;
  /// Sends to every node, including the sender itself (self-delivery is
  /// immediate and free — a node always counts its own votes).
  virtual void multicast(NodeId from, MessagePtr m) = 0;
  virtual void unicast(NodeId from, NodeId to, MessagePtr m) = 0;
};

struct NetworkConfig {
  /// One-way propagation latencies between regions.
  LatencyMatrix matrix = LatencyMatrix::aws5();
  std::size_t regions_used = 5;  // nodes assigned evenly across these
  /// Multiplicative jitter: latency *= 1 + U(-jitter, +jitter).
  double jitter = 0.05;
  /// NIC rate, bits per second (paper: up to 10 Gbps on m5.large).
  double bandwidth_bps = 10e9;
  /// Per-stream TCP window: on a WAN link the sustained rate of one TCP
  /// connection is window/RTT, far below the NIC rate (e.g. 2 MB over a
  /// 200 ms RTT is ~80 Mbit/s). Governs how long large proposals take per
  /// link, independent of NIC contention. 0 disables the model.
  std::uint64_t tcp_window_bytes = 2 * 1024 * 1024;
  /// Fixed per-message receive-pipeline cost (syscall + parse + dispatch).
  Duration proc_base = microseconds(5);
  /// Extra receive cost per signature-bearing small message (vote/timeout).
  Duration proc_sig = microseconds(25);
  /// Extra receive cost for certificate-bearing messages (QC/TC/proposals) —
  /// amortized batch verification of a quorum of signatures.
  Duration proc_cert = microseconds(150);
  /// Receive cost per KiB of payload (hashing / copying).
  Duration proc_per_kb = microseconds(3);

  /// Reorder stress: adds U(0, reorder_extra) to every delivery, breaking
  /// per-link FIFO ordering (TCP would preserve it; this models the worst
  /// reordering partial synchrony allows — keep it < Δ − max latency when
  /// liveness bounds matter). 0 disables.
  Duration reorder_extra = Duration(0);

  /// Global Stabilization Time. 0 = network is synchronous from the start.
  TimePoint gst = TimePoint::zero();
  /// Before GST, the adversary delays delivery to a uniform point in
  /// [natural_delivery, gst + delta]. (Delivery by GST + Δ is guaranteed.)
  Duration delta = milliseconds(500);
  /// If false, pre-GST messages use only the natural model (no adversary).
  bool adversarial_before_gst = true;

  std::uint64_t seed = 1;
};

/// Statistics for communication-complexity analysis.
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;  // extra copies injected by faults
};

class SimNetwork final : public INetwork {
 public:
  /// `deliver` is invoked (via the scheduler) when a message reaches `to`.
  using DeliverFn = std::function<void(NodeId to, NodeId from, const MessagePtr&)>;

  /// Registers this network as `sched`'s run sink; a scheduler serves one
  /// SimNetwork at a time.
  SimNetwork(sim::Scheduler& sched, std::size_t n, NetworkConfig cfg, DeliverFn deliver);
  ~SimNetwork() override;
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  void multicast(NodeId from, MessagePtr m) override;
  void unicast(NodeId from, NodeId to, MessagePtr m) override;

  /// Crashed/Byzantine-silent nodes: all their traffic (both directions) is
  /// dropped from `when` on. unsilence() restores connectivity (crash
  /// recovery).
  void silence(NodeId node) { silenced_.at(node) = true; }
  void unsilence(NodeId node) { silenced_.at(node) = false; }

  /// The composable link-fault chain (partitions, drops, duplication, delay
  /// spikes). Faults added here apply to every subsequent point-to-point
  /// copy until removed.
  FaultChain& faults() { return faults_; }
  const FaultChain& faults() const { return faults_; }

  /// Optional tap observing every send (multicast counted once), for trace
  /// analysis such as the conformance checker.
  using Tap = std::function<void(NodeId from, const Message&)>;
  void set_tap(Tap t) { tap_ = std::move(t); }

  /// Optional structured tracer: sends (multicast counted once), per-copy
  /// deliveries and drops are recorded with the wire type index and size.
  void set_tracer(obs::Tracer* t) { tracer_ = t; }

  const NetworkStats& stats() const { return stats_; }

  /// Mirrors the network statistics into a metrics registry as
  /// `net_*_total{protocol=...}` counters (see obs/registry.hpp).
  void export_metrics(obs::Registry& reg, const std::string& protocol) const;
  const RegionAssignment& regions() const { return regions_; }
  const NetworkConfig& config() const { return cfg_; }

 private:
  /// A sent message waiting for its copies to arrive.
  struct InFlight {
    MessagePtr msg;
    std::uint64_t wire = 0;
    std::uint32_t copies_left = 0;
  };

  void send_one(NodeId from, NodeId to, const Message& m, std::uint64_t wire_size,
                TimePoint egress_done, Duration rx);
  void add_copy(NodeId from, NodeId to, const Message& m, std::uint64_t wire_size,
                TimePoint egress_done, Duration extra_delay, Duration rx);
  /// Schedules the copies gathered in run_ as one run holding `m`.
  void schedule_run(MessagePtr m, std::uint64_t wire_size);
  /// The run sink: delivers one copy of in-flight entry `ref`.
  void deliver_copy(const sim::EventTag& tag, std::uint32_t ref);
  /// Self-delivery: immediate and free, through an ordinary callback.
  void schedule_self(NodeId node, const MessagePtr& m);
  Duration serialization(std::uint64_t wire_size) const;
  Duration proc_cost(const Message& m, std::uint64_t wire_size) const;

  sim::Scheduler& sched_;
  NetworkConfig cfg_;
  RegionAssignment regions_;
  DeliverFn deliver_;
  Prng prng_;
  std::vector<TimePoint> egress_free_;   // per-node NIC egress availability
  std::vector<TimePoint> ingress_free_;  // per-node receive-pipeline availability
  std::vector<bool> silenced_;
  FaultChain faults_;
  Tap tap_;
  obs::Tracer* tracer_ = nullptr;
  NetworkStats stats_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;
  std::vector<sim::RunCopy> run_;  // the copies of the send being built
};

}  // namespace moonshot::net
