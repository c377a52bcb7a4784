#include "obs/trace.hpp"

#include <algorithm>

namespace moonshot::obs {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kViewEnter: return "view_enter";
    case EventKind::kViewExit: return "view_exit";
    case EventKind::kOptProposalSent: return "opt_proposal_sent";
    case EventKind::kOptProposalRecv: return "opt_proposal_recv";
    case EventKind::kProposalSent: return "proposal_sent";
    case EventKind::kProposalRecv: return "proposal_recv";
    case EventKind::kFbProposalSent: return "fb_proposal_sent";
    case EventKind::kFbProposalRecv: return "fb_proposal_recv";
    case EventKind::kVoteCast: return "vote_cast";
    case EventKind::kVoteRecv: return "vote_recv";
    case EventKind::kQcFormed: return "qc_formed";
    case EventKind::kTcFormed: return "tc_formed";
    case EventKind::kLockUpdated: return "lock_updated";
    case EventKind::kCommit: return "commit";
    case EventKind::kTimeoutFired: return "timeout_fired";
    case EventKind::kTimeoutRetransmit: return "timeout_retransmit";
    case EventKind::kSyncRequest: return "sync_request";
    case EventKind::kSyncResponse: return "sync_response";
    case EventKind::kMsgSent: return "msg_sent";
    case EventKind::kMsgDelivered: return "msg_delivered";
    case EventKind::kMsgDropped: return "msg_dropped";
    case EventKind::kSchedQueue: return "sched_queue";
    case EventKind::kFaultInjected: return "fault_injected";
    case EventKind::kFaultHealed: return "fault_healed";
    case EventKind::kWalAppend: return "wal_append";
    case EventKind::kWalFsync: return "wal_fsync";
    case EventKind::kWalReplay: return "wal_replay";
    case EventKind::kWalTruncate: return "wal_truncate";
  }
  return "?";
}

const char* message_type_label(std::size_t index) {
  // Mirrors the Message variant order in types/messages.hpp.
  switch (index) {
    case 0: return "proposal";
    case 1: return "opt_proposal";
    case 2: return "fb_proposal";
    case 3: return "vote";
    case 4: return "timeout";
    case 5: return "cert";
    case 6: return "tc";
    case 7: return "status";
    case 8: return "block_request";
    case 9: return "block_response";
  }
  return "?";
}

std::vector<Event> EventRing::snapshot() const {
  std::vector<Event> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::size_t cap = events_.size();
  const std::uint64_t first = next_ > cap ? next_ - cap : 0;
  for (std::uint64_t i = first; i < next_; ++i) out.push_back(events_[i % cap]);
  return out;
}

Tracer::Tracer(std::size_t nodes, TracerConfig cfg) {
  rings_.reserve(nodes + 1);
  for (std::size_t i = 0; i < nodes + 1; ++i) rings_.emplace_back(cfg.ring_capacity);
  node_digests_.assign(nodes, kFnv1aOffsetBasis);
}

std::vector<Event> Tracer::merged() const {
  std::vector<Event> all;
  std::size_t total = 0;
  for (const EventRing& r : rings_) total += r.size();
  all.reserve(total);
  for (const EventRing& r : rings_) {
    const auto snap = r.snapshot();
    all.insert(all.end(), snap.begin(), snap.end());
  }
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  });
  return all;
}

std::uint64_t Tracer::total_dropped() const {
  std::uint64_t d = 0;
  for (const EventRing& r : rings_) d += r.dropped();
  return d;
}

}  // namespace moonshot::obs
