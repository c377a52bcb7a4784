// Per-view block-lifecycle index over a merged trace.
//
// The one place that decides which trace events are lifecycle stamps: the
// proposal multicast (any of the three proposal kinds), and per replica the
// proposal receipt, votes cast and received, certificates, the commit and
// timer expiries/retransmissions. Message, WAL, view-entry and environment
// events are not stamps and never open a view. The index is built in one
// pass over Tracer::merged() output and is what every analysis reads: the
// critical-path walk (critpath.hpp), the span graph (span.hpp), the
// timeline's span lanes (export.hpp) and the flight recorder (flight.hpp).
// A stamp lost to ring wrap is simply absent; consumers treat gaps.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "obs/event.hpp"

namespace moonshot::obs {

/// Vote kinds the index tracks separately (types/vote.hpp VoteKind); an
/// out-of-range kind is folded into slot 0.
constexpr std::size_t kVoteKinds = 4;

struct VoteRecvStamp {
  TimePoint t{};
  std::uint64_t kind = 0;
  NodeId voter = kNoNode;
};

struct QcStamp {
  TimePoint t{};
  std::uint64_t kind = 0;  // vote kind the certificate aggregates
};

struct TimeoutStamp {
  TimePoint t{};
  bool retransmit = false;  // false: first expiry, true: retransmission
};

/// One replica's stamps in one view; every list is in trace order.
struct NodeStamps {
  std::optional<TimePoint> prop_recv;              // first proposal receipt
  std::optional<TimePoint> vote_cast[kVoteKinds];  // first cast per kind
  std::size_t first_vote = kVoteKinds;  // kind cast first; kVoteKinds = none
  std::vector<VoteRecvStamp> vote_recvs;
  std::vector<QcStamp> qcs;
  std::optional<TimePoint> commit;  // first commit
  std::vector<TimeoutStamp> timeouts;

  const std::optional<TimePoint>& first_vote_cast() const;
};

struct ViewStamps {
  std::optional<TimePoint> proposed;  // first proposal multicast
  NodeId leader = kNoNode;
  Height height = 0;
  std::vector<NodeStamps> node;  // one per replica

  /// Earliest and latest of the proposal, receipts, first vote casts, first
  /// certificates, commits and timeouts: the view's lifecycle extent. Empty
  /// when the view holds only vote receipts.
  std::optional<std::pair<TimePoint, TimePoint>> extent() const;
  bool any_timeout() const;
};

struct LifecycleIndex {
  std::size_t nodes = 0;
  std::map<View, ViewStamps> views;

  const ViewStamps* view(View v) const;
  /// Null for an unknown view or a replica id outside 0..nodes-1.
  const NodeStamps* at(View v, NodeId n) const;
};

/// One pass over merged() output; `nodes` bounds replica ids.
LifecycleIndex build_lifecycle_index(const std::vector<Event>& merged,
                                     std::size_t nodes);

}  // namespace moonshot::obs
