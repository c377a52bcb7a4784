// Causal span graph over the per-view lifecycle index (lifecycle.hpp).
//
// Draws, per view, the block lifecycle as a tree of spans —
//
//   lifecycle v                      (root: earliest stamp → latest stamp)
//   ├─ propose (leader)              (instant: the *_proposal_sent)
//   │  └─ deliver → node i           (proposal flight, one per receiver)
//   │     └─ vote (node i)           (receive → vote_cast)
//   ├─ aggregate (node j)            (first vote_recv → qc_formed)
//   ├─ commit (node j)               (qc_formed → commit)
//   └─ timeout (node i)              (instant: timer expiry / retransmit)
//
// — plus happens-before edges that cross the tree: every vote that arrived
// in time feeds each node's aggregate span, and the 2-chain commit trigger
// links the aggregate of the certifying view to the commit span of its
// parent. The graph backs the DOT export (trace_tool critpath --dot) and the
// flight recorder's last-N span dump. It holds nothing the index does not:
// the critical-path walk and the timeline's span lanes read the index
// directly. A view whose only stamps are vote receipts gets no root.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

#include "obs/lifecycle.hpp"

namespace moonshot::obs {

enum class SpanKind : std::uint8_t {
  kLifecycle,  // whole block lifecycle for one view
  kPropose,    // leader's proposal multicast (instant)
  kDeliver,    // proposal flight leader → peer
  kVote,       // peer receives proposal → casts vote
  kAggregate,  // first vote received → certificate formed
  kCommit,     // certificate held → block committed
  kTimeout,    // view timer expiry (detail: 1 = retransmission)
};

const char* span_kind_name(SpanKind k);

constexpr std::int32_t kNoSpan = -1;

struct Span {
  std::int32_t id = kNoSpan;
  std::int32_t parent = kNoSpan;  // tree parent (kNoSpan for lifecycle roots)
  View view = 0;
  NodeId node = kNoNode;  // acting replica (leader for propose/lifecycle)
  NodeId peer = kNoNode;  // other endpoint (deliver target, vote's voter…)
  SpanKind kind = SpanKind::kLifecycle;
  TimePoint start{};
  TimePoint end{};
  std::uint64_t detail = 0;  // height / vote kind / retransmit flag per kind

  Duration duration() const { return end - start; }
};

/// Cross-tree happens-before edge (vote → aggregate, aggregate → commit).
struct SpanEdge {
  std::int32_t from = kNoSpan;
  std::int32_t to = kNoSpan;
};

struct SpanGraph {
  std::vector<Span> spans;     // topological by (view, tree order)
  std::vector<SpanEdge> edges;
  std::vector<std::int32_t> roots;  // lifecycle span per view, view order
};

SpanGraph build_span_graph(const LifecycleIndex& index);

/// Graphviz export: one cluster per view, tree edges solid, cross-tree
/// happens-before edges dashed.
void write_span_dot(const SpanGraph& g, std::FILE* out);

}  // namespace moonshot::obs
