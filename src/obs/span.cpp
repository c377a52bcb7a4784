#include "obs/span.hpp"

#include <algorithm>

namespace moonshot::obs {

const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kLifecycle: return "lifecycle";
    case SpanKind::kPropose: return "propose";
    case SpanKind::kDeliver: return "deliver";
    case SpanKind::kVote: return "vote";
    case SpanKind::kAggregate: return "aggregate";
    case SpanKind::kCommit: return "commit";
    case SpanKind::kTimeout: return "timeout";
  }
  return "?";
}

SpanGraph build_span_graph(const LifecycleIndex& ix) {
  const std::size_t nodes = ix.nodes;
  SpanGraph g;
  auto add = [&g](Span s) -> std::int32_t {
    s.id = static_cast<std::int32_t>(g.spans.size());
    g.spans.push_back(s);
    return s.id;
  };

  // (node, aggregate span) pairs for cross-view 2-chain commit edges.
  std::vector<std::vector<std::int32_t>> aggregates_by_node(nodes);
  struct PendingCommit {
    std::int32_t span;
    NodeId node;
    View view;
  };
  std::vector<PendingCommit> commits;

  for (const auto& [view, s] : ix.views) {
    const auto extent = s.extent();
    if (!extent) continue;  // only vote receipts: nothing to draw
    Span root;
    root.view = view;
    root.node = s.leader;
    root.kind = SpanKind::kLifecycle;
    root.detail = s.height;
    root.start = extent->first;
    root.end = extent->second;
    const std::int32_t root_id = add(root);
    g.roots.push_back(root_id);

    std::int32_t propose_id = kNoSpan;
    if (s.proposed) {
      Span p;
      p.parent = root_id;
      p.view = view;
      p.node = s.leader;
      p.kind = SpanKind::kPropose;
      p.start = p.end = *s.proposed;
      p.detail = s.height;
      propose_id = add(p);
    }

    std::vector<std::int32_t> vote_ids(nodes, kNoSpan);
    for (NodeId i = 0; i < static_cast<NodeId>(nodes); ++i) {
      const NodeStamps& n = s.node[i];
      std::int32_t deliver_id = kNoSpan;
      if (n.prop_recv && s.proposed) {
        Span d;
        d.parent = propose_id;
        d.view = view;
        d.node = s.leader;
        d.peer = i;
        d.kind = SpanKind::kDeliver;
        d.start = *s.proposed;
        d.end = *n.prop_recv;
        deliver_id = add(d);
        g.edges.push_back({propose_id, deliver_id});
      }
      if (const auto& cast = n.first_vote_cast()) {
        Span v;
        v.parent = deliver_id != kNoSpan ? deliver_id : root_id;
        v.view = view;
        v.node = i;
        v.kind = SpanKind::kVote;
        v.start = n.prop_recv.value_or(*cast);
        v.end = *cast;
        v.detail = n.first_vote;
        vote_ids[i] = add(v);
        if (deliver_id != kNoSpan) g.edges.push_back({deliver_id, vote_ids[i]});
      }
      for (const TimeoutStamp& t : n.timeouts) {
        Span to;
        to.parent = root_id;
        to.view = view;
        to.node = i;
        to.kind = SpanKind::kTimeout;
        to.start = to.end = t.t;
        to.detail = t.retransmit ? 1 : 0;
        add(to);
      }
    }
    for (NodeId j = 0; j < static_cast<NodeId>(nodes); ++j) {
      const NodeStamps& n = s.node[j];
      std::int32_t agg_id = kNoSpan;
      if (!n.qcs.empty()) {
        const TimePoint qc = n.qcs.front().t;
        Span a;
        a.parent = root_id;
        a.view = view;
        a.node = j;
        a.kind = SpanKind::kAggregate;
        // Aggregation starts at the first vote receipt, but no earlier than
        // the view's root: under ring wrap or a crash that receipt can be
        // the oldest stamp left of the view, which the root does not span.
        a.start = n.vote_recvs.empty()
                      ? qc
                      : std::max(root.start, std::min(n.vote_recvs.front().t, qc));
        a.end = qc;
        agg_id = add(a);
        aggregates_by_node[j].push_back(agg_id);
        // Every vote cast before the certificate formed may have fed it.
        for (NodeId i = 0; i < static_cast<NodeId>(nodes); ++i) {
          if (vote_ids[i] != kNoSpan && *s.node[i].first_vote_cast() <= qc)
            g.edges.push_back({vote_ids[i], agg_id});
        }
      }
      if (n.commit) {
        Span c;
        c.parent = agg_id != kNoSpan ? agg_id : root_id;
        c.view = view;
        c.node = j;
        c.kind = SpanKind::kCommit;
        c.start = !n.qcs.empty() && n.qcs.front().t <= *n.commit
                      ? n.qcs.front().t
                      : *n.commit;
        c.end = *n.commit;
        commits.push_back({add(c), j, view});
      }
    }
  }

  // 2-chain trigger edges: the commit of view v at node j fires when a later
  // view's certificate forms at j — link the latest aggregate at j that ends
  // at or before the commit and belongs to view ≥ v.
  for (const PendingCommit& pc : commits) {
    const Span& c = g.spans[static_cast<std::size_t>(pc.span)];
    std::int32_t best = kNoSpan;
    for (std::int32_t agg : aggregates_by_node[pc.node]) {
      const Span& a = g.spans[static_cast<std::size_t>(agg)];
      if (a.view < pc.view || a.end > c.end) continue;
      if (best == kNoSpan ||
          a.end > g.spans[static_cast<std::size_t>(best)].end)
        best = agg;
    }
    if (best != kNoSpan) g.edges.push_back({best, pc.span});
  }
  return g;
}

void write_span_dot(const SpanGraph& g, std::FILE* out) {
  std::fprintf(out, "digraph spans {\n  rankdir=LR;\n  node [shape=box,fontsize=9];\n");
  // Spans come view by view, each view's lifecycle root first: a root opens
  // the view's cluster and is the origin of its offsets.
  TimePoint base{};
  for (const Span& s : g.spans) {
    if (s.kind == SpanKind::kLifecycle) {
      if (s.id != 0) std::fprintf(out, "  }\n");
      base = s.start;
      std::fprintf(out, "  subgraph cluster_v%llu {\n    label=\"view %llu\";\n",
                   static_cast<unsigned long long>(s.view),
                   static_cast<unsigned long long>(s.view));
    }
    const double off = to_ms(s.start - base);
    const double dur = to_ms(s.duration());
    char who[32];
    if (s.peer != kNoNode)
      std::snprintf(who, sizeof who, " %d\xe2\x86\x92%d", static_cast<int>(s.node),
                    static_cast<int>(s.peer));
    else if (s.node != kNoNode)
      std::snprintf(who, sizeof who, " n%d", static_cast<int>(s.node));
    else
      who[0] = '\0';
    std::fprintf(out,
                 "    s%d [label=\"%s%s\\n+%.1fms (%.1fms)\"];\n", s.id,
                 span_kind_name(s.kind), who, off, dur);
  }
  if (!g.spans.empty()) std::fprintf(out, "  }\n");
  for (const Span& s : g.spans) {
    if (s.parent != kNoSpan)
      std::fprintf(out, "  s%d -> s%d;\n", s.parent, s.id);
  }
  for (const SpanEdge& e : g.edges) {
    // Tree edges are already drawn solid; only cross-tree edges dashed.
    if (g.spans[static_cast<std::size_t>(e.to)].parent == e.from) continue;
    std::fprintf(out, "  s%d -> s%d [style=dashed,constraint=false];\n",
                 e.from, e.to);
  }
  std::fprintf(out, "}\n");
}

}  // namespace moonshot::obs
