#include "obs/critpath.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <tuple>

#include "types/vote.hpp"

namespace moonshot::obs {

namespace {

struct Cursor {
  enum Type : std::uint8_t { kAtQc, kAtVote } type = kAtQc;
  NodeId node = kNoNode;
  View view = 0;
  TimePoint t{};
  std::uint64_t kind = 0;  // QC vote kind / vote kind
};

class Walker {
 public:
  Walker(const LifecycleIndex& ix, View v, TimePoint floor)
      : ix_(ix), view_(v), floor_(floor) {}

  // Runs the backward walk from the commit stamp; fills `path`.
  void run(NodeId observer, TimePoint committed, BlockPath& path) {
    touched_views_.insert(view_);
    // 1. The triggering certificate: latest QC the observer held at commit
    //    time, in this view or one of the few chained successors.
    const QcStamp* trigger = nullptr;
    View trigger_view = view_;
    NodeId o = observer;
    for (View u = view_; u <= view_ + 4; ++u) {
      const NodeStamps* n = ix_.at(u, o);
      if (n == nullptr) continue;
      for (const QcStamp& q : n->qcs) {
        if (q.t > committed) continue;
        if (trigger == nullptr || q.t > trigger->t ||
            (q.t == trigger->t && u > trigger_view)) {
          trigger = &q;
          trigger_view = u;
        }
      }
    }
    if (trigger == nullptr) {
      unattributed(committed);
      finish(path);
      return;
    }
    push(SegmentKind::kCommitRule, trigger_view, o, o, trigger->t, committed);
    Cursor c{Cursor::kAtQc, o, trigger_view, trigger->t, trigger->kind};

    std::set<std::tuple<int, NodeId, View, std::uint64_t>> visited;
    for (int step = 0; step < 64; ++step) {
      if (c.t <= floor_) {
        reached_floor_ = true;
        break;
      }
      if (!visited.insert({c.type, c.node, c.view, c.kind}).second) {
        unattributed(c.t);
        break;
      }
      touched_views_.insert(c.view);
      const bool advanced =
          c.type == Cursor::kAtQc ? step_qc(c) : step_vote(c);
      if (!advanced) break;
    }
    if (!reached_floor_ && !used_unattributed_ && !backward_.empty() &&
        backward_.back().start > floor_) {
      unattributed(backward_.back().start);
    }
    finish(path);
  }

 private:
  void push(SegmentKind kind, View u, NodeId from, NodeId to, TimePoint start,
            TimePoint end) {
    // The measured interval starts at the proposal; clamp anything the walk
    // finds before it (e.g. a previous view's certificate) so the segment
    // durations keep telescoping to exactly λ.
    start = std::max(start, floor_);
    end = std::max(end, floor_);
    if (start >= end) return;  // zero-length steps keep endpoints contiguous
    Segment s;
    s.kind = kind;
    s.view = u;
    s.from = from;
    s.to = to;
    s.start = start;
    s.end = end;
    backward_.push_back(s);
  }

  void unattributed(TimePoint upto) {
    push(SegmentKind::kUnattributed, view_, kNoNode, kNoNode, floor_, upto);
    used_unattributed_ = true;
    reached_floor_ = true;
  }

  // Explains a certificate for c.view formed at c.node at c.t. Returns false
  // when the walk must stop. A cursor only ever lands on a stamp the index
  // holds, so its (view, node) entry exists.
  bool step_qc(Cursor& c) {
    const NodeStamps* n = ix_.at(c.view, c.node);
    // The critical vote: the last vote of the QC's kind the aggregator saw
    // at the instant the certificate formed (certificates assemble inside
    // the same handler invocation, so exact-time matching is reliable; the
    // lenient fallback absorbs any aggregation tail into the flight).
    const VoteRecvStamp* crit = nullptr;
    for (const VoteRecvStamp& r : n->vote_recvs) {
      if (r.t != c.t || r.kind != c.kind) continue;
      if (crit == nullptr || r.t >= crit->t) crit = &r;
    }
    if (crit == nullptr) {
      for (const VoteRecvStamp& r : n->vote_recvs) {
        if (r.t > c.t) continue;
        if (crit == nullptr || r.t > crit->t) crit = &r;
      }
    }
    if (crit == nullptr) {
      // No votes seen here: the certificate arrived pre-assembled. Chase the
      // earliest formation site.
      const QcStamp* origin = nullptr;
      NodeId origin_node = kNoNode;
      for (NodeId r = 0; r < static_cast<NodeId>(ix_.nodes); ++r) {
        const NodeStamps* m = ix_.at(c.view, r);
        if (m == nullptr) continue;
        for (const QcStamp& q : m->qcs) {
          if (q.t >= c.t) continue;
          if (origin == nullptr || q.t < origin->t) {
            origin = &q;
            origin_node = r;
          }
        }
      }
      if (origin == nullptr) {
        unattributed(c.t);
        return false;
      }
      push(SegmentKind::kCertRelay, c.view, origin_node, c.node, origin->t,
           c.t);
      c = Cursor{Cursor::kAtQc, origin_node, c.view, origin->t, origin->kind};
      return true;
    }
    const NodeStamps* voter = ix_.at(c.view, crit->voter);
    const std::size_t k = crit->kind < kVoteKinds ? crit->kind : 0;
    if (voter == nullptr || !voter->vote_cast[k] ||
        *voter->vote_cast[k] > crit->t) {
      unattributed(c.t);
      return false;
    }
    const TimePoint cast = *voter->vote_cast[k];
    push(SegmentKind::kVoteFlight, c.view, crit->voter, c.node, cast, c.t);
    c = Cursor{Cursor::kAtVote, crit->voter, c.view, cast, crit->kind};
    return true;
  }

  // Explains a vote cast by c.node in c.view at c.t.
  bool step_vote(Cursor& c) {
    const NodeStamps* n = ix_.at(c.view, c.node);
    if (c.kind == static_cast<std::uint64_t>(VoteKind::kCommit)) {
      // Commit votes are sent upon certifying the view's block.
      if (const QcStamp* q = latest_qc(*n, c.t, /*skip_commit=*/true)) {
        push(SegmentKind::kCertWait, c.view, c.node, c.node, q->t, c.t);
        c = Cursor{Cursor::kAtQc, c.node, c.view, q->t, q->kind};
        return true;
      }
    }
    const bool has_recv = n->prop_recv && *n->prop_recv <= c.t;
    const NodeStamps* prev = ix_.at(c.view - 1, c.node);
    const QcStamp* prev_qc =
        prev != nullptr ? latest_qc(*prev, c.t, false) : nullptr;
    // The binding constraint is whichever enabler landed *last*.
    if (has_recv &&
        (prev_qc == nullptr || *n->prop_recv >= prev_qc->t)) {
      push(SegmentKind::kVoteGate, c.view, c.node, c.node, *n->prop_recv, c.t);
      return explain_proposal_arrival(c);
    }
    if (prev_qc != nullptr) {
      push(SegmentKind::kCertWait, c.view, c.node, c.node, prev_qc->t, c.t);
      c = Cursor{Cursor::kAtQc, c.node, c.view - 1, prev_qc->t, prev_qc->kind};
      return true;
    }
    unattributed(c.t);
    return false;
  }

  // From the proposal's arrival at c.node back through the flight and — for
  // pipelined views — the optimistic-proposal handoff.
  bool explain_proposal_arrival(Cursor& c) {
    const TimePoint recv = *ix_.at(c.view, c.node)->prop_recv;
    const ViewStamps* g = ix_.view(c.view);
    if (!g->proposed || *g->proposed > recv) {
      unattributed(recv);
      return false;
    }
    const TimePoint proposed = *g->proposed;
    SegmentKind flight = SegmentKind::kProposeFlight;
    if (const NodeStamps* leader = ix_.at(c.view, g->leader)) {
      for (const TimeoutStamp& to : leader->timeouts) {
        if (to.retransmit && to.t > proposed && to.t <= recv) {
          flight = SegmentKind::kRetransmitStall;
          break;
        }
      }
    }
    push(flight, c.view, g->leader, c.node, proposed, recv);
    if (c.view <= view_ || proposed <= floor_) {
      reached_floor_ = true;
      return false;
    }
    // Why did the leader propose then? Optimistic handoff: it proposed for
    // view u upon casting its vote in u−1.
    if (const NodeStamps* lp = ix_.at(c.view - 1, g->leader)) {
      const TimePoint* cast = nullptr;
      std::uint64_t cast_kind = 0;
      for (std::size_t k = 0; k < kVoteKinds; ++k) {
        if (!lp->vote_cast[k] || *lp->vote_cast[k] > proposed) continue;
        if (cast == nullptr || *lp->vote_cast[k] > *cast) {
          cast = &*lp->vote_cast[k];
          cast_kind = k;
        }
      }
      if (cast != nullptr) {
        push(SegmentKind::kProposeGate, c.view, g->leader, g->leader, *cast,
             proposed);
        c = Cursor{Cursor::kAtVote, g->leader, c.view - 1, *cast, cast_kind};
        return true;
      }
      if (const QcStamp* q = latest_qc(*lp, proposed, false)) {
        push(SegmentKind::kCertWait, c.view, g->leader, g->leader, q->t,
             proposed);
        c = Cursor{Cursor::kAtQc, g->leader, c.view - 1, q->t, q->kind};
        return true;
      }
    }
    unattributed(proposed);
    return false;
  }

  static const QcStamp* latest_qc(const NodeStamps& n, TimePoint upto,
                                  bool skip_commit) {
    const QcStamp* best = nullptr;
    for (const QcStamp& q : n.qcs) {
      if (q.t > upto) continue;
      if (skip_commit &&
          q.kind == static_cast<std::uint64_t>(VoteKind::kCommit))
        continue;
      if (best == nullptr || q.t > best->t) best = &q;
    }
    return best;
  }

  void finish(BlockPath& path) {
    path.segments.assign(backward_.rbegin(), backward_.rend());
    path.complete = reached_floor_ && !used_unattributed_;
    for (View u : touched_views_) {
      const ViewStamps* g = ix_.view(u);
      if (g != nullptr && g->any_timeout()) path.timeout_on_path = true;
    }
    for (const Segment& s : path.segments) {
      if (s.kind == SegmentKind::kRetransmitStall) path.timeout_on_path = true;
    }
  }

  const LifecycleIndex& ix_;
  View view_;
  TimePoint floor_;
  std::vector<Segment> backward_;
  std::set<View> touched_views_;
  bool reached_floor_ = false;
  bool used_unattributed_ = false;
};

}  // namespace

const char* segment_kind_name(SegmentKind k) {
  switch (k) {
    case SegmentKind::kProposeFlight: return "propose_flight";
    case SegmentKind::kRetransmitStall: return "retransmit_stall";
    case SegmentKind::kVoteGate: return "vote_gate";
    case SegmentKind::kVoteFlight: return "vote_flight";
    case SegmentKind::kCertRelay: return "cert_relay";
    case SegmentKind::kCertWait: return "cert_wait";
    case SegmentKind::kProposeGate: return "propose_gate";
    case SegmentKind::kCommitRule: return "commit_rule";
    case SegmentKind::kUnattributed: return "unattributed";
  }
  return "?";
}

Duration BlockPath::attributed() const {
  Duration sum{};
  for (const Segment& s : segments) sum += s.duration();
  return sum;
}

CritPathReport analyze_critical_path(const LifecycleIndex& ix,
                                     NodeId observer) {
  CritPathReport report;
  report.observer = observer;

  const ViewStamps* prev = nullptr;
  View prev_view = 0;
  for (const auto& [view, g] : ix.views) {
    if (!g.proposed) continue;
    if (prev != nullptr && view == prev_view + 1)
      report.period.record(*g.proposed - *prev->proposed);
    prev = &g;
    prev_view = view;
  }

  for (const auto& [view, g] : ix.views) {
    const NodeStamps* o = ix.at(view, observer);
    if (o == nullptr || !o->commit || !g.proposed || *g.proposed > *o->commit)
      continue;
    BlockPath path;
    path.view = view;
    path.height = g.height;
    path.proposed = *g.proposed;
    path.committed = *o->commit;
    Walker walker(ix, view, path.proposed);
    walker.run(observer, path.committed, path);
    if (path.complete) report.latency.record(path.latency());
    for (const Segment& s : path.segments) {
      report.by_kind[static_cast<std::size_t>(s.kind)].record(s.duration());
    }
    report.blocks.push_back(std::move(path));
  }
  return report;
}

LatencyBound paper_bound(const std::string& protocol_tag) {
  std::string tag;
  for (char c : protocol_tag)
    tag += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (tag == "cm") return {2.0, 1.0};
  if (tag == "j" || tag == "jolteon") return {5.0, 0.0};
  if (tag == "hs" || tag == "hotstuff") return {7.0, 0.0};
  return {3.0, 0.0};  // sm, pm, default
}

std::vector<BoundViolation> check_bounds(const CritPathReport& report,
                                         const LatencyBound& bound,
                                         Duration delta, Duration omega,
                                         double tolerance, Duration slack) {
  std::vector<BoundViolation> out;
  const double bound_ns = bound.delta_mult * static_cast<double>(delta.count()) +
                          bound.omega_mult * static_cast<double>(omega.count());
  const double allowed_ns = bound_ns * (1.0 + tolerance) +
                            static_cast<double>(slack.count());
  for (const BlockPath& p : report.blocks) {
    if (!p.complete) continue;
    const double measured = static_cast<double>(p.latency().count());
    if (measured <= allowed_ns) continue;
    BoundViolation v;
    v.view = p.view;
    v.measured = p.latency();
    v.bound = Duration(static_cast<std::int64_t>(bound_ns));
    v.over = Duration(static_cast<std::int64_t>(measured - allowed_ns));
    out.push_back(v);
  }
  return out;
}

namespace {

void print_header(const CritPathReport& report, const char* title,
                  std::FILE* out) {
  std::size_t complete = 0;
  for (const BlockPath& p : report.blocks)
    if (p.complete) complete++;
  std::fprintf(out,
               "--- %s (observer: node %u, %zu committed blocks, "
               "%zu fully attributed) ---\n",
               title, report.observer, report.blocks.size(), complete);
}

void print_segment_aggregates(const CritPathReport& report, Duration delta,
                              std::FILE* out) {
  std::fprintf(out, "  --- segment aggregates (nonzero only) ---\n");
  double total_ns = 0.0;
  for (std::size_t k = 0; k < kSegmentKindCount; ++k) {
    total_ns += report.by_kind[k].mean() *
                static_cast<double>(report.by_kind[k].count());
  }
  for (std::size_t k = 0; k < kSegmentKindCount; ++k) {
    const Histogram& h = report.by_kind[k];
    if (h.count() == 0) continue;
    std::fprintf(out, "  %-16s n=%-4llu mean %8.3fms  p99 %8.3fms",
                 segment_kind_name(static_cast<SegmentKind>(k)),
                 static_cast<unsigned long long>(h.count()), h.mean_ms(),
                 h.percentile_ms(0.99));
    if (delta.count() > 0)
      std::fprintf(out, "  = %5.2fd", h.mean_ms() / to_ms(delta));
    if (total_ns > 0.0)
      std::fprintf(out, "  share %5.1f%%",
                   100.0 * h.mean() * static_cast<double>(h.count()) / total_ns);
    std::fputc('\n', out);
  }
}

void print_stat_row(const char* label, const Histogram& h, Duration delta,
                    const char* paper, std::FILE* out) {
  if (h.count() == 0) {
    std::fprintf(out, "  %-16s %10s\n", label, "n/a");
    return;
  }
  std::fprintf(out, "  %-16s %9.3fms  p50 %9.3fms  p99 %9.3fms", label,
               h.mean_ms(), h.percentile_ms(0.5), h.percentile_ms(0.99));
  if (delta.count() > 0) {
    std::fprintf(out, "  = %5.2fd (paper: %s)", h.mean_ms() / to_ms(delta),
                 paper);
  }
  std::fputc('\n', out);
}

}  // namespace

void print_critpath(const CritPathReport& report, Duration delta,
                    std::FILE* out) {
  print_header(report, "critical path", out);
  std::fprintf(out, "  %5s %6s %10s %4s  %s\n", "view", "height", "latency",
               "flag", "critical-path segments");
  for (const BlockPath& p : report.blocks) {
    char flags[4] = "  ";
    if (!p.complete) flags[0] = '?';
    if (p.timeout_on_path) flags[1] = 'T';
    std::fprintf(out, "  %5llu %6llu %8.1fms  %3s ",
                 static_cast<unsigned long long>(p.view),
                 static_cast<unsigned long long>(p.height),
                 to_ms(p.latency()), flags);
    std::size_t printed = 0;
    for (const Segment& s : p.segments) {
      if (printed == 6) {
        std::fprintf(out, " | +%zu more", p.segments.size() - printed);
        break;
      }
      if (printed != 0) std::fprintf(out, " |");
      if (s.from != kNoNode && s.to != kNoNode && s.from != s.to) {
        std::fprintf(out, " %s v%llu %u\xe2\x86\x92%u %.1fms",
                     segment_kind_name(s.kind),
                     static_cast<unsigned long long>(s.view), s.from, s.to,
                     to_ms(s.duration()));
      } else {
        std::fprintf(out, " %s v%llu %.1fms", segment_kind_name(s.kind),
                     static_cast<unsigned long long>(s.view),
                     to_ms(s.duration()));
      }
      ++printed;
    }
    std::fputc('\n', out);
  }

  print_segment_aggregates(report, delta, out);

  // The slowest single link on any path: the network edge to watch.
  const Segment* slowest = nullptr;
  for (const BlockPath& p : report.blocks) {
    for (const Segment& s : p.segments) {
      if (s.kind != SegmentKind::kProposeFlight &&
          s.kind != SegmentKind::kVoteFlight &&
          s.kind != SegmentKind::kRetransmitStall)
        continue;
      if (slowest == nullptr || s.duration() > slowest->duration()) slowest = &s;
    }
  }
  if (slowest != nullptr) {
    std::fprintf(out,
                 "  slowest link: %s %u\xe2\x86\x92%u %.3fms (view %llu)\n",
                 segment_kind_name(slowest->kind), slowest->from, slowest->to,
                 to_ms(slowest->duration()),
                 static_cast<unsigned long long>(slowest->view));
  }
  if (report.latency.count() > 0) {
    std::fprintf(out, "  commit latency: mean %.3fms  p50 %.3fms  p99 %.3fms",
                 report.latency.mean_ms(), report.latency.percentile_ms(0.5),
                 report.latency.percentile_ms(0.99));
    if (delta.count() > 0)
      std::fprintf(out, "  = %.2fd mean", report.latency.mean_ms() / to_ms(delta));
    std::fputc('\n', out);
  }
}

void print_latency_summary(const CritPathReport& report,
                           const LatencyBound& bound, Duration delta,
                           std::FILE* out) {
  print_header(report, "latency summary", out);
  if (delta.count() > 0)
    std::fprintf(out, "  one-way delta: %.3f ms\n", to_ms(delta));
  char target[32];
  if (bound.omega_mult > 0.0)
    std::snprintf(target, sizeof target, "%gd+%gw", bound.delta_mult,
                  bound.omega_mult);
  else
    std::snprintf(target, sizeof target, "%gd", bound.delta_mult);
  print_stat_row("block period w", report.period, delta, "1d", out);
  print_stat_row("commit lat. l", report.latency, delta, target, out);
  print_segment_aggregates(report, delta, out);
}

void print_bound_check(const std::vector<BoundViolation>& violations,
                       const LatencyBound& bound, Duration delta,
                       Duration omega, std::size_t blocks_checked,
                       std::FILE* out) {
  const double bound_ms =
      bound.delta_mult * to_ms(delta) + bound.omega_mult * to_ms(omega);
  std::fprintf(out,
               "--- bound check: lambda <= %.1fd + %.1fw = %.1fms ---\n",
               bound.delta_mult, bound.omega_mult, bound_ms);
  for (const BoundViolation& v : violations) {
    std::fprintf(out, "  VIOLATION view %llu: %.3fms > bound %.3fms (+%.3fms over allowance)\n",
                 static_cast<unsigned long long>(v.view), to_ms(v.measured),
                 to_ms(v.bound), to_ms(v.over));
  }
  std::fprintf(out, "  %zu violation%s across %zu attributed blocks\n",
               violations.size(), violations.size() == 1 ? "" : "s",
               blocks_checked);
}

}  // namespace moonshot::obs
