#include "obs/export.hpp"

#include <cinttypes>
#include <map>
#include <optional>

namespace moonshot::obs {

namespace {

void append_event_json(std::string& out, const Event& e) {
  char buf[256];
  const long long node = e.node == kNoNode ? -1 : static_cast<long long>(e.node);
  std::snprintf(buf, sizeof(buf),
                "{\"t\":%" PRId64 ",\"seq\":%" PRIu64 ",\"node\":%lld,\"kind\":\"%s\","
                "\"view\":%" PRIu64 ",\"a\":%" PRIu64 ",\"b\":%" PRIu64 ",\"c\":%" PRIu64 "}",
                e.t.ns, e.seq, node, event_kind_name(e.kind), e.view, e.a, e.b, e.c);
  out += buf;
}

}  // namespace

std::string to_jsonl(const std::vector<Event>& events) {
  std::string out;
  out.reserve(events.size() * 96);
  for (const Event& e : events) {
    append_event_json(out, e);
    out += '\n';
  }
  return out;
}

void write_chrome_trace(const std::vector<Event>& events, std::size_t nodes,
                        std::FILE* out) {
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputc(',', out);
    first = false;
    std::fputc('\n', out);
  };

  for (std::size_t pid = 0; pid <= nodes; ++pid) {
    sep();
    if (pid < nodes) {
      std::fprintf(out,
                   "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                   "\"args\":{\"name\":\"node %zu\"}}",
                   pid, pid);
    } else {
      std::fprintf(out,
                   "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                   "\"args\":{\"name\":\"environment\"}}",
                   pid);
    }
  }

  // View spans: a view_enter opens a bar on its node, closed by the next
  // view_enter (views are contiguous; view_exit always precedes the next
  // enter at the same timestamp).
  std::vector<std::int64_t> open_since(nodes, -1);
  std::vector<View> open_view(nodes, 0);
  const auto close_span = [&](std::size_t node, std::int64_t end_ns) {
    if (open_since[node] < 0) return;
    sep();
    std::fprintf(out,
                 "{\"name\":\"view %" PRIu64 "\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":%zu,\"tid\":0}",
                 open_view[node], static_cast<double>(open_since[node]) / 1e3,
                 static_cast<double>(end_ns - open_since[node]) / 1e3, node);
    open_since[node] = -1;
  };

  std::int64_t last_t = 0;
  for (const Event& e : events) {
    last_t = e.t.ns;
    const std::size_t pid = e.node == kNoNode ? nodes : e.node;
    if (e.kind == EventKind::kViewEnter && pid < nodes) {
      close_span(pid, e.t.ns);
      open_since[pid] = e.t.ns;
      open_view[pid] = e.view;
    }
    sep();
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":%zu,"
                 "\"tid\":1,\"args\":{\"view\":%" PRIu64 ",\"a\":%" PRIu64 ",\"b\":%" PRIu64
                 ",\"c\":%" PRIu64 "}}",
                 event_kind_name(e.kind), static_cast<double>(e.t.ns) / 1e3, pid, e.view,
                 e.a, e.b, e.c);
  }
  for (std::size_t node = 0; node < nodes; ++node) close_span(node, last_t);
  std::fputs("\n]}\n", out);
}

namespace {

// Per-view pacemaker counters for the timeline's counter track.
struct ViewCounters {
  std::uint32_t via_qc = 0, via_tc = 0, timeouts = 0, retransmits = 0;
};

// One line per view summarising each node's lifecycle offsets (ms after the
// view's earliest stamp): recv/vote/qc/commit, left out when missing.
void print_span_lanes(const LifecycleIndex& ix, View view, std::FILE* out) {
  const ViewStamps* s = ix.view(view);
  const auto extent = s != nullptr ? s->extent() : std::nullopt;
  if (!extent) return;
  const TimePoint base = extent->first;
  bool first = true;
  for (NodeId i = 0; i < static_cast<NodeId>(ix.nodes); ++i) {
    const NodeStamps& n = s->node[i];
    const std::optional<TimePoint> stamps[4] = {
        s->proposed ? n.prop_recv : std::nullopt, n.first_vote_cast(),
        n.qcs.empty() ? std::nullopt : std::optional(n.qcs.front().t), n.commit};
    if (!stamps[0] && !stamps[1] && !stamps[2] && !stamps[3]) continue;
    if (first)
      std::fprintf(out, "  lanes (+ms after %.3fms):",
                   static_cast<double>(base.ns) / 1e6);
    std::fprintf(out, "%s n%u:", first ? "" : " |", i);
    first = false;
    const char* tags[4] = {"recv", "vote", "qc", "commit"};
    for (int k = 0; k < 4; ++k) {
      if (stamps[k]) std::fprintf(out, " %s+%.1f", tags[k], to_ms(*stamps[k] - base));
    }
  }
  if (!first) std::fputc('\n', out);
}

}  // namespace

void print_timeline(const std::vector<Event>& events, const LifecycleIndex& index,
                    std::FILE* out, std::size_t max_events) {
  std::map<View, ViewCounters> counters;
  for (const Event& e : events) {
    if (e.kind == EventKind::kViewEnter) {
      if (e.a == 1) counters[e.view].via_qc++;
      if (e.a == 2) counters[e.view].via_tc++;
    } else if (e.kind == EventKind::kTimeoutFired) {
      counters[e.view].timeouts++;
    } else if (e.kind == EventKind::kTimeoutRetransmit) {
      counters[e.view].retransmits++;
    }
  }

  View max_entered = 0;
  std::size_t printed = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::kViewEnter && e.view > max_entered) {
      max_entered = e.view;
      const ViewCounters& c = counters[max_entered];
      std::fprintf(out,
                   "---- view %" PRIu64
                   " ---- enter via qc=%u tc=%u, timeouts=%u rtx=%u\n",
                   max_entered, c.via_qc, c.via_tc, c.timeouts, c.retransmits);
      print_span_lanes(index, max_entered, out);
    }
    char who[16];
    if (e.node == kNoNode) {
      std::snprintf(who, sizeof(who), "env");
    } else {
      std::snprintf(who, sizeof(who), "n%u", e.node);
    }
    std::fprintf(out, "%12.3fms %-4s %-18s v=%-5" PRIu64 " a=%-8" PRIu64 " b=%-8" PRIu64
                 " c=%" PRIu64 "\n",
                 static_cast<double>(e.t.ns) / 1e6, who, event_kind_name(e.kind), e.view,
                 e.a, e.b, e.c);
    if (++printed >= max_events) {
      std::fprintf(out, "... (%zu more events truncated)\n", events.size() - printed);
      return;
    }
  }
}

}  // namespace moonshot::obs
