#include "obs/flight.hpp"

#include <chrono>
#include <string_view>

#include "obs/critpath.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace moonshot::obs {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Emits `jsonl` (one object per line) as comma-separated array elements.
void write_lines_as_array(std::FILE* f, const std::string& jsonl) {
  bool first = true;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    if (end > start) {
      if (!first) std::fputs(",\n", f);
      first = false;
      std::fputs("    ", f);
      std::fwrite(jsonl.data() + start, 1, end - start, f);
    }
    start = end + 1;
  }
  if (!first) std::fputc('\n', f);
}

// Everything both renderings read, computed once from the tracer.
struct Snapshot {
  bool analysed = false;  // lifecycle analyses ran (events and nodes present)
  LifecycleIndex index;
  CritPathReport report;
  std::vector<Span> spans;    // tail of the span graph
  std::vector<Event> events;  // tail of the merged stream
};

Snapshot take_snapshot(const FlightContext& ctx, const Tracer* tracer,
                       const FlightConfig& cfg) {
  Snapshot s;
  if (tracer == nullptr) return s;
  const std::vector<Event> merged = tracer->merged();
  const std::size_t first_event =
      merged.size() > cfg.max_events ? merged.size() - cfg.max_events : 0;
  s.events.assign(merged.begin() + static_cast<std::ptrdiff_t>(first_event),
                  merged.end());
  s.analysed = !merged.empty() && ctx.nodes > 0;
  if (!s.analysed) return s;
  s.index = build_lifecycle_index(merged, ctx.nodes);
  s.report = analyze_critical_path(s.index, /*observer=*/0);
  const SpanGraph g = build_span_graph(s.index);
  const std::size_t first_span =
      g.spans.size() > cfg.max_spans ? g.spans.size() - cfg.max_spans : 0;
  s.spans.assign(g.spans.begin() + static_cast<std::ptrdiff_t>(first_span),
                 g.spans.end());
  return s;
}

// The moonshot-flight-v1 document.
void write_json(std::FILE* f, const FlightContext& ctx, const Registry* registry,
                const Snapshot& s) {
  std::fprintf(f, "{\n  \"format\": \"moonshot-flight-v1\",\n");
  std::fprintf(f, "  \"reason\": \"%s\",\n", escape(ctx.reason).c_str());
  std::fprintf(f, "  \"protocol\": \"%s\",\n", escape(ctx.protocol).c_str());
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(ctx.seed));
  std::fprintf(f, "  \"n\": %zu,\n", ctx.nodes);
  std::fprintf(f, "  \"delta_ms\": %g,\n", ctx.delta_ms);
  std::fprintf(f, "  \"trigger_t\": %lld,\n",
               static_cast<long long>(ctx.trigger.ns));
  std::fprintf(f, "  \"schedule\": \"%s\",\n", escape(ctx.schedule).c_str());
  std::fprintf(f, "  \"repro\": \"%s\",\n", escape(ctx.repro).c_str());

  std::fputs("  \"violations\": [", f);
  for (std::size_t i = 0; i < ctx.violations.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\"", i == 0 ? "" : ",",
                 escape(ctx.violations[i]).c_str());
  }
  std::fputs(ctx.violations.empty() ? "],\n" : "\n  ],\n", f);

  std::fputs("  \"metrics\": [\n", f);
  if (registry != nullptr) write_lines_as_array(f, registry->snapshot_jsonl());
  std::fputs("  ],\n", f);

  std::fputs("  \"critpath\": [\n", f);
  bool first = true;
  for (const BlockPath& p : s.report.blocks) {
    std::fprintf(f,
                 "%s    {\"view\":%llu,\"height\":%llu,\"latency_ms\":%.3f,"
                 "\"complete\":%s,\"timeout\":%s,\"segments\":[",
                 first ? "" : ",\n",
                 static_cast<unsigned long long>(p.view),
                 static_cast<unsigned long long>(p.height),
                 to_ms(p.latency()), p.complete ? "true" : "false",
                 p.timeout_on_path ? "true" : "false");
    first = false;
    for (std::size_t i = 0; i < p.segments.size(); ++i) {
      const Segment& seg = p.segments[i];
      std::fprintf(f,
                   "%s{\"kind\":\"%s\",\"view\":%llu,\"from\":%d,\"to\":%d,"
                   "\"ms\":%.3f}",
                   i == 0 ? "" : ",", segment_kind_name(seg.kind),
                   static_cast<unsigned long long>(seg.view),
                   seg.from == kNoNode ? -1 : static_cast<int>(seg.from),
                   seg.to == kNoNode ? -1 : static_cast<int>(seg.to),
                   to_ms(seg.duration()));
    }
    std::fputs("]}", f);
  }
  if (!first) std::fputc('\n', f);
  std::fputs("  ],\n", f);

  std::fputs("  \"spans\": [\n", f);
  for (std::size_t i = 0; i < s.spans.size(); ++i) {
    const Span& sp = s.spans[i];
    std::fprintf(f,
                 "%s    {\"id\":%d,\"parent\":%d,\"kind\":\"%s\","
                 "\"view\":%llu,\"node\":%d,\"peer\":%d,\"start\":%lld,"
                 "\"end\":%lld,\"detail\":%llu}",
                 i == 0 ? "" : ",\n", sp.id, sp.parent, span_kind_name(sp.kind),
                 static_cast<unsigned long long>(sp.view),
                 sp.node == kNoNode ? -1 : static_cast<int>(sp.node),
                 sp.peer == kNoNode ? -1 : static_cast<int>(sp.peer),
                 static_cast<long long>(sp.start.ns),
                 static_cast<long long>(sp.end.ns),
                 static_cast<unsigned long long>(sp.detail));
  }
  if (!s.spans.empty()) std::fputc('\n', f);
  std::fputs("  ],\n", f);

  std::fputs("  \"events\": [\n", f);
  if (!s.events.empty()) write_lines_as_array(f, to_jsonl(s.events));
  std::fputs("  ]\n}\n", f);
}

// The postmortem for humans, built from the repo's existing printers.
void write_text(std::FILE* f, const std::string& json_name,
                const FlightContext& ctx, const Registry* registry,
                const Snapshot& s) {
  std::fprintf(f, "=== flight recording: %s ===\n", json_name.c_str());
  std::fprintf(f, "reason:   %s\n", ctx.reason.c_str());
  std::fprintf(f, "run:      protocol %s, n=%zu, seed %llu, delta %.1fms\n",
               ctx.protocol.c_str(), ctx.nodes,
               static_cast<unsigned long long>(ctx.seed), ctx.delta_ms);
  std::fprintf(f, "trigger:  t=%.3fms (%lldns)\n",
               static_cast<double>(ctx.trigger.ns) / 1e6,
               static_cast<long long>(ctx.trigger.ns));
  if (!ctx.schedule.empty()) std::fprintf(f, "schedule: %s\n", ctx.schedule.c_str());
  if (!ctx.repro.empty()) std::fprintf(f, "repro:    %s\n", ctx.repro.c_str());
  if (!ctx.violations.empty()) {
    std::fprintf(f, "violations (%zu):\n", ctx.violations.size());
    for (const std::string& v : ctx.violations) std::fprintf(f, "  - %s\n", v.c_str());
  }

  if (registry != nullptr) {
    std::fputs("--- metrics ---\n", f);
    std::fputs(registry->prometheus_text().c_str(), f);
  }
  if (s.analysed) {
    const auto delta = std::chrono::duration_cast<Duration>(
        std::chrono::duration<double, std::milli>(ctx.delta_ms));
    print_critpath(s.report, delta, f);
  }
  std::fprintf(f, "spans captured: %zu\n", s.spans.size());

  constexpr std::size_t kTextEvents = 20;
  if (!s.events.empty()) {
    const std::size_t n = s.events.size();
    const std::size_t begin = n > kTextEvents ? n - kTextEvents : 0;
    std::fprintf(f, "event tail (last %zu of %zu):\n", n - begin, n);
    const std::vector<Event> last(
        s.events.begin() + static_cast<std::ptrdiff_t>(begin), s.events.end());
    print_timeline(last, s.index, f);
  }
}

// Opens `path`, hands it to `render` and closes it; false on any I/O error.
template <typename Render>
bool write_file(const std::string& path, Render&& render) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  render(f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace

std::string flight_text_path(const std::string& path) {
  constexpr std::string_view kJson = ".json";
  if (path.ends_with(kJson)) return path.substr(0, path.size() - kJson.size()) + ".txt";
  return path + ".txt";
}

bool write_flight_recording(const std::string& path, const FlightContext& ctx,
                            const Tracer* tracer, const Registry* registry,
                            const FlightConfig& cfg) {
  const Snapshot s = take_snapshot(ctx, tracer, cfg);
  const bool json_ok =
      write_file(path, [&](std::FILE* f) { write_json(f, ctx, registry, s); });
  const std::string json_name = path.substr(path.find_last_of('/') + 1);
  const bool text_ok = write_file(flight_text_path(path), [&](std::FILE* f) {
    write_text(f, json_name, ctx, registry, s);
  });
  return json_ok && text_ok;
}

}  // namespace moonshot::obs
