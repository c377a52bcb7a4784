#include "obs/flight.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>

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

}  // namespace

bool write_flight_recording(const std::string& path, const FlightContext& ctx,
                            const Tracer* tracer, const Registry* registry,
                            const FlightConfig& cfg) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

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

  std::vector<Event> merged;
  if (tracer != nullptr) merged = tracer->merged();
  const bool analyse = !merged.empty() && ctx.nodes > 0;
  const LifecycleIndex index =
      analyse ? build_lifecycle_index(merged, ctx.nodes) : LifecycleIndex{};

  std::fputs("  \"critpath\": [\n", f);
  if (analyse) {
    const CritPathReport report = analyze_critical_path(index, /*observer=*/0);
    bool first = true;
    for (const BlockPath& p : report.blocks) {
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
        const Segment& s = p.segments[i];
        std::fprintf(f,
                     "%s{\"kind\":\"%s\",\"view\":%llu,\"from\":%d,\"to\":%d,"
                     "\"ms\":%.3f}",
                     i == 0 ? "" : ",", segment_kind_name(s.kind),
                     static_cast<unsigned long long>(s.view),
                     s.from == kNoNode ? -1 : static_cast<int>(s.from),
                     s.to == kNoNode ? -1 : static_cast<int>(s.to),
                     to_ms(s.duration()));
      }
      std::fputs("]}", f);
    }
    if (!first) std::fputc('\n', f);
  }
  std::fputs("  ],\n", f);

  std::fputs("  \"spans\": [\n", f);
  if (analyse) {
    const SpanGraph g = build_span_graph(index);
    const std::size_t begin =
        g.spans.size() > cfg.max_spans ? g.spans.size() - cfg.max_spans : 0;
    for (std::size_t i = begin; i < g.spans.size(); ++i) {
      const Span& s = g.spans[i];
      std::fprintf(f,
                   "%s    {\"id\":%d,\"parent\":%d,\"kind\":\"%s\","
                   "\"view\":%llu,\"node\":%d,\"peer\":%d,\"start\":%lld,"
                   "\"end\":%lld,\"detail\":%llu}",
                   i == begin ? "" : ",\n", s.id, s.parent,
                   span_kind_name(s.kind),
                   static_cast<unsigned long long>(s.view),
                   s.node == kNoNode ? -1 : static_cast<int>(s.node),
                   s.peer == kNoNode ? -1 : static_cast<int>(s.peer),
                   static_cast<long long>(s.start.ns),
                   static_cast<long long>(s.end.ns),
                   static_cast<unsigned long long>(s.detail));
    }
    if (begin < g.spans.size()) std::fputc('\n', f);
  }
  std::fputs("  ],\n", f);

  std::fputs("  \"events\": [\n", f);
  if (!merged.empty()) {
    const std::size_t begin =
        merged.size() > cfg.max_events ? merged.size() - cfg.max_events : 0;
    const std::vector<Event> tail(merged.begin() +
                                      static_cast<std::ptrdiff_t>(begin),
                                  merged.end());
    write_lines_as_array(f, to_jsonl(tail));
  }
  std::fputs("  ]\n}\n", f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

// ---------------------------------------------------------------------------
// Rendering: a minimal recursive-descent JSON reader (we only ever parse our
// own writer's output, but it accepts any well-formed document).

namespace {

struct Json {
  enum Type { kNull, kBool, kNum, kStr, kArr, kObj } type = kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* get(const char* key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
  double num_or(const char* key, double fallback) const {
    const Json* j = get(key);
    return j != nullptr && j->type == kNum ? j->num : fallback;
  }
  std::string str_or(const char* key, const std::string& fallback) const {
    const Json* j = get(key);
    return j != nullptr && j->type == kStr ? j->str : fallback;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool parse(Json& out) { return value(out) && (skip_ws(), pos_ == s_.size()); }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          const long cp = std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          out += cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default: return false;
      }
    }
    return false;
  }
  bool value(Json& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out.type = Json::kObj;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!string(key)) return false;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        Json v;
        if (!value(v)) return false;
        out.obj.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out.type = Json::kArr;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Json v;
        if (!value(v)) return false;
        out.arr.push_back(std::move(v));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out.type = Json::kStr;
      return string(out.str);
    }
    if (c == 't') {
      out.type = Json::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.type = Json::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out.type = Json::kNull;
      return literal("null");
    }
    char* end = nullptr;
    out.type = Json::kNum;
    out.num = std::strtod(s_.c_str() + pos_, &end);
    if (end == s_.c_str() + pos_) return false;
    pos_ = static_cast<std::size_t>(end - s_.c_str());
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool print_flight_recording(const std::string& path, std::FILE* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(out, "flight: cannot open %s\n", path.c_str());
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);

  Json doc;
  if (!Parser(text).parse(doc) || doc.type != Json::kObj ||
      doc.str_or("format", "") != "moonshot-flight-v1") {
    std::fprintf(out, "flight: %s is not a moonshot-flight-v1 recording\n",
                 path.c_str());
    return false;
  }

  std::fprintf(out, "=== flight recording: %s ===\n", path.c_str());
  std::fprintf(out, "reason:   %s\n", doc.str_or("reason", "?").c_str());
  std::fprintf(out, "run:      protocol %s, n=%d, seed %llu, delta %.1fms\n",
               doc.str_or("protocol", "?").c_str(),
               static_cast<int>(doc.num_or("n", 0)),
               static_cast<unsigned long long>(doc.num_or("seed", 0)),
               doc.num_or("delta_ms", 0));
  std::fprintf(out, "trigger:  t=%.3fms\n", doc.num_or("trigger_t", 0) / 1e6);
  const std::string schedule = doc.str_or("schedule", "");
  if (!schedule.empty()) std::fprintf(out, "schedule: %s\n", schedule.c_str());
  const std::string repro = doc.str_or("repro", "");
  if (!repro.empty()) std::fprintf(out, "repro:    %s\n", repro.c_str());

  if (const Json* v = doc.get("violations");
      v != nullptr && !v->arr.empty()) {
    std::fprintf(out, "violations (%zu):\n", v->arr.size());
    for (const Json& item : v->arr)
      std::fprintf(out, "  - %s\n", item.str.c_str());
  }

  if (const Json* m = doc.get("metrics"); m != nullptr && !m->arr.empty()) {
    std::fprintf(out, "metrics (%zu series):\n", m->arr.size());
    std::size_t shown = 0;
    for (const Json& item : m->arr) {
      if (shown == 40) {
        std::fprintf(out, "  ... (%zu more)\n", m->arr.size() - shown);
        break;
      }
      std::string labels;
      if (const Json* l = item.get("labels");
          l != nullptr && !l->obj.empty()) {
        labels += '{';
        for (std::size_t i = 0; i < l->obj.size(); ++i) {
          if (i != 0) labels += ',';
          labels += l->obj[i].first + "=" + l->obj[i].second.str;
        }
        labels += '}';
      }
      const std::string type = item.str_or("type", "");
      if (type == "histogram") {
        std::fprintf(out, "  %-40s count=%.0f p50=%.3fms p99=%.3fms\n",
                     (item.str_or("name", "?") + labels).c_str(),
                     item.num_or("count", 0), item.num_or("p50", 0) / 1e6,
                     item.num_or("p99", 0) / 1e6);
      } else {
        std::fprintf(out, "  %-40s %g\n",
                     (item.str_or("name", "?") + labels).c_str(),
                     item.num_or("value", 0));
      }
      ++shown;
    }
  }

  if (const Json* cp = doc.get("critpath"); cp != nullptr && !cp->arr.empty()) {
    std::fprintf(out, "critical path (%zu committed blocks):\n",
                 cp->arr.size());
    for (const Json& b : cp->arr) {
      std::fprintf(out, "  view %-5.0f %8.1fms %s",
                   b.num_or("view", 0), b.num_or("latency_ms", 0),
                   b.get("timeout") != nullptr && b.get("timeout")->boolean
                       ? "[timeout]"
                       : "");
      if (const Json* segs = b.get("segments"); segs != nullptr) {
        std::size_t shown = 0;
        for (const Json& s : segs->arr) {
          if (s.num_or("ms", 0) <= 0.0) continue;
          if (shown++ == 4) {
            std::fputs(" | ...", out);
            break;
          }
          std::fprintf(out, " | %s %.1fms", s.str_or("kind", "?").c_str(),
                       s.num_or("ms", 0));
        }
      }
      std::fputc('\n', out);
    }
  }

  if (const Json* spans = doc.get("spans"); spans != nullptr)
    std::fprintf(out, "spans captured: %zu\n", spans->arr.size());

  if (const Json* ev = doc.get("events"); ev != nullptr && !ev->arr.empty()) {
    const std::size_t n = ev->arr.size();
    const std::size_t begin = n > 20 ? n - 20 : 0;
    std::fprintf(out, "event tail (last %zu of %zu):\n", n - begin, n);
    for (std::size_t i = begin; i < n; ++i) {
      const Json& e = ev->arr[i];
      const int node = static_cast<int>(e.num_or("node", -1));
      char who[16];
      if (node < 0)
        std::snprintf(who, sizeof who, "env");
      else
        std::snprintf(who, sizeof who, "n%d", node);
      std::fprintf(out, "  %12.3fms %-4s %-18s v=%.0f a=%.0f b=%.0f c=%.0f\n",
                   e.num_or("t", 0) / 1e6, who,
                   e.str_or("kind", "?").c_str(), e.num_or("view", 0),
                   e.num_or("a", 0), e.num_or("b", 0), e.num_or("c", 0));
    }
  }
  return true;
}

}  // namespace moonshot::obs
