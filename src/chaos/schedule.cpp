#include "chaos/schedule.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace moonshot::chaos {

const char* fault_type_tag(FaultType t) {
  switch (t) {
    case FaultType::kPartition: return "part";
    case FaultType::kLinkCut: return "cut";
    case FaultType::kDrop: return "drop";
    case FaultType::kDuplicate: return "dup";
    case FaultType::kDelay: return "delay";
    case FaultType::kCrash: return "crash";
    case FaultType::kBurst: return "burst";
    case FaultType::kMcChoice: return "mc";
    case FaultType::kAdversary: return "adv";
  }
  return "?";
}

namespace {

std::int64_t to_ms_floor(TimePoint t) { return t.ns / 1'000'000; }

void append_links(std::ostringstream& os, const std::vector<net::Link>& links) {
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (i) os << ',';
    os << links[i].from << '>' << links[i].to;
  }
}

}  // namespace

std::string FaultEvent::to_string() const {
  std::ostringstream os;
  os << fault_type_tag(type) << '(' << to_ms_floor(start) << '-' << to_ms_floor(end);
  switch (type) {
    case FaultType::kPartition:
      os << ';';
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (g) os << '|';
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
          if (i) os << ',';
          os << groups[g][i];
        }
      }
      break;
    case FaultType::kLinkCut:
      os << ';';
      append_links(os, links);
      break;
    case FaultType::kDrop:
    case FaultType::kDuplicate:
      os << ";p=" << percent;
      if (!links.empty()) {
        os << ";links=";
        append_links(os, links);
      }
      break;
    case FaultType::kDelay:
      os << ";d=" << delay.count() / 1'000'000 << ";p=" << percent;
      if (!links.empty()) {
        os << ";links=";
        append_links(os, links);
      }
      break;
    case FaultType::kCrash:
      os << ";n=";
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (i) os << ',';
        os << nodes[i];
      }
      // Durable is the default and never printed.
      if (recovery == RecoveryMode::kAmnesia) os << ";m=amnesia";
      break;
    case FaultType::kBurst:
      os << ";d=" << delay.count() / 1'000'000;
      break;
    case FaultType::kMcChoice:
      os << ";k=" << (mc_kind == 't' ? 't' : 'd') << ";r=" << mc_to;
      if (mc_kind != 't') os << ";p=" << mc_from << ";y=" << mc_type << ";u=" << mc_ordinal;
      break;
    case FaultType::kAdversary:
      os << ";n=";
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (i) os << ',';
        os << nodes[i];
      }
      os << ";s=" << adv_strategy;
      // Defaults are omitted so the minimal form round-trips byte-for-byte.
      if (adv_view_from != 1 || adv_view_to != 0)
        os << ";v=" << adv_view_from << '-' << adv_view_to;
      if (delay.count() > 0) os << ";d=" << delay.count() / 1'000'000;
      if (adv_subset != 0) os << ";q=" << adv_subset;
      break;
  }
  os << ')';
  return os.str();
}

TimePoint FaultSchedule::last_heal() const {
  TimePoint t = TimePoint::zero();
  for (const FaultEvent& e : events) t = std::max(t, e.end);
  return t;
}

std::vector<NodeId> FaultSchedule::amnesia_targets() const {
  std::vector<NodeId> out;
  for (const FaultEvent& e : events) {
    if (e.type != FaultType::kCrash || e.recovery != RecoveryMode::kAmnesia) continue;
    for (const NodeId id : e.nodes) {
      if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
    }
  }
  return out;
}

bool FaultSchedule::wants_wal() const {
  for (const FaultEvent& e : events) {
    if (e.type == FaultType::kCrash) return true;
  }
  return false;
}

std::vector<adversary::AdversarySpec> FaultEvent::adversary_specs() const {
  std::vector<adversary::AdversarySpec> out;
  if (type != FaultType::kAdversary) return out;
  for (const NodeId id : nodes) {
    adversary::AdversarySpec spec;
    spec.node = id;
    spec.strategy = adv_strategy;
    spec.view_from = adv_view_from;
    spec.view_to = adv_view_to;
    spec.delay = delay;
    spec.subset = adv_subset;
    out.push_back(std::move(spec));
  }
  return out;
}

std::vector<adversary::AdversarySpec> FaultSchedule::adversaries() const {
  std::vector<adversary::AdversarySpec> out;
  for (const FaultEvent& e : events) {
    for (auto& spec : e.adversary_specs()) out.push_back(std::move(spec));
  }
  return out;
}

std::string FaultSchedule::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i) os << ';';
    os << events[i].to_string();
  }
  return os.str();
}

// --- parsing -----------------------------------------------------------------

namespace {

struct Cursor {
  std::string_view s;
  std::size_t pos = 0;

  bool done() const { return pos >= s.size(); }
  char peek() const { return done() ? '\0' : s[pos]; }
  void skip_separators() {
    while (!done() && (s[pos] == ';' || s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n'))
      ++pos;
  }
};

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool parse_node_list(std::string_view s, std::vector<NodeId>& out) {
  for (const auto part : split(s, ',')) {
    std::uint64_t id = 0;
    if (!parse_u64(part, id)) return false;
    out.push_back(static_cast<NodeId>(id));
  }
  return true;
}

bool parse_links(std::string_view s, std::vector<net::Link>& out) {
  if (s.empty()) return true;
  for (const auto part : split(s, ',')) {
    const auto ends = split(part, '>');
    if (ends.size() != 2) return false;
    std::uint64_t from = 0, to = 0;
    if (!parse_u64(ends[0], from) || !parse_u64(ends[1], to)) return false;
    out.push_back(net::Link{static_cast<NodeId>(from), static_cast<NodeId>(to)});
  }
  return true;
}

bool parse_window(std::string_view s, FaultEvent& ev) {
  const auto ends = split(s, '-');
  if (ends.size() != 2) return false;
  std::uint64_t start_ms = 0, end_ms = 0;
  if (!parse_u64(ends[0], start_ms) || !parse_u64(ends[1], end_ms)) return false;
  if (end_ms < start_ms) return false;
  ev.start = TimePoint{static_cast<std::int64_t>(start_ms) * 1'000'000};
  ev.end = TimePoint{static_cast<std::int64_t>(end_ms) * 1'000'000};
  return true;
}

/// Parses "key=value" parameters common to the probabilistic faults.
bool parse_kv(std::string_view param, FaultEvent& ev) {
  const auto kv = split(param, '=');
  if (kv.size() != 2) return false;
  std::uint64_t value = 0;
  if (kv[0] == "p") {
    // Overloaded key: sender node for mc() choices, percent everywhere else.
    if (ev.type == FaultType::kMcChoice) {
      if (!parse_u64(kv[1], value)) return false;
      ev.mc_from = static_cast<NodeId>(value);
      return true;
    }
    if (!parse_u64(kv[1], value) || value > 100) return false;
    ev.percent = static_cast<int>(value);
    return true;
  }
  if (kv[0] == "k") {
    if (ev.type != FaultType::kMcChoice || kv[1].size() != 1) return false;
    if (kv[1][0] != 'd' && kv[1][0] != 't') return false;
    ev.mc_kind = kv[1][0];
    return true;
  }
  if (kv[0] == "r") {
    if (ev.type != FaultType::kMcChoice || !parse_u64(kv[1], value)) return false;
    ev.mc_to = static_cast<NodeId>(value);
    return true;
  }
  if (kv[0] == "y") {
    if (ev.type != FaultType::kMcChoice || !parse_u64(kv[1], value)) return false;
    ev.mc_type = static_cast<std::uint32_t>(value);
    return true;
  }
  if (kv[0] == "u") {
    if (ev.type != FaultType::kMcChoice || !parse_u64(kv[1], value)) return false;
    ev.mc_ordinal = static_cast<std::uint32_t>(value);
    return true;
  }
  if (kv[0] == "d") {
    if (!parse_u64(kv[1], value)) return false;
    ev.delay = milliseconds(static_cast<std::int64_t>(value));
    return true;
  }
  if (kv[0] == "s") {
    if (ev.type != FaultType::kAdversary) return false;
    ev.adv_strategy = std::string(kv[1]);
    return adversary::known_strategy(ev.adv_strategy);
  }
  if (kv[0] == "v") {
    if (ev.type != FaultType::kAdversary) return false;
    const auto range = split(kv[1], '-');
    if (range.size() != 2) return false;
    std::uint64_t from = 0, to = 0;
    if (!parse_u64(range[0], from) || !parse_u64(range[1], to)) return false;
    if (from == 0) return false;  // views start at 1
    if (to != 0 && to < from) return false;
    ev.adv_view_from = from;
    ev.adv_view_to = to;
    return true;
  }
  if (kv[0] == "q") {
    if (ev.type != FaultType::kAdversary || !parse_u64(kv[1], value)) return false;
    ev.adv_subset = static_cast<std::size_t>(value);
    return true;
  }
  if (kv[0] == "links") return parse_links(kv[1], ev.links);
  if (kv[0] == "n") return parse_node_list(kv[1], ev.nodes);
  if (kv[0] == "m") {
    if (ev.type != FaultType::kCrash) return false;
    if (kv[1] == "durable") ev.recovery = RecoveryMode::kDurable;
    else if (kv[1] == "amnesia") ev.recovery = RecoveryMode::kAmnesia;
    else return false;
    return true;
  }
  return false;
}

bool parse_event(std::string_view kind, std::string_view body, FaultEvent& ev) {
  const auto params = split(body, ';');
  if (params.empty()) return false;
  if (!parse_window(params[0], ev)) return false;

  if (kind == "part") {
    ev.type = FaultType::kPartition;
    if (params.size() != 2) return false;
    for (const auto group : split(params[1], '|')) {
      std::vector<NodeId> ids;
      if (!parse_node_list(group, ids)) return false;
      ev.groups.push_back(std::move(ids));
    }
    return !ev.groups.empty();
  }
  if (kind == "cut") {
    ev.type = FaultType::kLinkCut;
    if (params.size() != 2) return false;
    return parse_links(params[1], ev.links) && !ev.links.empty();
  }
  if (kind == "drop" || kind == "dup" || kind == "delay") {
    ev.type = kind == "drop" ? FaultType::kDrop
              : kind == "dup" ? FaultType::kDuplicate
                              : FaultType::kDelay;
    for (std::size_t i = 1; i < params.size(); ++i) {
      if (!parse_kv(params[i], ev)) return false;
    }
    return ev.type != FaultType::kDelay || ev.delay.count() > 0;
  }
  if (kind == "crash") {
    ev.type = FaultType::kCrash;
    for (std::size_t i = 1; i < params.size(); ++i) {
      if (!parse_kv(params[i], ev)) return false;
    }
    return !ev.nodes.empty();
  }
  if (kind == "burst") {
    ev.type = FaultType::kBurst;
    for (std::size_t i = 1; i < params.size(); ++i) {
      if (!parse_kv(params[i], ev)) return false;
    }
    return ev.delay.count() > 0;
  }
  if (kind == "mc") {
    ev.type = FaultType::kMcChoice;
    for (std::size_t i = 1; i < params.size(); ++i) {
      if (!parse_kv(params[i], ev)) return false;
    }
    return true;
  }
  if (kind == "adv") {
    ev.type = FaultType::kAdversary;
    for (std::size_t i = 1; i < params.size(); ++i) {
      if (!parse_kv(params[i], ev)) return false;
    }
    return !ev.nodes.empty();
  }
  return false;
}

}  // namespace

std::optional<FaultSchedule> FaultSchedule::parse(std::string_view text) {
  FaultSchedule schedule;
  Cursor cur{text};
  cur.skip_separators();
  while (!cur.done()) {
    const std::size_t kind_start = cur.pos;
    while (!cur.done() && std::isalpha(static_cast<unsigned char>(cur.peek()))) ++cur.pos;
    const std::string_view kind = text.substr(kind_start, cur.pos - kind_start);
    if (kind.empty() || cur.peek() != '(') return std::nullopt;
    ++cur.pos;  // '('
    const std::size_t body_start = cur.pos;
    while (!cur.done() && cur.peek() != ')') ++cur.pos;
    if (cur.done()) return std::nullopt;  // unbalanced
    const std::string_view body = text.substr(body_start, cur.pos - body_start);
    ++cur.pos;  // ')'

    FaultEvent ev;
    if (!parse_event(kind, body, ev)) return std::nullopt;
    schedule.events.push_back(std::move(ev));
    cur.skip_separators();
  }
  return schedule;
}

}  // namespace moonshot::chaos
