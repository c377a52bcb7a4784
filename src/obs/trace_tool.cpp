// trace_tool — trace a seeded simulation and export / analyse the result.
//
//   trace_tool                               traced PM happy path, latency summary
//   trace_tool --protocol j --seed 7         other protocols / seeds
//   trace_tool --schedule "crash(200-1500;n=0)"
//                                            replay a chaos reproducer, traced
//                                            (a crash event attaches a WAL)
//   trace_tool --chrome out.json             Chrome trace_event JSON
//                                            (chrome://tracing, Perfetto)
//   trace_tool --jsonl out.jsonl             one event per line (golden format)
//   trace_tool --timeline                    per-view timeline with span lanes
//   trace_tool --prom out.prom               Prometheus text exposition
//   trace_tool --metrics-jsonl out.jsonl     periodic registry snapshots
//
// Subcommand (before any flags):
//   trace_tool critpath [run flags] [--dot g.dot] [--check-bounds]
//       per-block critical-path attribution of commit latency; --check-bounds
//       compares each block's λ against the paper's cδ·δ + cω·ω bound and
//       exits non-zero on violations; --dot writes the causal span graph.
//
// Without a subcommand the latency summary is printed: the block period ω
// and commit latency λ as δ-multiples next to the paper's targets (ω = δ,
// λ = the protocol's Table I bound), then the critical-path segment
// aggregates that λ splits into.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>

#include "chaos/engine.hpp"
#include "chaos/schedule.hpp"
#include "harness/experiment.hpp"
#include "obs/critpath.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace {

using namespace moonshot;

struct Options {
  ProtocolKind protocol = ProtocolKind::kPipelinedMoonshot;
  std::uint64_t seed = 1;
  std::size_t n = 4;
  std::int64_t duration_ms = 10'000;
  std::int64_t delta_ms = 500;
  std::uint64_t payload = 0;
  std::size_t observer = 0;
  std::size_t ring_capacity = 1 << 16;
  /// > 0: replace the WAN model with a jitter-free uniform matrix of this
  /// one-way latency — the paper's fixed-δ setting, where ω = δ and λ = 3δ
  /// are exact. The latency summary is then printed against this δ.
  std::int64_t fixed_delay_ms = 0;
  std::string schedule;
  std::string chrome_path;
  std::string jsonl_path;
  std::string prom_path;
  /// Periodic registry snapshots (~20 over the run) as JSONL time series.
  std::string metrics_jsonl_path;
  std::string dot_path;      // critpath only: span-graph DOT export
  bool check_bounds = false;  // critpath only: verify the paper bound
  double tolerance = 0.05;    // multiplicative allowance for proc costs
  bool timeline = false;
  /// Attach a per-node WAL so wal_append/wal_fsync/wal_replay events appear
  /// in the exports. Implied by --fsync-us or a crash event in --schedule.
  bool wal = false;
  /// Modelled fsync base latency (µs) — the measurable durability tax.
  std::int64_t fsync_us = 0;
};

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr, "trace_tool: %s\n", what);
  std::fprintf(stderr,
               "usage: trace_tool [critpath] [--protocol sm|pm|cm|j|hs]\n"
               "                  [--seed N] [--n N]\n"
               "                  [--duration-ms N] [--delta-ms N] [--payload BYTES]\n"
               "                  [--fixed-delay-ms N] [--schedule STR] [--observer N]\n"
               "                  [--ring-capacity N] [--chrome PATH] [--jsonl PATH]\n"
               "                  [--prom PATH] [--metrics-jsonl PATH]\n"
               "                  [--timeline] [--wal] [--fsync-us N]\n"
               "       critpath extras: [--dot PATH] [--check-bounds] [--tolerance F]\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--protocol") {
      const auto p = parse_protocol_tag(value());
      if (!p) usage_error("unknown protocol tag");
      opt.protocol = *p;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--n") {
      opt.n = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--duration-ms") {
      opt.duration_ms = std::strtoll(value().c_str(), nullptr, 10);
    } else if (arg == "--delta-ms") {
      opt.delta_ms = std::strtoll(value().c_str(), nullptr, 10);
    } else if (arg == "--payload") {
      opt.payload = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--fixed-delay-ms") {
      opt.fixed_delay_ms = std::strtoll(value().c_str(), nullptr, 10);
    } else if (arg == "--observer") {
      opt.observer = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--ring-capacity") {
      opt.ring_capacity = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--schedule") {
      opt.schedule = value();
    } else if (arg == "--chrome") {
      opt.chrome_path = value();
    } else if (arg == "--jsonl") {
      opt.jsonl_path = value();
    } else if (arg == "--prom") {
      opt.prom_path = value();
    } else if (arg == "--metrics-jsonl") {
      opt.metrics_jsonl_path = value();
    } else if (arg == "--dot") {
      opt.dot_path = value();
    } else if (arg == "--check-bounds") {
      opt.check_bounds = true;
    } else if (arg == "--tolerance") {
      opt.tolerance = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--timeline") {
      opt.timeline = true;
    } else if (arg == "--wal") {
      opt.wal = true;
    } else if (arg == "--fsync-us") {
      opt.fsync_us = std::strtoll(value().c_str(), nullptr, 10);
      opt.wal = true;
    } else {
      usage_error(("unknown argument: " + arg).c_str());
    }
  }
  if (opt.observer >= opt.n) usage_error("--observer out of range");
  return opt;
}

// Opens `path` for writing, hands it to `write` and closes it; a path that
// cannot be opened is a usage error.
void write_file(const std::string& path, const std::function<void(std::FILE*)>& write) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) usage_error(("cannot open " + path).c_str());
  write(f);
  std::fclose(f);
}

void write_text(const std::string& path, const std::string& text) {
  write_file(path, [&](std::FILE* f) { std::fwrite(text.data(), 1, text.size(), f); });
}

}  // namespace

int main(int argc, char** argv) {
  bool critpath_mode = false;
  if (argc > 1 && std::strcmp(argv[1], "critpath") == 0) {
    critpath_mode = true;
    --argc;
    ++argv;
  }
  const Options opt = parse_args(argc, argv);
  std::optional<chaos::FaultSchedule> schedule;
  if (!opt.schedule.empty()) {
    schedule = chaos::FaultSchedule::parse(opt.schedule);
    if (!schedule) usage_error("unparseable --schedule");
  }

  obs::TracerConfig tcfg;
  tcfg.ring_capacity = opt.ring_capacity;
  obs::Tracer tracer(opt.n, tcfg);

  ExperimentConfig cfg;
  cfg.protocol = opt.protocol;
  cfg.n = opt.n;
  cfg.seed = opt.seed;
  cfg.delta = milliseconds(opt.delta_ms);
  cfg.duration = milliseconds(opt.duration_ms);
  cfg.payload_size = opt.payload;
  cfg.tracer = &tracer;
  if (opt.fixed_delay_ms > 0) {
    cfg.net.matrix = net::LatencyMatrix::uniform(milliseconds(opt.fixed_delay_ms));
    cfg.net.regions_used = 1;
    cfg.net.jitter = 0.0;
  }
  cfg.enable_wal = opt.wal || (schedule && schedule->wants_wal());
  cfg.wal.fsync_base = microseconds(opt.fsync_us);

  Experiment exp(cfg);
  std::unique_ptr<chaos::ChaosEngine> engine;
  if (schedule) {
    engine = std::make_unique<chaos::ChaosEngine>(exp, *schedule, opt.seed);
    engine->arm();
  }

  // Periodic registry snapshots: ~20 samples over the run, stamped with sim
  // time. The callbacks only read state, so the run itself is unperturbed.
  obs::Registry ts_registry;
  std::string ts_lines;
  if (!opt.metrics_jsonl_path.empty()) {
    const std::int64_t step = std::max<std::int64_t>(1, opt.duration_ms / 20);
    for (std::int64_t t = step; t <= opt.duration_ms; t += step) {
      exp.scheduler().schedule_at(TimePoint::zero() + milliseconds(t), [&] {
        exp.export_metrics(ts_registry);
        ts_registry.append_snapshot_jsonl(ts_lines);
      });
    }
  }

  const ExperimentResult result = exp.run();

  const std::vector<obs::Event> merged = tracer.merged();
  const obs::LifecycleIndex index = obs::build_lifecycle_index(merged, opt.n);

  if (!opt.jsonl_path.empty()) write_text(opt.jsonl_path, obs::to_jsonl(merged));
  if (!opt.chrome_path.empty()) {
    write_file(opt.chrome_path,
               [&](std::FILE* f) { obs::write_chrome_trace(merged, opt.n, f); });
  }
  if (!opt.prom_path.empty()) {
    obs::Registry reg;
    exp.export_metrics(reg);
    write_text(opt.prom_path, reg.prometheus_text());
  }
  if (!opt.metrics_jsonl_path.empty()) write_text(opt.metrics_jsonl_path, ts_lines);
  if (opt.timeline) obs::print_timeline(merged, index, stdout);

  std::printf("protocol=%s n=%zu seed=%llu delta=%lldms duration=%lldms%s%s\n",
              protocol_name(opt.protocol), opt.n,
              static_cast<unsigned long long>(opt.seed),
              static_cast<long long>(opt.delta_ms),
              static_cast<long long>(opt.duration_ms),
              opt.schedule.empty() ? "" : " schedule=",
              opt.schedule.empty() ? "" : opt.schedule.c_str());
  std::printf("events=%llu recorded, %llu overwritten; digest=%016llx\n",
              static_cast<unsigned long long>(tracer.total_recorded()),
              static_cast<unsigned long long>(tracer.total_dropped()),
              static_cast<unsigned long long>(tracer.digest()));
  std::printf("committed=%llu max_view=%llu safety=%s\n\n",
              static_cast<unsigned long long>(result.summary.committed_blocks),
              static_cast<unsigned long long>(result.max_view),
              result.logs_consistent ? "ok" : "VIOLATED");

  std::printf("message counters (logical sends; deliveries/drops per copy):\n");
  for (std::size_t t = 0; t < obs::kMessageTypeCount; ++t) {
    const obs::MessageCounter& c = tracer.message_counter(t);
    if (c.sent == 0 && c.delivered == 0 && c.dropped == 0) continue;
    std::printf("  %-14s sent=%-8llu bytes=%-12llu delivered=%-8llu dropped=%llu\n",
                obs::message_type_label(t), static_cast<unsigned long long>(c.sent),
                static_cast<unsigned long long>(c.sent_bytes),
                static_cast<unsigned long long>(c.delivered),
                static_cast<unsigned long long>(c.dropped));
  }
  std::printf("\n");

  // δ in the paper's ω/λ formulas is the actual one-way message delay, which
  // equals the fixed matrix latency when one is set; otherwise fall back to
  // the protocol Δ (a conservative bound on it).
  const Duration delta =
      milliseconds(opt.fixed_delay_ms > 0 ? opt.fixed_delay_ms : opt.delta_ms);

  const obs::CritPathReport report =
      obs::analyze_critical_path(index, static_cast<NodeId>(opt.observer));
  const obs::LatencyBound bound = obs::paper_bound(protocol_cli_tag(opt.protocol));
  if (!critpath_mode) {
    obs::print_latency_summary(report, bound, delta, stdout);
    return 0;
  }
  obs::print_critpath(report, delta, stdout);
  if (!opt.dot_path.empty()) {
    const obs::SpanGraph g = obs::build_span_graph(index);
    write_file(opt.dot_path, [&](std::FILE* f) { obs::write_span_dot(g, f); });
  }
  if (opt.check_bounds) {
    // In the fixed-δ setting the optimistic-handoff delay ω equals δ.
    const auto violations =
        obs::check_bounds(report, bound, delta, delta, opt.tolerance);
    obs::print_bound_check(violations, bound, delta, delta,
                           report.blocks.size(), stdout);
    return violations.empty() ? 0 : 1;
  }
  return 0;
}
