// chaos_fuzz — randomized fault-schedule fuzzing with replay and shrinking.
//
// Modes:
//   chaos_fuzz                          fuzz loop (default 20 runs, protocol pm)
//   chaos_fuzz --runs 100 --seed 7      more runs, different base seed
//   chaos_fuzz --protocol j             fuzz Jolteon instead
//   chaos_fuzz --schedule "crash(200-1500;n=0)" --seed 7
//                                       replay one exact scenario, print digest
//                                       (crashed nodes recover from their WAL;
//                                       m=amnesia in the event wipes it)
//   chaos_fuzz --smoke                  CI smoke: every protocol, one seeded
//                                       schedule each, double-run determinism
//   chaos_fuzz --inject-bug             treat partition-overlapping-crash as a
//                                       safety bug (exercises the shrinker)
//   chaos_fuzz --adversary 1            include active-Byzantine placements
//                                       (adv() events) in generated schedules
//   chaos_fuzz --adversary-smoke        CI smoke: every strategy x every
//                                       protocol, singleton (n=4, latency
//                                       oracle on) and f-sized coalition (n=7)
//   chaos_fuzz --latency-oracle         judge per-view commit latency against
//                                       the paper's failure bounds
//
// On a failing run the schedule is shrunk to a locally minimal reproducer and
// printed as a replayable command line; the exit code is non-zero. With
// --flight PATH a sweep replays each reproducer once more to record it: the
// lowest failing seed writes PATH, every later one <stem>.seed<N>.json (stem =
// PATH without ".json"), each with its rendered .txt sibling.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/engine.hpp"
#include "chaos/generate.hpp"
#include "chaos/runner.hpp"
#include "chaos/shrink.hpp"
#include "exec/line_sink.hpp"
#include "exec/world_runner.hpp"

namespace {

using namespace moonshot;
using namespace moonshot::chaos;

struct Options {
  ProtocolKind protocol = ProtocolKind::kPipelinedMoonshot;
  std::uint64_t seed = 1;
  std::size_t runs = 20;
  std::size_t n = 4;
  std::int64_t duration_ms = 10'000;
  std::int64_t delta_ms = 500;
  std::size_t max_events = 6;
  std::string schedule;  // replay mode when non-empty
  /// Write a flight recording (obs/flight.hpp) here, and its rendered
  /// postmortem to the .txt sibling, when a run fails.
  std::string flight;
  bool smoke = false;
  bool inject_bug = false;
  /// Bias generation toward several crash windows per schedule.
  bool crash_heavy = false;
  /// Modelled fsync base latency (µs); nonzero implies the WAL is enabled.
  std::int64_t fsync_us = 0;
  /// Active-adversary placements per generated schedule (0 = none).
  std::size_t adversary = 0;
  /// Strategy pool for generated placements (comma-separated; empty = all).
  std::vector<std::string> adversary_strategies;
  /// Judge per-view commit latency against the failure-scenario bounds.
  bool latency_oracle = false;
  /// Strategy x protocol smoke matrix.
  bool adversary_smoke = false;
  /// Concurrent worlds for sweeps and shrinking ("auto"/0 = all cores).
  /// Verdict lines, shrink trajectories, and exit codes are byte-identical
  /// across --jobs values.
  unsigned jobs = 1;
};

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr, "chaos_fuzz: %s\n", what);
  std::fprintf(stderr,
               "usage: chaos_fuzz [--protocol sm|pm|cm|j|hs] [--seed N] [--runs N]\n"
               "                  [--n N] [--duration-ms N] [--delta-ms N]\n"
               "                  [--max-events N] [--schedule STR] [--smoke]\n"
               "                  [--inject-bug] [--crash-heavy] [--fsync-us N]\n"
               "                  [--flight PATH]  (on failure: JSON recording at PATH,\n"
               "                                    rendered postmortem at its .txt sibling;\n"
               "                                    later failing seeds of a sweep write\n"
               "                                    <stem>.seed<N>.json and .txt)\n"
               "                  [--adversary N] [--adversary-strategies s1,s2,...]\n"
               "                  [--latency-oracle] [--adversary-smoke] [--jobs N|auto]\n");
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
    } else if (arg == "--runs") {
      opt.runs = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--n") {
      opt.n = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--duration-ms") {
      opt.duration_ms = std::strtoll(value().c_str(), nullptr, 10);
    } else if (arg == "--delta-ms") {
      opt.delta_ms = std::strtoll(value().c_str(), nullptr, 10);
    } else if (arg == "--max-events") {
      opt.max_events = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--schedule") {
      opt.schedule = value();
    } else if (arg == "--flight") {
      opt.flight = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--inject-bug") {
      opt.inject_bug = true;
    } else if (arg == "--crash-heavy") {
      opt.crash_heavy = true;
    } else if (arg == "--fsync-us") {
      opt.fsync_us = std::strtoll(value().c_str(), nullptr, 10);
    } else if (arg == "--adversary") {
      opt.adversary = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--adversary-strategies") {
      std::string list = value();
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string name =
            list.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!name.empty()) {
          if (!adversary::known_strategy(name)) usage_error("unknown adversary strategy");
          opt.adversary_strategies.push_back(name);
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg == "--latency-oracle") {
      opt.latency_oracle = true;
    } else if (arg == "--adversary-smoke") {
      opt.adversary_smoke = true;
    } else if (arg == "--jobs") {
      opt.jobs = exec::parse_jobs(value().c_str());
      if (opt.jobs == 0) usage_error("bad --jobs value");
    } else {
      usage_error(("unknown argument: " + arg).c_str());
    }
  }
  return opt;
}

ChaosRunConfig make_run_config(const Options& opt, std::uint64_t seed,
                               FaultSchedule schedule) {
  ChaosRunConfig cfg;
  cfg.protocol = opt.protocol;
  cfg.n = opt.n;
  cfg.delta = milliseconds(opt.delta_ms);
  cfg.duration = milliseconds(opt.duration_ms);
  cfg.seed = seed;
  cfg.schedule = std::move(schedule);
  cfg.inject_bug = opt.inject_bug;
  cfg.flight_path = opt.flight;
  cfg.latency_oracle = opt.latency_oracle;
  if (opt.fsync_us > 0) {
    cfg.enable_wal = true;
    cfg.wal.fsync_base = microseconds(opt.fsync_us);
  }
  return cfg;
}

GenerateOptions make_gen_options(const Options& opt) {
  GenerateOptions gen;
  gen.n = opt.n;
  gen.adversary_pool = std::min(opt.adversary, (opt.n - 1) / 3);
  gen.adversary_strategies = opt.adversary_strategies;
  // Adversary placements are budgeted against f with the crash pool.
  gen.crash_pool = (opt.n - 1) / 3 - gen.adversary_pool;
  gen.duration = milliseconds(opt.duration_ms);
  gen.stable_tail = milliseconds(std::min<std::int64_t>(opt.duration_ms / 2, 4000));
  gen.max_events = opt.max_events;
  gen.crash_heavy = opt.crash_heavy;
  return gen;
}

std::string reproducer_line(const Options& opt, std::uint64_t seed,
                            const FaultSchedule& schedule) {
  return "  " + reproducer_command(make_run_config(opt, seed, schedule)) + "\n";
}

/// Where a sweep records a failing seed's replay: the lowest failing seed
/// keeps `path`, each later one gets <stem>.seed<N>.json, so no postmortem
/// overwrites another.
std::string sweep_flight_path(const std::string& path, std::uint64_t seed, bool lowest) {
  if (lowest) return path;
  constexpr std::string_view kJson = ".json";
  const std::string stem = path.ends_with(kJson) ? path.substr(0, path.size() - kJson.size()) : path;
  return stem + ".seed" + std::to_string(seed) + ".json";
}

void print_reproducer(const Options& opt, std::uint64_t seed, const FaultSchedule& schedule) {
  const std::string line = reproducer_line(opt, seed, schedule);
  std::fputs(line.c_str(), stdout);
}

int replay(const Options& opt) {
  auto parsed = FaultSchedule::parse(opt.schedule);
  if (!parsed) usage_error("unparseable --schedule");
  const ChaosReport report = run_chaos(make_run_config(opt, opt.seed, *parsed));
  std::printf("protocol=%s seed=%llu schedule=%s\n", protocol_cli_tag(opt.protocol),
              static_cast<unsigned long long>(opt.seed), parsed->to_string().c_str());
  std::printf("digest=%016llx committed=%llu max_view=%llu verdict=%s\n",
              static_cast<unsigned long long>(report.digest),
              static_cast<unsigned long long>(report.committed_blocks),
              static_cast<unsigned long long>(report.max_view),
              report.ok() ? "OK" : report.failure().c_str());
  return report.ok() ? 0 : 1;
}

int fuzz(const Options& opt) {
  std::printf("fuzzing %s: %zu runs from seed %llu (n=%zu, %lldms runs)\n",
              protocol_cli_tag(opt.protocol), opt.runs, static_cast<unsigned long long>(opt.seed),
              opt.n, static_cast<long long>(opt.duration_ms));
  // Sweep first (concurrently under --jobs), recording failing schedules;
  // verdict lines stream in seed order through the reorder buffer. Shrinking
  // is deferred past the sweep so the sweep itself parallelises cleanly —
  // the same structure at every --jobs value, so output is byte-identical.
  std::vector<char> failed(opt.runs, 0);
  std::vector<FaultSchedule> failing(opt.runs);
  {
    exec::OrderedEmitter emit(opt.runs, stdout);
    exec::run_worlds(opt.jobs, opt.runs, [&](std::size_t i) {
      const std::uint64_t seed = opt.seed + i;
      const FaultSchedule schedule = generate_schedule(make_gen_options(opt), seed);
      // Flight recording is deferred to one deterministic replay after
      // shrinking — concurrent failing worlds must not race on the file.
      ChaosRunConfig cfg = make_run_config(opt, seed, schedule);
      cfg.flight_path.clear();
      const ChaosReport report = run_chaos(cfg);
      std::string out;
      if (report.ok()) {
        exec::appendf(out, "  seed %llu: ok (%llu blocks, %zu fault events)\n",
                      static_cast<unsigned long long>(seed),
                      static_cast<unsigned long long>(report.committed_blocks),
                      schedule.events.size());
      } else {
        exec::appendf(out, "  seed %llu: FAIL %s\n",
                      static_cast<unsigned long long>(seed), report.failure().c_str());
        failed[i] = 1;
        failing[i] = schedule;
      }
      emit.append(i, std::move(out));
      emit.complete(i);
    });
  }
  std::size_t failures = 0;
  for (std::size_t i = 0; i < opt.runs; ++i) {
    if (!failed[i]) continue;
    ++failures;
    const std::uint64_t seed = opt.seed + i;
    std::printf("  shrinking seed %llu's %zu-event schedule...\n",
                static_cast<unsigned long long>(seed), failing[i].events.size());
    const ShrinkOracle oracle = [&](const FaultSchedule& candidate) {
      // Oracle replays run by the hundred (and concurrently under --jobs);
      // none of them may write the flight recording.
      ChaosRunConfig cfg = make_run_config(opt, seed, candidate);
      cfg.flight_path.clear();
      return !run_chaos(cfg).ok();
    };
    const ShrinkResult shrunk = shrink_schedule(failing[i], oracle, 200, opt.jobs);
    std::printf("  minimal reproducer (%zu events, %zu oracle calls):\n",
                shrunk.schedule.events.size(), shrunk.oracle_calls);
    print_reproducer(opt, seed, shrunk.schedule);
    if (!opt.flight.empty()) {
      // One sequential replay of the minimal reproducer writes the postmortem.
      ChaosRunConfig cfg = make_run_config(opt, seed, shrunk.schedule);
      cfg.flight_path = sweep_flight_path(opt.flight, seed, failures == 1);
      run_chaos(cfg);
    }
  }
  std::printf("%zu/%zu runs ok\n", opt.runs - failures, opt.runs);
  return failures == 0 ? 0 : 1;
}

int smoke(Options opt) {
  const ProtocolKind protocols[] = {
      ProtocolKind::kSimpleMoonshot, ProtocolKind::kPipelinedMoonshot,
      ProtocolKind::kCommitMoonshot, ProtocolKind::kJolteon, ProtocolKind::kHotStuff};
  opt.duration_ms = 6'000;
  std::vector<char> bad(std::size(protocols), 0);
  exec::OrderedEmitter emit(std::size(protocols), stdout);
  exec::run_worlds(opt.jobs, std::size(protocols), [&](std::size_t i) {
    Options o = opt;
    o.protocol = protocols[i];
    const FaultSchedule schedule = generate_schedule(make_gen_options(o), o.seed);
    const ChaosReport first = run_chaos(make_run_config(o, o.seed, schedule));
    const ChaosReport second = run_chaos(make_run_config(o, o.seed, schedule));
    const bool deterministic = first.digest == second.digest;
    std::string out;
    exec::appendf(out, "  %s: %s digest=%016llx replay=%s\n", protocol_cli_tag(o.protocol),
                  first.ok() ? "ok" : first.failure().c_str(),
                  static_cast<unsigned long long>(first.digest),
                  deterministic ? "identical" : "DIVERGED");
    if (!first.ok() || !deterministic) {
      bad[i] = 1;
      out += reproducer_line(o, o.seed, schedule);
    }
    emit.append(i, std::move(out));
    emit.complete(i);
  });
  return std::count(bad.begin(), bad.end(), 1) == 0 ? 0 : 1;
}

/// Every strategy x every protocol, twice over: a singleton placement at n=4
/// with the latency-degradation oracle armed, and an f-sized coalition at
/// n=7 with the oracle off (two coalition members can lead consecutive
/// views, which legitimately exceeds the paper's single-failure bounds).
/// Each cell runs twice and must produce identical digests.
int adversary_smoke(Options opt) {
  const ProtocolKind protocols[] = {
      ProtocolKind::kSimpleMoonshot, ProtocolKind::kPipelinedMoonshot,
      ProtocolKind::kCommitMoonshot, ProtocolKind::kJolteon, ProtocolKind::kHotStuff};
  const std::size_t sizes[] = {4, 7};
  opt.duration_ms = 6'000;
  const std::vector<std::string> strategies = adversary::strategy_names();
  const std::size_t cells =
      strategies.size() * std::size(protocols) * std::size(sizes);
  std::vector<char> bad(cells, 0);
  exec::OrderedEmitter emit(cells, stdout);
  exec::run_worlds(opt.jobs, cells, [&](std::size_t i) {
    const std::string& strat = strategies[i / (std::size(protocols) * std::size(sizes))];
    const ProtocolKind p = protocols[(i / std::size(sizes)) % std::size(protocols)];
    const std::size_t n = sizes[i % std::size(sizes)];
    Options o = opt;
    o.protocol = p;
    o.n = n;
    o.latency_oracle = n == 4;
    const std::size_t f = (n - 1) / 3;
    FaultSchedule schedule;
    for (std::size_t k = 0; k < f; ++k) {
      FaultEvent ev;
      ev.type = FaultType::kAdversary;
      ev.start = ev.end = TimePoint{0};
      ev.nodes.push_back(static_cast<NodeId>(n - 1 - k));
      ev.adv_strategy = strat;
      schedule.events.push_back(std::move(ev));
    }
    const ChaosReport first = run_chaos(make_run_config(o, o.seed, schedule));
    const ChaosReport second = run_chaos(make_run_config(o, o.seed, schedule));
    const bool deterministic = first.digest == second.digest;
    std::string out;
    exec::appendf(out, "  %-13s %-2s n=%zu: %s digest=%016llx replay=%s\n", strat.c_str(),
                  protocol_cli_tag(p), n, first.ok() ? "ok" : first.failure().c_str(),
                  static_cast<unsigned long long>(first.digest),
                  deterministic ? "identical" : "DIVERGED");
    if (!first.ok() || !deterministic) {
      bad[i] = 1;
      out += reproducer_line(o, o.seed, schedule);
    }
    emit.append(i, std::move(out));
    emit.complete(i);
  });
  return std::count(bad.begin(), bad.end(), 1) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  if (!opt.schedule.empty()) return replay(opt);
  if (opt.smoke) return smoke(opt);
  if (opt.adversary_smoke) return adversary_smoke(opt);
  return fuzz(opt);
}
