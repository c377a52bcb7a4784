#include "chaos/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "adversary/oracle.hpp"
#include "chaos/engine.hpp"
#include "harness/conformance.hpp"
#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "support/fnv.hpp"

namespace moonshot::chaos {

namespace {

/// Folds the full honest commit state + metrics + execution order into one
/// value. Any divergence between two runs of the same scenario shows up here.
std::uint64_t run_digest(Experiment& e, const ExperimentResult& r) {
  std::uint64_t h = kFnv1aOffsetBasis;
  for (NodeId id = 0; id < e.node_count(); ++id) {
    if (e.is_faulty(id)) continue;
    const auto& blocks = e.node(id).commit_log().blocks();
    fnv1a_fold(h, id);
    fnv1a_fold(h, blocks.size());
    for (const BlockPtr& b : blocks) {
      for (const std::uint8_t byte : b->id()) fnv1a_fold(h, byte);
    }
    fnv1a_fold(h, e.node(id).current_view());
  }
  fnv1a_fold(h, r.summary.committed_blocks);
  fnv1a_fold(h, r.net_stats.messages_delivered);
  fnv1a_fold(h, r.net_stats.messages_dropped);
  fnv1a_fold(h, r.net_stats.messages_duplicated);
  fnv1a_fold(h, e.scheduler().fingerprint());
  return h;
}

/// The --inject-bug oracle: a partition window overlapping a crash window is
/// reported as a (fake) safety violation, giving tests a deterministic
/// "bug" whose minimal reproducer is exactly two events.
bool injected_bug_fires(const FaultSchedule& schedule) {
  for (const FaultEvent& a : schedule.events) {
    if (a.type != FaultType::kPartition) continue;
    for (const FaultEvent& b : schedule.events) {
      if (b.type != FaultType::kCrash) continue;
      if (a.start < b.end && b.start < a.end) return true;
    }
  }
  return false;
}

}  // namespace

std::string ChaosReport::failure() const {
  if (ok()) return "";
  std::ostringstream os;
  if (!safety_ok) os << "[safety] ";
  if (!liveness_ok) os << "[liveness] ";
  if (!conformance_ok) os << "[conformance] ";
  if (!chain_shape_ok) os << "[chain-shape] ";
  if (!latency_ok) os << "[latency] ";
  for (std::size_t i = 0; i < violations.size() && i < 3; ++i) os << violations[i] << "; ";
  if (violations.size() > 3) os << "(+" << violations.size() - 3 << " more)";
  return os.str();
}

ChaosReport run_chaos(const ChaosRunConfig& cfg) {
  // A flight recording needs an event stream; give the run a private tracer
  // when the caller wants a recording but supplied none.
  std::unique_ptr<obs::Tracer> flight_tracer;
  obs::Tracer* tracer = cfg.tracer;
  if (!cfg.flight_path.empty() && tracer == nullptr) {
    flight_tracer = std::make_unique<obs::Tracer>(cfg.n);
    tracer = flight_tracer.get();
  }

  ExperimentConfig ecfg;
  ecfg.protocol = cfg.protocol;
  ecfg.n = cfg.n;
  ecfg.delta = cfg.delta;
  ecfg.duration = cfg.duration;
  ecfg.seed = cfg.seed;
  ecfg.tracer = tracer;
  // The private flight tracer must observe the run without perturbing it:
  // the queue-depth probe schedules a real event every Δ, which would shift
  // every seq and change the replay digest whenever --flight is toggled.
  // Callers passing their own tracer opt into that (it folds into the
  // digest explicitly below).
  ecfg.sample_queue_depth = cfg.tracer != nullptr;
  ecfg.net = cfg.net;
  ecfg.leader_order = cfg.leader_order;
  if (cfg.byzantine > 0) {
    ecfg.crashed = cfg.byzantine;
    ecfg.fault_kind = FaultKind::kEquivocate;
  }
  // adv() placements become framework adversaries, built before start (a
  // node cannot turn Byzantine mid-run); the engine never arms the events.
  ecfg.adversaries = cfg.schedule.adversaries();
  ecfg.wal = cfg.wal;
  ecfg.enable_wal = cfg.enable_wal || cfg.schedule.wants_wal();

  Experiment e(ecfg);
  ConformanceChecker checker = make_conformance_checker(e, cfg.schedule.amnesia_targets());
  e.network().set_tap([&checker](NodeId from, const Message& m) { checker.observe(from, m); });

  ChaosEngine engine(e, cfg.schedule, cfg.seed);
  engine.arm();
  e.start();

  const TimePoint end{cfg.duration.count()};
  const TimePoint heal = std::min(cfg.schedule.last_heal(), end);

  // Phase 1: run through the fault window, then snapshot per-node progress.
  e.scheduler().run_until(heal);
  std::vector<std::size_t> committed_at_heal(cfg.n, 0);
  for (NodeId id = 0; id < cfg.n; ++id) {
    if (!e.is_faulty(id)) committed_at_heal[id] = e.node(id).commit_log().size();
  }

  // Phase 2: the fault-free tail.
  e.scheduler().run_until(end);

  // Liveness = eventual recovery, but pacemaker backoff after a long fault
  // window can legitimately exceed the scheduled tail (one backed-off view
  // timer alone can be > 4s at Δ=500ms). If any honest node shows no commit
  // growth yet, grant one deterministic grace extension before judging; a
  // real deadlock still fails, a slow-but-live recovery passes.
  auto all_grew = [&] {
    for (NodeId id = 0; id < cfg.n; ++id) {
      if (e.is_faulty(id)) continue;
      if (e.node(id).commit_log().size() <= committed_at_heal[id]) return false;
    }
    return true;
  };
  if (cfg.check_liveness && heal < end && !all_grew()) {
    e.scheduler().run_until(end + cfg.delta * 16);
  }

  ChaosReport report;
  const ExperimentResult r = e.result();
  report.committed_blocks = r.summary.committed_blocks;
  report.max_view = r.max_view;
  report.digest = run_digest(e, r);
  if (cfg.tracer) {
    // Extend determinism coverage over the trace stream: any event recorded
    // in a different order or with different contents diverges the digest.
    std::uint64_t h = report.digest;
    fnv1a_fold(h, cfg.tracer->digest());
    fnv1a_fold(h, cfg.tracer->total_recorded());
    report.digest = h;
  }

  if (!r.logs_consistent) {
    report.safety_ok = false;
    report.violations.push_back("honest commit logs diverge");
  }
  if (cfg.inject_bug && injected_bug_fires(cfg.schedule)) {
    report.safety_ok = false;
    report.violations.push_back("injected bug: partition overlaps crash");
  }

  for (NodeId id = 0; id < cfg.n; ++id) {
    if (e.is_faulty(id)) continue;
    const auto& blocks = e.node(id).commit_log().blocks();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (blocks[i]->height() != i + 1) {
        report.chain_shape_ok = false;
        std::ostringstream os;
        os << "node " << id << ": height gap at log index " << i;
        report.violations.push_back(os.str());
        break;
      }
    }
  }

  if (cfg.check_liveness && heal < end) {
    for (NodeId id = 0; id < cfg.n; ++id) {
      if (e.is_faulty(id)) continue;
      if (e.node(id).commit_log().size() <= committed_at_heal[id]) {
        report.liveness_ok = false;
        std::ostringstream os;
        os << "node " << id << ": no commits after heal (stuck at "
           << committed_at_heal[id] << " blocks, view " << e.node(id).current_view() << ")";
        report.violations.push_back(os.str());
      }
    }
  }

  std::vector<std::string> conf = checker.violations();
  if (!conf.empty()) {
    report.conformance_ok = false;
    for (auto& v : conf) report.violations.push_back("conformance: " + std::move(v));
  }

  if (cfg.latency_oracle) {
    adversary::LatencyOracle::Config ocfg;
    ocfg.protocol = protocol_cli_tag(cfg.protocol);
    ocfg.delta = cfg.delta;
    ocfg.hop = cfg.oracle_hop > Duration(0) ? cfg.oracle_hop : cfg.delta / 4;
    ocfg.n = cfg.n;
    ocfg.leader_of = [leaders = e.leaders()](View v) { return leaders->leader(v); };
    adversary::LatencyOracle oracle(std::move(ocfg), cfg.schedule.adversaries());
    for (const auto& v : oracle.check(e.metrics().per_view_latencies(r.quorum))) {
      report.latency_ok = false;
      report.violations.push_back("latency: " + v.detail);
    }
  }

  if (!report.ok() && !cfg.flight_path.empty()) {
    obs::Registry reg;
    e.export_metrics(reg);
    obs::FlightContext fctx;
    fctx.reason = report.failure();
    fctx.violations = report.violations;
    fctx.protocol = protocol_cli_tag(cfg.protocol);
    fctx.schedule = cfg.schedule.to_string();
    fctx.seed = cfg.seed;
    fctx.nodes = cfg.n;
    fctx.delta_ms = to_ms(cfg.delta);
    fctx.trigger = e.scheduler().now();
    std::ostringstream repro;
    repro << "chaos_fuzz --protocol " << protocol_cli_tag(cfg.protocol) << " --n "
          << cfg.n << " --seed " << cfg.seed << " --delta-ms "
          << static_cast<long long>(to_ms(cfg.delta)) << " --duration-ms "
          << static_cast<long long>(to_ms(cfg.duration)) << " --schedule '"
          << cfg.schedule.to_string() << "'";
    if (cfg.inject_bug) repro << " --inject-bug";
    fctx.repro = repro.str();
    if (!obs::write_flight_recording(cfg.flight_path, fctx, tracer, &reg))
      std::fprintf(stderr, "flight: cannot write %s\n", cfg.flight_path.c_str());
  }
  return report;
}

}  // namespace moonshot::chaos
