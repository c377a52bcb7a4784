// The active-Byzantine adversary framework, end to end: the strategy
// registry, coalition state sharing, adv() grammar round-trips, generator
// placement budgets, per-strategy safety smoke across protocols, detection
// counters, replay determinism, the paper-derived latency-degradation
// oracle, and ddmin shrinking of an adversary counterexample.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "adversary/coalition.hpp"
#include "adversary/oracle.hpp"
#include "adversary/spec.hpp"
#include "adversary/strategy.hpp"
#include "chaos/generate.hpp"
#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"
#include "harness/experiment.hpp"
#include "mc/explorer.hpp"
#include "net/topology.hpp"
#include "obs/registry.hpp"

namespace moonshot {
namespace {

adversary::AdversarySpec spec_of(NodeId node, std::string strategy, View from = 1,
                                 View to = 0) {
  adversary::AdversarySpec sp;
  sp.node = node;
  sp.strategy = std::move(strategy);
  sp.view_from = from;
  sp.view_to = to;
  return sp;
}

chaos::FaultEvent adv_event(NodeId node, std::string strategy, View from = 1,
                            View to = 0) {
  chaos::FaultEvent e;
  e.type = chaos::FaultType::kAdversary;
  e.nodes = {node};
  e.adv_strategy = std::move(strategy);
  e.adv_view_from = from;
  e.adv_view_to = to;
  return e;
}

constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kSimpleMoonshot, ProtocolKind::kPipelinedMoonshot,
    ProtocolKind::kCommitMoonshot, ProtocolKind::kJolteon, ProtocolKind::kHotStuff};

// ---------------------------------------------------------------- registry

TEST(AdversaryRegistry, CatalogueCoversTheStrategyLibrary) {
  const auto& names = adversary::strategy_names();
  const std::set<std::string> have(names.begin(), names.end());
  for (const char* expected : {"equivocate", "silent", "delay", "partial", "fork",
                               "stale", "timeout-equiv", "withhold", "badsig",
                               "future-flood"}) {
    EXPECT_TRUE(have.count(expected)) << "missing strategy: " << expected;
    EXPECT_TRUE(adversary::known_strategy(expected));
  }
  EXPECT_EQ(names.size(), have.size()) << "duplicate registry entries";
}

TEST(AdversaryRegistry, MakeStrategyBuildsEveryRegisteredName) {
  for (const auto& name : adversary::strategy_names()) {
    const auto strat = adversary::make_strategy(spec_of(3, name));
    ASSERT_NE(strat, nullptr) << name;
    EXPECT_EQ(strat->spec().strategy, name);
    EXPECT_FALSE(strat->name().empty());
  }
  EXPECT_EQ(adversary::make_strategy(spec_of(3, "no-such-strategy")), nullptr);
  EXPECT_FALSE(adversary::known_strategy("no-such-strategy"));
}

TEST(AdversaryRegistry, SpecViewRangeGatesActivity) {
  const auto sp = spec_of(2, "silent", 3, 7);
  EXPECT_FALSE(sp.active_at(2));
  EXPECT_TRUE(sp.active_at(3));
  EXPECT_TRUE(sp.active_at(7));
  EXPECT_FALSE(sp.active_at(8));
  const auto unbounded = spec_of(2, "silent", 5, 0);
  EXPECT_TRUE(unbounded.active_at(500));
  EXPECT_FALSE(unbounded.active_at(4));
}

// ---------------------------------------------------------------- coalition

QcPtr make_qc(View v) {
  auto qc = std::make_shared<QuorumCert>();
  qc->view = v;
  return qc;
}

TEST(AdversaryCoalition, ObserveKeepsTheHighestCertificate) {
  adversary::CoalitionState c;
  c.members = {2, 3};
  EXPECT_TRUE(c.contains(2));
  EXPECT_FALSE(c.contains(0));

  c.observe(nullptr);
  EXPECT_EQ(c.high_qc, nullptr);
  EXPECT_EQ(c.shares, 0u);

  const QcPtr low = make_qc(3);
  const QcPtr high = make_qc(9);
  c.observe(low);
  EXPECT_EQ(c.high_qc, low);
  c.observe(high);
  EXPECT_EQ(c.high_qc, high);
  c.observe(low);  // lower-ranked: ignored
  EXPECT_EQ(c.high_qc, high);
  EXPECT_EQ(c.shares, 2u);
}

TEST(AdversaryCoalition, ExperimentMembersShareOneState) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 7;
  cfg.duration = seconds(5);
  cfg.adversaries = {spec_of(5, "fork"), spec_of(6, "fork")};
  Experiment e(cfg);
  ASSERT_NE(e.coalition(), nullptr);
  EXPECT_TRUE(e.coalition()->contains(5));
  EXPECT_TRUE(e.coalition()->contains(6));
  EXPECT_TRUE(e.is_adversary(5));
  EXPECT_TRUE(e.is_adversary(6));
  EXPECT_FALSE(e.is_adversary(0));

  const ExperimentResult res = e.run();
  EXPECT_TRUE(res.logs_consistent);
  EXPECT_GT(res.summary.committed_blocks, 0u);
  // Members observed improving certificates through the shared state.
  EXPECT_GT(e.coalition()->shares, 0u);
}

// ---------------------------------------------------------------- grammar

TEST(AdvGrammar, MinimalFormRoundTripsByteForByte) {
  const std::string text = "adv(0-0;n=3;s=silent)";
  const auto sched = chaos::FaultSchedule::parse(text);
  ASSERT_TRUE(sched.has_value());
  ASSERT_EQ(sched->events.size(), 1u);
  const chaos::FaultEvent& e = sched->events[0];
  EXPECT_EQ(e.type, chaos::FaultType::kAdversary);
  ASSERT_EQ(e.nodes.size(), 1u);
  EXPECT_EQ(e.nodes[0], 3u);
  EXPECT_EQ(e.adv_strategy, "silent");
  EXPECT_EQ(e.adv_view_from, 1u);
  EXPECT_EQ(e.adv_view_to, 0u);
  EXPECT_EQ(sched->to_string(), text);
}

TEST(AdvGrammar, FullFormRoundTripsByteForByte) {
  for (const std::string& text :
       {std::string("adv(0-0;n=3;s=delay;v=2-9;d=800)"),
        std::string("adv(0-0;n=2;s=partial;q=2)"),
        std::string("adv(0-0;n=1;s=timeout-equiv;v=4-0)")}) {
    const auto sched = chaos::FaultSchedule::parse(text);
    ASSERT_TRUE(sched.has_value()) << text;
    EXPECT_EQ(sched->to_string(), text);
  }
}

TEST(AdvGrammar, ProgrammaticEventSurvivesSerialization) {
  chaos::FaultSchedule sched;
  chaos::FaultEvent e = adv_event(3, "delay", 2, 9);
  e.delay = milliseconds(800);
  sched.events.push_back(e);
  sched.events.push_back(adv_event(2, "withhold"));

  const auto parsed = chaos::FaultSchedule::parse(sched.to_string());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_string(), sched.to_string());
  // The placement specs — what the experiment actually builds — are equal.
  EXPECT_EQ(parsed->adversaries(), sched.adversaries());
}

TEST(AdvGrammar, RejectsUnknownStrategyAndMalformedEvents) {
  EXPECT_FALSE(chaos::FaultSchedule::parse("adv(0-0;n=3;s=bogus)").has_value());
  EXPECT_FALSE(chaos::FaultSchedule::parse("adv(0-0;n=3;s=)").has_value());
  EXPECT_FALSE(chaos::FaultSchedule::parse("adv(0-0").has_value());
}

// ---------------------------------------------------------------- generator

TEST(AdversaryGenerator, PlacementsRespectBudgetAndPool) {
  chaos::GenerateOptions opt;
  opt.n = 7;
  opt.crash_pool = 0;
  opt.adversary_pool = 2;
  opt.adversary_strategies = {"silent", "fork"};
  std::size_t with_adversary = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const chaos::FaultSchedule sched = chaos::generate_schedule(opt, seed);
    const auto advs = sched.adversaries();
    EXPECT_LE(advs.size(), 2u) << "seed " << seed;
    with_adversary += advs.empty() ? 0 : 1;
    std::set<NodeId> nodes;
    for (const auto& sp : advs) {
      // Highest ids only (disjoint from the low-id crash pool), and only
      // strategies from the requested pool.
      EXPECT_GE(sp.node, 5u) << "seed " << seed;
      EXPECT_TRUE(sp.strategy == "silent" || sp.strategy == "fork")
          << "seed " << seed << " drew " << sp.strategy;
      nodes.insert(sp.node);
    }
    EXPECT_EQ(nodes.size(), advs.size()) << "duplicate placement, seed " << seed;
  }
  EXPECT_GT(with_adversary, 0u) << "pool was configured but never drawn";
}

// ------------------------------------------------------------- safety smoke

TEST(AdversarySafety, EveryStrategySingletonOnPipelinedMoonshot) {
  for (const auto& name : adversary::strategy_names()) {
    chaos::ChaosRunConfig cfg;
    cfg.protocol = ProtocolKind::kPipelinedMoonshot;
    cfg.n = 4;
    cfg.duration = seconds(5);
    cfg.schedule.events.push_back(adv_event(3, name));
    const chaos::ChaosReport rep = chaos::run_chaos(cfg);
    EXPECT_TRUE(rep.ok()) << name << ": " << rep.failure();
    EXPECT_GT(rep.committed_blocks, 0u) << name;
  }
}

TEST(AdversarySafety, SilentLeaderAcrossAllProtocols) {
  for (const ProtocolKind p : kAllProtocols) {
    chaos::ChaosRunConfig cfg;
    cfg.protocol = p;
    cfg.n = 4;
    cfg.duration = seconds(6);
    cfg.schedule.events.push_back(adv_event(3, "silent"));
    const chaos::ChaosReport rep = chaos::run_chaos(cfg);
    EXPECT_TRUE(rep.ok()) << protocol_name(p) << ": " << rep.failure();
  }
}

TEST(AdversarySafety, MixedCoalitionAtFullFaultBudget) {
  // n=7 ⇒ f=2: a fork balancer and an equivocator share one coalition.
  chaos::ChaosRunConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 7;
  cfg.duration = seconds(6);
  cfg.schedule.events.push_back(adv_event(5, "fork"));
  cfg.schedule.events.push_back(adv_event(6, "equivocate"));
  const chaos::ChaosReport rep = chaos::run_chaos(cfg);
  EXPECT_TRUE(rep.ok()) << rep.failure();
  EXPECT_GT(rep.committed_blocks, 0u);
}

// ------------------------------------------------------- detection counters

TEST(AdversaryDetection, VoteEquivocationIsCountedAndExported) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 4;
  cfg.duration = seconds(6);
  cfg.adversaries = {spec_of(3, "equivocate")};
  Experiment e(cfg);
  e.run();

  obs::Registry reg;
  e.export_metrics(reg);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("adversary_detected_total"), std::string::npos);
  EXPECT_NE(text.find("vote-equivocation"), std::string::npos) << text;
}

TEST(AdversaryDetection, BadVoteSignatureIsCountedAndExported) {
  // Forged votes only show when nodes verify signatures.
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 4;
  cfg.duration = seconds(6);
  cfg.verify_signatures = true;
  cfg.adversaries = {spec_of(3, "badsig")};
  Experiment e(cfg);
  const ExperimentResult r = e.run();
  EXPECT_TRUE(r.logs_consistent);
  EXPECT_GT(r.summary.committed_blocks, 0u);

  obs::Registry reg;
  e.export_metrics(reg);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("vote-bad-sig"), std::string::npos) << text;
}

TEST(AdversaryDetection, FutureFloodIsCountedAndExported) {
  // Votes for views past the honest accumulators' window are dropped and
  // counted, and the registry reports them per detecting node.
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kCommitMoonshot;
  cfg.n = 4;
  cfg.duration = seconds(6);
  cfg.adversaries = {spec_of(3, "future-flood")};
  Experiment e(cfg);
  const ExperimentResult r = e.run();
  EXPECT_TRUE(r.logs_consistent);
  EXPECT_GT(r.summary.committed_blocks, 0u);
  for (NodeId id = 0; id < 3; ++id)
    EXPECT_GT(e.node(id).counters().vote_window_dropped, 0u) << "node " << id;

  obs::Registry reg;
  e.export_metrics(reg);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("vote-out-of-window"), std::string::npos) << text;
}

TEST(AdversaryDetection, TimeoutEquivocationIsCountedAndExported) {
  // The timeout equivocator only produces *conflicting* timeouts once it
  // holds a real lock, and honest nodes only time out when a leader goes
  // silent — so pair it with a silent leader after certificates exist.
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 7;
  cfg.duration = seconds(8);
  cfg.adversaries = {spec_of(6, "silent"), spec_of(5, "timeout-equiv")};
  Experiment e(cfg);
  e.run();

  obs::Registry reg;
  e.export_metrics(reg);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("timeout-equivocation"), std::string::npos) << text;
}

// ------------------------------------------------------ replay determinism

TEST(AdversaryReplay, SameWorldSameDigest) {
  chaos::ChaosRunConfig cfg;
  cfg.protocol = ProtocolKind::kCommitMoonshot;
  cfg.n = 4;
  cfg.duration = seconds(5);
  cfg.seed = 42;
  cfg.schedule.events.push_back(adv_event(3, "partial"));

  const chaos::ChaosReport a = chaos::run_chaos(cfg);
  const chaos::ChaosReport b = chaos::run_chaos(cfg);
  EXPECT_TRUE(a.ok()) << a.failure();
  EXPECT_EQ(a.digest, b.digest);

  // The textual schedule rebuilds the identical world.
  chaos::ChaosRunConfig replayed = cfg;
  replayed.schedule = *chaos::FaultSchedule::parse(cfg.schedule.to_string());
  EXPECT_EQ(chaos::run_chaos(replayed).digest, a.digest);
}

// ----------------------------------------------------------- latency oracle

// A quiet 1 ms LAN so observed latencies sit right against the analytic
// bounds (WAN jitter would blur the 5% acceptance band).
net::NetworkConfig lan_net() {
  net::NetworkConfig net;
  net.matrix = net::LatencyMatrix::uniform(milliseconds(1), 1);
  net.jitter = 0.0;
  return net;
}

struct OracleRun {
  std::vector<adversary::LatencyOracle::Violation> violations;
  double max_ratio = 0.0;  // tightest observed/bound over judged views
};

OracleRun run_oracle(const std::string& strategy, Duration hold = Duration(0)) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 4;
  cfg.delta = milliseconds(500);
  cfg.duration = seconds(12);
  cfg.net = lan_net();
  auto sp = spec_of(3, strategy);
  sp.delay = hold;
  cfg.adversaries = {sp};

  Experiment e(cfg);
  const ExperimentResult res = e.run();
  EXPECT_TRUE(res.logs_consistent);

  adversary::LatencyOracle::Config oc;
  oc.protocol = protocol_cli_tag(cfg.protocol);
  oc.delta = cfg.delta;
  oc.hop = milliseconds(2);  // 1 ms wire + processing headroom
  oc.n = cfg.n;
  const auto leaders = e.leaders();
  oc.leader_of = [leaders](View v) { return leaders->leader(v); };
  const adversary::LatencyOracle oracle(oc, cfg.adversaries);

  OracleRun out;
  const auto observed = e.metrics().per_view_latencies(res.quorum);
  EXPECT_GT(observed.size(), 4u);
  out.violations = oracle.check(observed);
  for (const auto& [view, latency] : observed) {
    const Duration b = oracle.bound(view);
    if (b == Duration(0)) continue;
    out.max_ratio = std::max(
        out.max_ratio, static_cast<double>(latency.count()) / static_cast<double>(b.count()));
  }
  return out;
}

TEST(LatencyOracle, SilentLeaderMatchesThePaperFailureBound) {
  const OracleRun run = run_oracle("silent");
  EXPECT_TRUE(run.violations.empty())
      << (run.violations.empty() ? "" : run.violations.front().detail);
  // The worst affected view sits within 5% of the 3Δ + 8δ analytic bound:
  // the bound is tight, not merely generous.
  EXPECT_GE(run.max_ratio, 0.95);
  EXPECT_LE(run.max_ratio, 1.05);
}

TEST(LatencyOracle, DelayedReleaseMatchesTheHoldBackBound) {
  const OracleRun run = run_oracle("delay");  // default hold-back: 2Δ
  EXPECT_TRUE(run.violations.empty())
      << (run.violations.empty() ? "" : run.violations.front().detail);
  EXPECT_GE(run.max_ratio, 0.95);
  EXPECT_LE(run.max_ratio, 1.05);
}

TEST(LatencyOracle, UnboundedProtocolsAreObservedNotJudged) {
  adversary::LatencyOracle::Config oc;
  oc.protocol = "hs";  // no paper-derived failure bound for 3-chain HotStuff
  oc.delta = milliseconds(500);
  oc.hop = milliseconds(1);
  oc.n = 4;
  oc.leader_of = [](View v) { return static_cast<NodeId>(v % 4); };
  const adversary::LatencyOracle oracle(oc, {spec_of(3, "silent")});
  for (View v = 1; v < 12; ++v) EXPECT_EQ(oracle.bound(v), Duration(0));
  EXPECT_TRUE(oracle.check({{1, seconds(30)}}).empty());
}

TEST(LatencyOracle, StrategiesWithoutDerivedBoundsAreNotJudged) {
  EXPECT_TRUE(adversary::strategy_degrades_latency("silent"));
  EXPECT_TRUE(adversary::strategy_degrades_latency("delay"));
  EXPECT_FALSE(adversary::strategy_degrades_latency("equivocate"));
  EXPECT_FALSE(adversary::strategy_degrades_latency("timeout-equiv"));
  EXPECT_FALSE(adversary::strategy_degrades_latency("withhold"));
}

// ------------------------------------------------------------ ddmin shrink

TEST(AdversaryShrink, DdminReducesToTheSingleAdvEvent) {
  // Twins-style rotation 0,3,3,1 hands the silent leader two consecutive
  // views: the view-1 block rides through both 3Δ timers, compounding past
  // the single-failure bound — a real latency violation the oracle latches.
  chaos::ChaosRunConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 4;
  cfg.delta = milliseconds(500);
  cfg.duration = seconds(10);
  cfg.leader_order = {0, 3, 3, 1};
  cfg.net = lan_net();
  cfg.latency_oracle = true;
  cfg.check_liveness = false;  // half the rotation is adversary-led

  chaos::FaultSchedule noisy;
  noisy.events.push_back(adv_event(3, "silent"));
  // Irrelevant background faults the shrinker must discard.
  chaos::FaultEvent d;
  d.type = chaos::FaultType::kDelay;
  d.start = TimePoint::zero() + milliseconds(4000);
  d.end = TimePoint::zero() + milliseconds(5000);
  d.delay = milliseconds(50);
  noisy.events.push_back(d);
  chaos::FaultEvent dup;
  dup.type = chaos::FaultType::kDuplicate;
  dup.start = TimePoint::zero() + milliseconds(1000);
  dup.end = TimePoint::zero() + milliseconds(3000);
  dup.percent = 20;
  noisy.events.push_back(dup);
  cfg.schedule = noisy;

  ASSERT_FALSE(chaos::run_chaos(cfg).ok()) << "expected a latency violation";

  const chaos::ShrinkOracle oracle = [&](const chaos::FaultSchedule& candidate) {
    chaos::ChaosRunConfig probe = cfg;
    probe.schedule = candidate;
    return !chaos::run_chaos(probe).ok();
  };
  const chaos::ShrinkResult shrunk = chaos::shrink_schedule(noisy, oracle, 80);

  ASSERT_EQ(shrunk.schedule.events.size(), 1u);
  EXPECT_EQ(shrunk.schedule.events[0].type, chaos::FaultType::kAdversary);
  // The minimal reproducer still round-trips through the grammar.
  const auto reparsed = chaos::FaultSchedule::parse(shrunk.schedule.to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->to_string(), shrunk.schedule.to_string());
  EXPECT_FALSE(chaos::run_chaos([&] {
                 chaos::ChaosRunConfig probe = cfg;
                 probe.schedule = *reparsed;
                 return probe;
               }())
                   .ok());
}

// ------------------------------------------------------------ mc placement

TEST(AdversaryMc, RandomExplorationWithStrategyPoolFindsNoViolation) {
  mc::McConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.strategy = mc::Strategy::kRandom;
  cfg.max_traces = 30;
  cfg.max_depth = 24;
  cfg.byzantine = 1;
  cfg.adversary_pool = {"equivocate", "fork"};
  cfg.check_liveness = false;  // the adversary never heals, so no tail check
  const mc::McResult res = mc::explore(cfg);
  EXPECT_TRUE(res.ok()) << res.violation.detail;
  EXPECT_EQ(res.stats.traces, 30u);
}

TEST(AdversaryMc, ExplicitTwinsPlacementStaysSafe) {
  mc::McConfig cfg;
  cfg.protocol = ProtocolKind::kCommitMoonshot;
  cfg.strategy = mc::Strategy::kRandom;
  cfg.max_traces = 20;
  cfg.max_depth = 20;
  cfg.leader_order = {0, 3, 3, 1};  // consecutive adversary-led views
  cfg.adversaries = {spec_of(3, "fork")};
  cfg.check_liveness = false;
  const mc::McResult res = mc::explore(cfg);
  EXPECT_TRUE(res.ok()) << res.violation.detail;
}

}  // namespace
}  // namespace moonshot
