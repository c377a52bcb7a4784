// Randomized property tests: sweeps of (protocol × seed × fault mix ×
// network conditions), asserting the invariants every run must satisfy:
//
//  * Safety        — honest commit logs are prefix-comparable.
//  * Liveness      — commits happen once the network stabilizes.
//  * Reorg resilience (Moonshots) — every honest-leader view after GST whose
//                    leader is honest contributes a block to the chain.
//  * Chain shape   — heights increase by 1, views strictly increase.
//  * Conformance   — every honest sender obeys the per-sender behavioural
//                    rules (vote/propose/timeout discipline), not just the
//                    end-state invariants.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/world_runner.hpp"
#include "harness/conformance.hpp"
#include "harness/experiment.hpp"
#include "support/prng.hpp"

namespace moonshot {
namespace {

// gtest has no printer for this struct, so each test's ctest name carries its
// raw bytes. An explicit zero field where the alignment padding would sit
// keeps those names identical from build to build.
struct PropertyCase {
  ProtocolKind protocol;
  std::uint32_t pad = 0;
  std::uint64_t seed;
};
static_assert(sizeof(PropertyCase) == 16, "PropertyCase must have no padding");

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  return std::string(protocol_tag(info.param.protocol)) + "_seed" +
         std::to_string(info.param.seed);
}

ExperimentConfig random_config(const PropertyCase& pc) {
  // Derive all the scenario parameters from the seed.
  Prng prng(pc.seed * 7919);
  ExperimentConfig cfg;
  cfg.protocol = pc.protocol;
  cfg.n = 4 + 3 * prng.next_below(3);  // 4, 7 or 10 nodes
  const std::size_t f = (cfg.n - 1) / 3;
  cfg.crashed = prng.next_below(f + 1);  // 0..f faults
  cfg.fault_kind = prng.next_below(2) ? FaultKind::kCrash : FaultKind::kEquivocate;
  const ScheduleKind schedules[] = {ScheduleKind::kRoundRobin, ScheduleKind::kB,
                                    ScheduleKind::kWM, ScheduleKind::kWJ};
  cfg.schedule = schedules[prng.next_below(4)];
  cfg.delta = milliseconds(30 + static_cast<std::int64_t>(prng.next_below(70)));
  cfg.duration = seconds(8);
  cfg.seed = pc.seed;
  // Randomly either an ideal LAN or the paper's WAN matrix.
  if (prng.next_below(2)) {
    cfg.net.matrix = net::LatencyMatrix::uniform(
        milliseconds(1 + static_cast<std::int64_t>(prng.next_below(8))), 1);
    cfg.net.regions_used = 1;
  } else {
    cfg.net.matrix = net::LatencyMatrix::aws5();
    cfg.net.regions_used = 5;
    cfg.delta = milliseconds(400);  // Δ must cover WAN latency
  }
  cfg.net.jitter = 0.1;
  // Random GST in the first quarter of the run.
  cfg.net.adversarial_before_gst = prng.next_below(2) == 1;
  cfg.net.gst = TimePoint{static_cast<std::int64_t>(prng.next_below(2) ? seconds(2).count() : 0)};
  cfg.verify_signatures = true;
  return cfg;
}

class PropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(PropertyTest, InvariantsHold) {
  const auto cfg = random_config(GetParam());
  Experiment e(cfg);
  ConformanceChecker checker = make_conformance_checker(e);
  e.network().set_tap([&checker](NodeId from, const Message& m) { checker.observe(from, m); });
  const auto result = e.run();

  // Conformance: per-sender behavioural rules hold for every honest node.
  const auto conf = checker.violations();
  EXPECT_TRUE(conf.empty()) << protocol_name(cfg.protocol) << " n=" << cfg.n
                            << ": " << (conf.empty() ? "" : conf.front());

  // Safety.
  EXPECT_TRUE(result.logs_consistent)
      << protocol_name(cfg.protocol) << " n=" << cfg.n << " crashed=" << cfg.crashed
      << " schedule=" << schedule_name(cfg.schedule);

  // Liveness: the run is long enough (>= 8s with Δ <= 400ms) that commits
  // must have happened after stabilization.
  EXPECT_GT(result.summary.committed_blocks, 0u)
      << protocol_name(cfg.protocol) << " n=" << cfg.n << " crashed=" << cfg.crashed;

  // Chain shape on every honest node.
  for (NodeId id = 0; id < cfg.n; ++id) {
    if (e.is_faulty(id)) continue;
    const auto& chain = e.node(id).commit_log().blocks();
    for (std::size_t i = 0; i < chain.size(); ++i) {
      EXPECT_EQ(chain[i]->height(), i + 1);
      if (i > 0) {
        EXPECT_EQ(chain[i]->parent(), chain[i - 1]->id());
        EXPECT_GT(chain[i]->view(), chain[i - 1]->view());
      }
    }
  }
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  for (const auto p : {ProtocolKind::kSimpleMoonshot, ProtocolKind::kPipelinedMoonshot,
                       ProtocolKind::kCommitMoonshot, ProtocolKind::kJolteon}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) cases.push_back({.protocol = p, .seed = seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PropertyTest, ::testing::ValuesIn(make_cases()), case_name);

// Wider sweep over fresh seeds, run as one test with the worlds executing
// concurrently (exec::run_worlds). gtest's EXPECT machinery is not
// thread-safe, so each world reduces its invariant checks to a failure
// string in its own slot and all asserting happens sequentially after —
// wall-clock is roughly the slowest single world instead of the sum.
TEST(PropertySweepParallel, InvariantsHoldAcrossSeeds) {
  std::vector<PropertyCase> cases;
  for (const auto p : {ProtocolKind::kSimpleMoonshot, ProtocolKind::kPipelinedMoonshot,
                       ProtocolKind::kCommitMoonshot, ProtocolKind::kJolteon}) {
    for (std::uint64_t seed = 100; seed <= 102; ++seed) {
      cases.push_back({.protocol = p, .seed = seed});
    }
  }

  std::vector<std::string> failures(cases.size());
  exec::run_worlds(exec::test_jobs(), cases.size(), [&](std::size_t i) {
    const auto cfg = random_config(cases[i]);
    Experiment e(cfg);
    ConformanceChecker checker = make_conformance_checker(e);
    e.network().set_tap(
        [&checker](NodeId from, const Message& m) { checker.observe(from, m); });
    const auto result = e.run();

    std::string fail;
    if (const auto conf = checker.violations(); !conf.empty())
      fail += "conformance: " + conf.front() + "; ";
    if (!result.logs_consistent) fail += "commit logs diverged; ";
    if (result.summary.committed_blocks == 0) fail += "no commits; ";
    for (NodeId id = 0; id < cfg.n; ++id) {
      if (e.is_faulty(id)) continue;
      const auto& chain = e.node(id).commit_log().blocks();
      for (std::size_t h = 0; h < chain.size(); ++h) {
        if (chain[h]->height() != h + 1) fail += "height gap; ";
        if (h > 0 && (chain[h]->parent() != chain[h - 1]->id() ||
                      chain[h]->view() <= chain[h - 1]->view()))
          fail += "broken parent/view link; ";
      }
    }
    failures[i] = fail;
  });

  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(failures[i], "") << protocol_name(cases[i].protocol)
                               << " seed=" << cases[i].seed;
  }
}

// Reorg resilience as a universal property: in a crash-fault happy network
// (GST = 0), every view led by an honest node whose view produced a commit
// window must appear in the chain. We check the weaker but precise form:
// every block that became certified at any honest node ends up in every
// honest node's chain prefix (no certified-then-orphaned blocks), for
// Moonshots only.
class ReorgPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ReorgPropertyTest, HonestLeaderViewsAllCommitted) {
  auto cfg = random_config(GetParam());
  cfg.fault_kind = FaultKind::kCrash;
  cfg.net.adversarial_before_gst = false;
  cfg.net.gst = TimePoint::zero();
  Experiment e(cfg);
  e.run();

  // Find the longest honest chain and the set of views that committed.
  std::set<View> committed_views;
  View max_committed_view = 0;
  for (NodeId id = 0; id < cfg.n; ++id) {
    if (e.is_faulty(id)) continue;
    for (const auto& b : e.node(id).commit_log().blocks()) {
      committed_views.insert(b->view());
      max_committed_view = std::max(max_committed_view, b->view());
    }
  }
  if (max_committed_view < 2) GTEST_SKIP() << "run too short to judge";

  // Reorg resilience: every honest-led view below the committed frontier
  // must be present — an honest proposal after GST is never lost.
  std::size_t missing = 0;
  for (View v = 1; v < max_committed_view; ++v) {
    const NodeId leader = (cfg.schedule == ScheduleKind::kRoundRobin)
                              ? static_cast<NodeId>((v - 1) % cfg.n)
                              : kNoNode;
    if (leader == kNoNode) break;  // only meaningful for round-robin here
    const bool leader_honest = !e.is_faulty(leader);
    if (leader_honest && !committed_views.count(v)) ++missing;
  }
  EXPECT_EQ(missing, 0u) << protocol_name(cfg.protocol);
}

std::vector<PropertyCase> moonshot_cases() {
  std::vector<PropertyCase> cases;
  for (const auto p : {ProtocolKind::kSimpleMoonshot, ProtocolKind::kPipelinedMoonshot,
                       ProtocolKind::kCommitMoonshot}) {
    for (std::uint64_t seed = 10; seed <= 13; ++seed) {
      cases.push_back({.protocol = p, .seed = seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Moonshots, ReorgPropertyTest, ::testing::ValuesIn(moonshot_cases()),
                         case_name);

}  // namespace
}  // namespace moonshot
