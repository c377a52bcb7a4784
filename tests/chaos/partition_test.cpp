// Partition safety + heal liveness, parameterized over protocol × seed:
// all four protocols must stay safe while f nodes are partitioned away and
// regain liveness within bounded views once the partition heals.
#include <gtest/gtest.h>

#include "chaos/engine.hpp"
#include "chaos/runner.hpp"

namespace moonshot::chaos {
namespace {

// gtest has no printer for this struct, so each test's ctest name carries its
// raw bytes. An explicit zero field where the alignment padding would sit
// keeps those names identical from build to build.
struct PartitionCase {
  ProtocolKind protocol;
  std::uint32_t pad = 0;
  std::uint64_t seed;
};
static_assert(sizeof(PartitionCase) == 16, "PartitionCase must have no padding");

std::string case_name(const ::testing::TestParamInfo<PartitionCase>& info) {
  return std::string(protocol_tag(info.param.protocol)) + "_seed" +
         std::to_string(info.param.seed);
}

ChaosRunConfig base_config(const PartitionCase& pc) {
  ChaosRunConfig cfg;
  cfg.protocol = pc.protocol;
  cfg.n = 4;  // f = 1
  cfg.delta = milliseconds(500);
  cfg.duration = seconds(10);
  cfg.seed = pc.seed;
  return cfg;
}

class PartitionTest : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionTest, SafeUnderFSizedPartitionLiveAfterHeal) {
  // Isolate one node (= f) for 3.7 s mid-run: the remaining 3 = 2f+1 keep
  // committing; after the heal the isolated node must catch up and every
  // honest node must commit again in the tail.
  ChaosRunConfig cfg = base_config(GetParam());
  const auto sched = FaultSchedule::parse("part(1500-5200;3)");
  ASSERT_TRUE(sched.has_value());
  cfg.schedule = *sched;
  const ChaosReport report = run_chaos(cfg);
  EXPECT_TRUE(report.ok()) << protocol_name(cfg.protocol) << ": " << report.failure();
  EXPECT_GT(report.committed_blocks, 0u);
}

TEST_P(PartitionTest, SafeUnderSplitBrainLiveAfterHeal) {
  // 2|2 split: neither side has a quorum, so commits stall — the interesting
  // property is that no side commits conflicting blocks and that progress
  // resumes once the halves rejoin.
  ChaosRunConfig cfg = base_config(GetParam());
  const auto sched = FaultSchedule::parse("part(1500-5200;0,1|2,3)");
  ASSERT_TRUE(sched.has_value());
  cfg.schedule = *sched;
  const ChaosReport report = run_chaos(cfg);
  EXPECT_TRUE(report.ok()) << protocol_name(cfg.protocol) << ": " << report.failure();
}

std::vector<PartitionCase> make_cases() {
  std::vector<PartitionCase> cases;
  for (const auto p : {ProtocolKind::kSimpleMoonshot, ProtocolKind::kPipelinedMoonshot,
                       ProtocolKind::kCommitMoonshot, ProtocolKind::kJolteon}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) cases.push_back({.protocol = p, .seed = seed});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Protocols, PartitionTest, ::testing::ValuesIn(make_cases()), case_name);

// After the heal the partitioned node must rejoin the same view frontier:
// honest views converge to within a couple of views of each other.
class PartitionViewConvergenceTest : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionViewConvergenceTest, ViewsReconvergeAfterHeal) {
  const PartitionCase pc = GetParam();
  ExperimentConfig ecfg;
  ecfg.protocol = pc.protocol;
  ecfg.n = 4;
  ecfg.delta = milliseconds(500);
  ecfg.duration = seconds(10);
  ecfg.seed = pc.seed;
  Experiment e(ecfg);
  const auto sched = FaultSchedule::parse("part(1500-5200;3)");
  ASSERT_TRUE(sched.has_value());
  ChaosEngine engine(e, *sched, pc.seed);
  engine.arm();
  e.start();
  e.scheduler().run_until(TimePoint{ecfg.duration.count()});

  View lo = ~View{0}, hi = 0;
  for (NodeId id = 0; id < ecfg.n; ++id) {
    const View v = e.node(id).current_view();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LE(hi - lo, 2u) << protocol_name(pc.protocol) << " views span [" << lo << ", " << hi
                         << "] after heal";
  EXPECT_GT(lo, 1u);
}

std::vector<PartitionCase> convergence_cases() {
  std::vector<PartitionCase> cases;
  for (const auto p : {ProtocolKind::kSimpleMoonshot, ProtocolKind::kPipelinedMoonshot,
                       ProtocolKind::kCommitMoonshot, ProtocolKind::kJolteon}) {
    cases.push_back({.protocol = p, .seed = 5});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Protocols, PartitionViewConvergenceTest,
                         ::testing::ValuesIn(convergence_cases()), case_name);

}  // namespace
}  // namespace moonshot::chaos
