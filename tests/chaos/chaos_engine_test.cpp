// Chaos engine unit tests: schedule grammar round-trips, generator
// determinism, bit-identical replay digests, and shrinking an injected
// seeded bug to a minimal reproducer.
#include <gtest/gtest.h>

#include "chaos/generate.hpp"
#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"

namespace moonshot::chaos {
namespace {

// --- schedule grammar ---------------------------------------------------------

TEST(FaultSchedule, RoundTripsEveryEventKind) {
  const char* text =
      "part(100-600;0,1|2,3);"
      "cut(200-300;0>1,2>3);"
      "drop(400-900;p=50;links=0>1);"
      "dup(500-700;p=20);"
      "delay(600-800;d=200;p=100);"
      "crash(700-701;n=2);"
      "burst(900-1200;d=300)";
  const auto parsed = FaultSchedule::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->events.size(), 7u);
  EXPECT_EQ(parsed->to_string(), text);
  // Parse(to_string()) is a fixpoint.
  const auto reparsed = FaultSchedule::parse(parsed->to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->to_string(), parsed->to_string());
}

TEST(FaultSchedule, RejectsMalformedInput) {
  EXPECT_FALSE(FaultSchedule::parse("part(").has_value());
  EXPECT_FALSE(FaultSchedule::parse("bogus(1-2;n=0)").has_value());
  EXPECT_FALSE(FaultSchedule::parse("part(600-100;0|1)").has_value());  // end < start
  EXPECT_FALSE(FaultSchedule::parse("drop(1-2;p=150)").has_value());    // p > 100
}

TEST(FaultSchedule, LastHealAndCrashTargets) {
  // Only m=amnesia crash targets are conformance-exempt; node 3 recovers
  // durably and is not listed.
  const auto s = FaultSchedule::parse(
      "crash(100-101;n=1;m=amnesia);drop(200-900;p=30);crash(300-301;n=2;m=amnesia);"
      "crash(400-401;n=3)");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->last_heal().ns, 900 * 1'000'000);
  const auto targets = s->amnesia_targets();
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0], 1u);
  EXPECT_EQ(targets[1], 2u);
}

// --- generator ----------------------------------------------------------------

TEST(GenerateSchedule, SameSeedSameSchedule) {
  GenerateOptions opt;
  const auto a = generate_schedule(opt, 42);
  const auto b = generate_schedule(opt, 42);
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_NE(a.to_string(), generate_schedule(opt, 43).to_string());
}

TEST(GenerateSchedule, RespectsStableTail) {
  GenerateOptions opt;
  opt.duration = seconds(10);
  opt.stable_tail = seconds(4);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto s = generate_schedule(opt, seed);
    EXPECT_LE(s.last_heal().ns, (opt.duration - opt.stable_tail).count())
        << "seed " << seed << ": " << s.to_string();
    EXPECT_GE(s.events.size(), opt.min_events);
    EXPECT_LE(s.events.size(), opt.max_events);
  }
}

// --- replay determinism -------------------------------------------------------

TEST(ChaosRunner, ReplayIsBitIdentical) {
  ChaosRunConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.seed = 7;
  cfg.duration = seconds(6);
  const auto sched = FaultSchedule::parse("part(1000-2500;3);drop(2600-3000;p=40)");
  ASSERT_TRUE(sched.has_value());
  cfg.schedule = *sched;

  const ChaosReport a = run_chaos(cfg);
  const ChaosReport b = run_chaos(cfg);
  EXPECT_TRUE(a.ok()) << a.failure();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.committed_blocks, b.committed_blocks);
  EXPECT_EQ(a.max_view, b.max_view);
}

TEST(ChaosRunner, DifferentSeedDifferentDigest) {
  ChaosRunConfig cfg;
  cfg.protocol = ProtocolKind::kSimpleMoonshot;
  cfg.duration = seconds(6);
  cfg.seed = 1;
  const ChaosReport a = run_chaos(cfg);
  cfg.seed = 2;
  const ChaosReport b = run_chaos(cfg);
  EXPECT_NE(a.digest, b.digest);
}

// --- shrinking ----------------------------------------------------------------

TEST(Shrink, InjectedBugShrinksToMinimalReproducer) {
  // The --inject-bug oracle fails iff a partition window overlaps a crash
  // window, so the minimal reproducer is exactly those two events.
  const auto noisy = FaultSchedule::parse(
      "drop(500-900;p=30);part(1000-3000;0,1|2,3);dup(1200-1500;p=20);"
      "crash(2000-2001;n=0);delay(3500-4000;d=100;p=50);burst(4200-4500;d=200)");
  ASSERT_TRUE(noisy.has_value());

  ChaosRunConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.seed = 11;
  cfg.duration = seconds(6);
  cfg.inject_bug = true;
  cfg.check_liveness = false;  // isolate the injected-bug oracle

  const ShrinkOracle oracle = [&](const FaultSchedule& candidate) {
    ChaosRunConfig c = cfg;
    c.schedule = candidate;
    return !run_chaos(c).ok();
  };
  ASSERT_TRUE(oracle(*noisy));  // the full schedule does fail

  const ShrinkResult result = shrink_schedule(*noisy, oracle);
  EXPECT_LE(result.schedule.events.size(), 3u);
  EXPECT_TRUE(oracle(result.schedule));  // still a reproducer
  EXPECT_FALSE(result.budget_exhausted);
}

TEST(Shrink, PassingScheduleStaysUntouched) {
  const auto s = FaultSchedule::parse("drop(500-900;p=30)");
  ASSERT_TRUE(s.has_value());
  std::size_t calls = 0;
  const ShrinkOracle never_fails = [&](const FaultSchedule&) {
    ++calls;
    return false;
  };
  const ShrinkResult result = shrink_schedule(*s, never_fails);
  EXPECT_EQ(result.schedule.to_string(), s->to_string());
}

}  // namespace
}  // namespace moonshot::chaos
