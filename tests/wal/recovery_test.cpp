// Crash-recovery integration tests (DESIGN.md §5.3):
//  * the chaos grammar's crash recovery modes round-trip, and a crash event
//    without an m= key recovers durably;
//  * re-sent votes/timeouts from a recovered node never double-count in
//    accumulators — the reason recovery is safe at all;
//  * durable recovery passes the full chaos invariant suite on every
//    protocol, and across a seeded crash-heavy fuzz sweep;
//  * the amnesia demonstration: a seeded schedule where forgetting votes
//    provably forks the chain, while the identical schedule with a WAL
//    commits safely;
//  * the WAL-enabled happy path still shows the paper's ω ≈ δ, λ ≈ 3δ on
//    the critical-path report.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "chaos/generate.hpp"
#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "consensus/accumulators.hpp"
#include "harness/experiment.hpp"
#include "obs/critpath.hpp"
#include "obs/trace.hpp"

namespace moonshot {
namespace {

using chaos::ChaosReport;
using chaos::ChaosRunConfig;
using chaos::FaultSchedule;

// --- grammar: crash recovery modes -------------------------------------------

TEST(CrashGrammar, RecoveryModesRoundTrip) {
  // m=durable stays accepted (published reproducers spell it out) but is
  // the default, so it prints without the key; m=amnesia prints back.
  const char* text = "crash(100-600;n=0,2;m=durable);crash(700-900;n=1;m=amnesia)";
  const auto parsed = FaultSchedule::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->events.size(), 2u);
  EXPECT_EQ(parsed->events[0].recovery, RecoveryMode::kDurable);
  EXPECT_EQ(parsed->events[1].recovery, RecoveryMode::kAmnesia);
  const std::string printed = parsed->to_string();
  EXPECT_EQ(printed, "crash(100-600;n=0,2);crash(700-900;n=1;m=amnesia)");
  const auto reparsed = FaultSchedule::parse(printed);
  ASSERT_TRUE(reparsed.has_value());
  ASSERT_EQ(reparsed->events.size(), 2u);
  EXPECT_EQ(reparsed->events[0].recovery, RecoveryMode::kDurable);
  EXPECT_EQ(reparsed->events[1].recovery, RecoveryMode::kAmnesia);
  EXPECT_EQ(reparsed->to_string(), printed);
}

TEST(CrashGrammar, LegacySchedulesStayByteExact) {
  // A crash event without an m= key recovers durably, prints back without
  // the key (the schedule string never drifts), and needs a WAL.
  const char* text = "crash(700-701;n=2);drop(400-900;p=50)";
  const auto parsed = FaultSchedule::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->events[0].recovery, RecoveryMode::kDurable);
  EXPECT_EQ(parsed->to_string(), text);
  EXPECT_TRUE(parsed->wants_wal());
}

TEST(CrashGrammar, RejectsBadModes) {
  EXPECT_FALSE(FaultSchedule::parse("crash(1-2;n=0;m=volatile)").has_value());
  // m= is a crash-only key.
  EXPECT_FALSE(FaultSchedule::parse("drop(1-2;p=50;m=durable)").has_value());
}

TEST(CrashGrammar, DurableCrashWantsWal) {
  const auto durable = FaultSchedule::parse("crash(1-2;n=0;m=durable)");
  ASSERT_TRUE(durable.has_value());
  EXPECT_TRUE(durable->wants_wal());
  // Every crash schedule gets a WAL; m=amnesia wipes it at recovery.
  const auto amnesia = FaultSchedule::parse("crash(1-2;n=0;m=amnesia)");
  ASSERT_TRUE(amnesia.has_value());
  EXPECT_TRUE(amnesia->wants_wal());
  const auto no_crash = FaultSchedule::parse("part(1-2;0|1,2,3)");
  ASSERT_TRUE(no_crash.has_value());
  EXPECT_FALSE(no_crash->wants_wal());
}

// --- re-sent votes do not double-count ---------------------------------------

class ResendRegression : public ::testing::Test {
 protected:
  ResendRegression() : gen_(ValidatorSet::generate(4, crypto::fast_scheme(), 1)) {
    block_ = Block::create(1, 1, Block::genesis()->id(), Payload::synthetic(8, 1));
  }
  Vote vote_from(NodeId id, VoteKind kind) {
    return Vote::make(kind, 1, block_->id(), id, gen_.private_keys[id],
                      gen_.set->scheme());
  }
  ValidatorSet::Generated gen_;
  BlockPtr block_;
};

TEST_F(ResendRegression, DuplicateVotesCountOncePerKind) {
  // A durably-recovered node may re-send its last vote of any kind (the WAL
  // admits identical duplicates); peers' accumulators must treat the re-send
  // as the same ballot, for every vote kind.
  for (const VoteKind kind : {VoteKind::kNormal, VoteKind::kOptimistic,
                              VoteKind::kFallback, VoteKind::kCommit}) {
    VoteAccumulator acc(gen_.set, true);
    EXPECT_EQ(acc.add(vote_from(0, kind), 1), nullptr);
    EXPECT_EQ(acc.add(vote_from(0, kind), 1), nullptr);  // recovered re-send
    EXPECT_EQ(acc.add(vote_from(0, kind), 1), nullptr);
    EXPECT_EQ(acc.count(1, kind, block_->id()), 1u)
        << "kind " << static_cast<int>(kind);
    // Quorum still needs two *distinct* further voters.
    EXPECT_EQ(acc.add(vote_from(1, kind), 1), nullptr);
    EXPECT_NE(acc.add(vote_from(2, kind), 1), nullptr);
  }
}

TEST_F(ResendRegression, DuplicateTimeoutsCountOnce) {
  TimeoutAccumulator acc(gen_.set, true);
  const auto tm = [&](NodeId id) {
    return TimeoutMsg::make(1, id, nullptr, gen_.private_keys[id], gen_.set->scheme());
  };
  EXPECT_EQ(acc.add(tm(0)).f_plus_1_view, 0u);
  EXPECT_EQ(acc.add(tm(0)).f_plus_1_view, 0u);  // recovered re-send
  EXPECT_EQ(acc.count(1), 1u);
  // f+1 = 2 distinct senders; the duplicate must not have tripped it.
  EXPECT_EQ(acc.add(tm(1)).f_plus_1_view, 1u);
  EXPECT_EQ(acc.count(1), 2u);
  // The quorum TC (3 distinct of 4) likewise needs a third *distinct* sender.
  EXPECT_NE(acc.add(tm(2)).tc, nullptr);
}

// --- durable crash-recovery across protocols ---------------------------------

ChaosRunConfig crash_config(ProtocolKind p, const char* schedule_text,
                            std::uint64_t seed) {
  ChaosRunConfig cfg;
  cfg.protocol = p;
  cfg.seed = seed;
  cfg.delta = milliseconds(300);
  cfg.duration = seconds(10);
  const auto parsed = FaultSchedule::parse(schedule_text);
  EXPECT_TRUE(parsed.has_value()) << schedule_text;
  cfg.schedule = *parsed;
  return cfg;
}

TEST(DurableRecovery, AllProtocolsSurviveDurableCrash) {
  // The crash target loses its volatile state and rejoins from its WAL: the
  // full invariant suite (safety, conformance, liveness, chain shape) must
  // hold for every protocol. Any crash event turns the WAL on.
  for (const ProtocolKind p :
       {ProtocolKind::kSimpleMoonshot, ProtocolKind::kPipelinedMoonshot,
        ProtocolKind::kCommitMoonshot, ProtocolKind::kJolteon,
        ProtocolKind::kHotStuff}) {
    const ChaosReport report =
        run_chaos(crash_config(p, "crash(1000-3000;n=0;m=durable)", 11));
    EXPECT_TRUE(report.ok()) << protocol_name(p) << ": " << report.failure();
    EXPECT_GT(report.committed_blocks, 0u) << protocol_name(p);
  }
}

TEST(DurableRecovery, SurvivesCrashUnderPartition) {
  const ChaosReport report = run_chaos(crash_config(
      ProtocolKind::kPipelinedMoonshot,
      "part(500-2500;0,1|2,3);crash(1500-3500;n=0;m=durable)", 3));
  EXPECT_TRUE(report.ok()) << report.failure();
}

TEST(DurableRecovery, ReplayIsBitIdentical) {
  const auto cfg = crash_config(ProtocolKind::kCommitMoonshot,
                                "crash(800-2600;n=0;m=durable)", 17);
  const ChaosReport a = run_chaos(cfg);
  const ChaosReport b = run_chaos(cfg);
  EXPECT_TRUE(a.ok()) << a.failure();
  EXPECT_EQ(a.digest, b.digest);
}

TEST(DurableRecovery, FreeWalDoesNotPerturbLegacyRuns) {
  // With a zero-cost fsync the WAL must be timing-invisible: a schedule
  // without a crash event produces the identical digest with and without a
  // WAL attached. This is the digest-compatibility contract that keeps
  // crash-free reproducer strings meaningful.
  auto cfg = crash_config(ProtocolKind::kPipelinedMoonshot,
                          "part(1000-2500;0|1,2,3);drop(3000-3500;p=30)", 5);
  const ChaosReport without = run_chaos(cfg);
  cfg.enable_wal = true;
  const ChaosReport with = run_chaos(cfg);
  EXPECT_TRUE(without.ok()) << without.failure();
  EXPECT_EQ(without.digest, with.digest);
}

// --- the amnesia demonstration -----------------------------------------------

// The schedule: node 2 is first partitioned off so its lock freezes at an
// old certificate C_k while {0,1,3} commit past k. Nodes 0 and 1 then crash
// and recover with amnesia (votes + lock forgotten) while node 3 — the only
// replica holding the newer certificates — is fully cut off. The remaining
// quorum {0,1,2} only knows C_k, re-extends B_k at an already-committed
// height, and certifies a conflicting chain: honest commit logs diverge.
constexpr const char* kForkSchedule =
    "part(600-2500;0,1,3|2);"
    "crash(2500-3500;n=0,1;%s);"
    "cut(2500-9999;0>3,1>3,2>3,3>0,3>1,3>2)";

ChaosRunConfig fork_config(const char* mode) {
  char text[256];
  std::snprintf(text, sizeof text, kForkSchedule, mode);
  ChaosRunConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.seed = 1;
  cfg.delta = milliseconds(200);
  cfg.duration = seconds(10);
  // The cut lasts until the end of the run by design (no healed mixing);
  // there is no fault-free tail to judge liveness in.
  cfg.check_liveness = false;
  const auto parsed = FaultSchedule::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  cfg.schedule = *parsed;
  return cfg;
}

TEST(AmnesiaDemo, ForgettingVotesForksTheChain) {
  // Expected divergence: without durable voting state this schedule is a
  // genuine safety violation, not a liveness hiccup.
  const ChaosReport report = run_chaos(fork_config("m=amnesia"));
  EXPECT_FALSE(report.safety_ok)
      << "amnesia recovery was expected to fork the chain; verdict: "
      << (report.ok() ? "ok" : report.failure());
  EXPECT_FALSE(report.violations.empty());
}

TEST(AmnesiaDemo, IdenticalScheduleWithWalCommitsSafely) {
  // Same partition, same crashes, same cut, same seed — but the crashed
  // nodes keep their WAL. The recovered replicas refuse to re-vote in burned
  // views, so the fork never assembles a quorum.
  const ChaosReport report = run_chaos(fork_config("m=durable"));
  EXPECT_TRUE(report.safety_ok) << report.failure();
  EXPECT_TRUE(report.conformance_ok) << report.failure();
  EXPECT_TRUE(report.chain_shape_ok) << report.failure();
  EXPECT_GT(report.committed_blocks, 0u);
}

// --- seeded crash-heavy fuzz sweep -------------------------------------------

TEST(CrashHeavyFuzz, HundredSeedsZeroSafetyViolations) {
  // ≥100 seeded schedules, each with several non-overlapping crash windows
  // (plus background network faults), all recovering durably: safety,
  // conformance (recovered nodes are not exempt) and chain shape must hold
  // on every run, liveness must return in the tail.
  chaos::GenerateOptions gen;
  gen.n = 4;
  gen.crash_pool = 1;
  gen.duration = seconds(8);
  gen.stable_tail = milliseconds(3500);
  gen.crash_heavy = true;

  std::size_t total_crash_events = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const FaultSchedule schedule = generate_schedule(gen, seed);
    if (std::getenv("MOONSHOT_FUZZ_VERBOSE"))
      std::fprintf(stderr, "seed %llu: %s\n", (unsigned long long)seed, schedule.to_string().c_str());
    for (const auto& ev : schedule.events)
      total_crash_events += ev.type == chaos::FaultType::kCrash ? 1 : 0;

    ChaosRunConfig cfg;
    cfg.protocol = ProtocolKind::kPipelinedMoonshot;
    cfg.seed = seed;
    cfg.delta = milliseconds(300);
    cfg.duration = gen.duration;
    cfg.schedule = schedule;
    const ChaosReport report = run_chaos(cfg);
    EXPECT_TRUE(report.safety_ok)
        << "seed " << seed << ": " << report.failure() << " schedule "
        << schedule.to_string();
    EXPECT_TRUE(report.chain_shape_ok) << "seed " << seed;
    EXPECT_TRUE(report.conformance_ok) << "seed " << seed;
    EXPECT_TRUE(report.liveness_ok)
        << "seed " << seed << ": " << report.failure() << " schedule "
        << schedule.to_string();
  }
  // The sweep is only meaningful if it actually crashed nodes aggressively.
  EXPECT_GE(total_crash_events, 150u);
}

// --- the durability tax stays within the paper's constants -------------------

TEST(WalHappyPath, OmegaAndLambdaHoldWithDurability) {
  // The paper's headline constants, now with persist-before-send enabled and
  // a non-zero modelled fsync (100µs against δ = 100ms): ω ≈ δ and λ ≈ 3δ
  // must hold on the critical-path report.
  constexpr auto kDelta = milliseconds(100);
  obs::Tracer tracer(4);

  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kPipelinedMoonshot;
  cfg.n = 4;
  cfg.delta = milliseconds(500);
  cfg.duration = seconds(10);
  cfg.seed = 7;
  cfg.net.matrix = net::LatencyMatrix::uniform(kDelta, 1);
  cfg.net.regions_used = 1;
  cfg.net.jitter = 0.0;
  cfg.net.proc_base = Duration(0);
  cfg.net.proc_sig = Duration(0);
  cfg.net.proc_cert = Duration(0);
  cfg.net.proc_per_kb = Duration(0);
  cfg.net.adversarial_before_gst = false;
  cfg.tracer = &tracer;
  cfg.enable_wal = true;
  cfg.wal.fsync_base = microseconds(100);
  cfg.wal.fsync_jitter = 0.1;

  const auto r = run_experiment(cfg);
  ASSERT_TRUE(r.logs_consistent);
  ASSERT_GT(r.summary.committed_blocks, 20u);

  const auto report =
      obs::analyze_critical_path(obs::build_lifecycle_index(tracer.merged(), cfg.n));
  ASSERT_GT(report.blocks.size(), 20u);
  const double delta_ms = to_ms(kDelta);
  EXPECT_NEAR(report.period.mean_ms() / delta_ms, 1.0, 0.15);   // ω ≈ 1δ
  EXPECT_NEAR(report.latency.mean_ms() / delta_ms, 3.0, 0.30);  // λ ≈ 3δ
}

}  // namespace
}  // namespace moonshot
