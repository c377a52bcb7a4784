// The benchmark's worlds: what each workload builds from (name, seed), and
// what one run of a world reports.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "probe.hpp"
#include "wal/wal.hpp"

namespace worldbench {

/// What a traced world measured per layer, before it is turned into the
/// benchmark's named metrics. Counters are summed over nodes.
struct LayerInputs {
  Probe probe;
  double keygen_s = 0;
  moonshot::net::NetworkStats net;
  std::uint64_t view_changes = 0;
  std::uint64_t timeouts_fired = 0;
  std::uint64_t vote_duplicates = 0;
  std::uint64_t cert_cache_hits = 0;
  std::uint64_t cert_cache_misses = 0;
  moonshot::wal::WalStats wal;
  std::uint64_t recover_calls = 0;
  double recover_s = 0;
  std::uint64_t ledger_commits = 0;
  std::uint64_t block_store_max = 0;
  std::uint64_t commit_log_max = 0;
};

/// What one world reports. Every run fills the end-to-end fields; a traced
/// run also fills `traced`.
struct WorldRun {
  double loop_s = 0;      // start() and the scheduler run calls
  double result_s = 0;    // result(): summaries and the cross-node safety check
  double teardown_s = 0;  // destruction
  double world_s = 0;     // construction through destruction
  std::uint64_t fingerprint = 0;  // Scheduler::fingerprint()
  std::uint64_t events = 0;
  std::uint64_t committed = 0;  // blocks committed by 2f+1 nodes
  std::uint64_t copies = 0;     // delivered message copies, self-deliveries excluded
  bool consistent = false;
  std::string digest_text;  // the values the pinned digest covers
  std::optional<LayerInputs> traced;
};

/// The crash/recover rotation of cm-n100-wj-wal: one honest node down at a
/// time, recovered from its WAL.
struct CrashStep {
  moonshot::TimePoint at;
  moonshot::NodeId node;
  bool crash;  // false = recover
};

struct SimSpec {
  moonshot::ExperimentConfig cfg;
  std::vector<CrashStep> plan;
};

/// The world a workload runs for `seed`. `tiny` shortens it for the self-test.
std::optional<SimSpec> sim_spec(const std::string& workload, std::uint64_t seed, bool tiny);

/// Runs one simulated world through Experiment (untraced) or through the
/// benchmark's own decorator assembly (traced).
WorldRun run_sim_untraced(const SimSpec& spec);
WorldRun run_sim_traced(const SimSpec& spec);
/// Constructs and destroys the world, returning the construction time.
double setup_sim(const SimSpec& spec);

double median(std::vector<double> v);

}  // namespace worldbench
