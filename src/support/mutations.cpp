#include "support/mutations.hpp"

#include <atomic>

namespace moonshot {

std::string_view mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kCommitOnOneChain: return "commit-one-chain";
    case Mutation::kCommitSkipParentLink: return "commit-skip-parent-link";
    case Mutation::kDoubleVote: return "double-vote";
    case Mutation::kCertQuorumFPlusOne: return "cert-quorum-f-plus-one";
    case Mutation::kFallbackIgnoresTcRank: return "fallback-ignores-tc-rank";
    case Mutation::kTimeoutCarriesNoLock: return "timeout-carries-no-lock";
    case Mutation::kLockNeverRises: return "lock-never-rises";
    case Mutation::kStaleJustify: return "stale-justify";
    case Mutation::kCount: break;
  }
  return "?";
}

Mutation parse_mutation(std::string_view name) {
  for (std::uint8_t i = 0; i < static_cast<std::uint8_t>(Mutation::kCount); ++i) {
    const auto m = static_cast<Mutation>(i);
    if (mutation_name(m) == name) return m;
  }
  return Mutation::kCount;
}

#ifdef MOONSHOT_MUTATIONS

namespace {
// Atomic so parallel worlds can read it while a driver holds it fixed for
// the whole sweep (it is process-wide state: drivers must not flip it while
// worlds are in flight — MutationGuard scopes it around a full explore()).
std::atomic<Mutation> g_active{Mutation::kNone};
}  // namespace

void set_active_mutation(Mutation m) { g_active.store(m, std::memory_order_relaxed); }
bool mutation_on(Mutation m) { return g_active.load(std::memory_order_relaxed) == m; }

#endif

}  // namespace moonshot
