// Seeded protocol mutations — deliberate, compile-time-gated bugs.
//
// The model checker (src/mc/) claims that its safety oracles would notice a
// broken commit/vote/certificate rule. That claim is only worth something if
// we can demonstrate it: each Mutation below weakens exactly one guard the
// paper's safety argument depends on, and the mutation-validation harness
// requires the explorer to produce a counterexample for every one of them.
//
// The hooks compile to `false` constants unless the build sets
// -DMOONSHOT_MUTATIONS=ON (which defines MOONSHOT_MUTATIONS), so production
// binaries carry no trace of them. Even in a mutations build, everything
// behaves normally until set_active_mutation() selects one.
#pragma once

#include <cstdint>
#include <string_view>

namespace moonshot {

enum class Mutation : std::uint8_t {
  kNone = 0,
  kCommitOnOneChain,        // commit rule: a single certificate commits its block
  kCommitSkipParentLink,    // commit rule: consecutive certs need not form a chain
  kDoubleVote,              // vote rule: vote for every proposal seen in a view
  kCertQuorumFPlusOne,      // certificates form and validate with f+1 voters
  kFallbackIgnoresTcRank,   // fallback vote ignores the TC's high-QC rank guard
  kTimeoutCarriesNoLock,    // timeouts advertise genesis instead of the lock
  kLockNeverRises,          // the lock is never raised past genesis
  kStaleJustify,            // proposal justify may be arbitrarily old
  kCount,
};

/// Stable short name (used by the mc_explore CLI and test output).
std::string_view mutation_name(Mutation m);

/// Inverse of mutation_name(); Mutation::kCount for unknown names.
Mutation parse_mutation(std::string_view name);

#ifdef MOONSHOT_MUTATIONS

/// Selects the process-wide active mutation (model-checking worlds are
/// single-threaded; one experiment runs at a time).
void set_active_mutation(Mutation m);

/// Hot-path hook: true iff `m` is the active mutation.
bool mutation_on(Mutation m);

constexpr bool mutations_compiled() { return true; }

#else

// Without the build flag every hook folds to a constant the optimizer
// removes; set_active_mutation is intentionally absent so nothing can
// activate a mutation in a production binary.
constexpr bool mutation_on(Mutation) { return false; }
constexpr bool mutations_compiled() { return false; }

#endif

}  // namespace moonshot
