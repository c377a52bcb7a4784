// Deterministic parallel execution of independent simulation worlds.
//
// Every experiment, fuzz run, and model-checking trace in this repo is a
// pure function of its (config, seed): worlds share no mutable state (the
// crypto key-table cache is sharded and value-stable, logging is
// thread-confined), so N of them can run concurrently. run_worlds() is the
// one primitive everything parallel builds on: it executes count tasks with
// `jobs` lanes and returns only when all are done. Callers make the result
// deterministic by writing into index-addressed slots and doing all
// printing/merging in task order afterwards — the output of a sweep is then
// byte-identical between --jobs 1 and --jobs N.
#pragma once

#include <cstddef>
#include <functional>

namespace moonshot::exec {

/// Number of hardware threads (at least 1).
unsigned hardware_jobs();

/// Parses a --jobs value: "0" (or "auto") means all hardware threads.
/// Returns 0 on a malformed value.
unsigned parse_jobs(const char* value);

/// Runs fn(0) … fn(count-1). jobs <= 1 runs inline on the caller, in order,
/// with no threads created — the sequential semantics parallel runs must
/// reproduce. jobs > 1 runs min(jobs, count) lanes (the caller plus plain
/// threads), each claiming the next index in ascending order from one shared
/// counter. fn must confine its side effects to per-index state (or
/// internally synchronized sinks). Every task runs even if some throw; after
/// all lanes have joined, the exception of the lowest throwing index is
/// rethrown.
void run_worlds(unsigned jobs, std::size_t count,
                const std::function<void(std::size_t)>& fn);

/// Lane count for parallel test sweeps: MOONSHOT_TEST_JOBS when set
/// (0/"auto" = all cores), otherwise all hardware threads. Test content
/// must not depend on it — sweeps assert on index-addressed results only.
unsigned test_jobs();

}  // namespace moonshot::exec
