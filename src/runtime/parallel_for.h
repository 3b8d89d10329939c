// The one parallel loop in the library (the optimized streaming planner's
// candidate sweep, multi-target planning and fleet planning). Deterministic
// by construction: indices are handed out through an atomic counter and
// every index writes only its own result slot, so callers that reduce in
// index order get bit-identical output for any job count (including 1,
// which runs inline without starting threads).
#pragma once

#include <cstdint>
#include <functional>

namespace dmf::runtime {

/// Resolves a user-facing jobs request: 0 means hardware concurrency (at
/// least 1).
[[nodiscard]] unsigned resolveJobs(unsigned requested) noexcept;

/// The number of participants parallelFor(jobs, count, fn) runs:
/// min(resolveJobs(jobs), count), and at least 1.
[[nodiscard]] unsigned participantCount(unsigned jobs,
                                        std::uint64_t count) noexcept;

/// Runs fn(i, participant) for every i in [0, count) and returns when all
/// have finished. `jobs` (resolved by resolveJobs) counts the calling
/// thread: one call starts participantCount(jobs, count) - 1 threads, the
/// caller works too, and all are joined before it returns, so one
/// participant means a plain inline loop in index order. `participant`
/// names who runs the call, in [0, participantCount): 0 is the caller, and
/// no two concurrent calls share a number, so fn may index per-participant
/// state (a planning scratch) with it. Exceptions thrown by fn are captured
/// and the one raised at the lowest index is rethrown after every index has
/// run, so error behaviour is deterministic too. Calls may nest.
void parallelFor(
    unsigned jobs, std::uint64_t count,
    const std::function<void(std::uint64_t index, unsigned participant)>& fn);

}  // namespace dmf::runtime
