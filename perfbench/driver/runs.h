// The three workloads and the traced replay.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Daemon `--jobs`, pinned per workload so a run never depends on the
/// machine's core count.
inline constexpr unsigned kDaemonJobs = 2;
/// Set-ups per run, summarised as setup_s (see each workload).
inline constexpr unsigned kSetupRepeats = 15;

/// cold_plan: closed loop, 2 connections, every request a distinct key.
[[nodiscard]] RunResult runColdPlan(const RunOptions& options);
/// hot_serve: open-loop Poisson arrivals over 4 pipelined connections
/// against a pre-warmed set of 64 keys in several spellings.
[[nodiscard]] RunResult runHotServe(const RunOptions& options);
/// fleet_kill: back-to-back dispatchFleet calls with a mid-run chip kill.
[[nodiscard]] RunResult runFleetKill(const RunOptions& options);

/// The per-layer run of any workload: replays the workload's requests
/// in-process with a span around every public call, writes the spans as a
/// Chrome trace, and reports the per-layer metrics.
[[nodiscard]] RunResult runTraced(const RunOptions& options);

}  // namespace perfbench
