// The droplet-streaming engine (paper section 6, Table 4): satisfy a demand D
// under a hard cap on on-chip storage units by splitting it into passes, each
// pass running the largest mixing forest whose SRS schedule fits the cap.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/mdst.h"

namespace dmf::engine {

class PassCache;

/// One pass of a streaming plan.
struct StreamingPass {
  std::uint64_t demand = 0;       ///< target droplets produced by this pass
  unsigned cycles = 0;            ///< pass completion time
  unsigned storageUnits = 0;      ///< pass peak storage (<= the cap)
  std::uint64_t waste = 0;        ///< pass waste droplets
  std::uint64_t inputDroplets = 0;///< pass reactant usage
  std::uint64_t mixSplits = 0;    ///< pass mix-split count
};

/// A complete streaming plan.
struct StreamingPlan {
  /// Largest per-pass demand D' that fits the storage cap.
  std::uint64_t perPassDemand = 0;
  /// The individual passes, in execution order (all but possibly the last
  /// produce perPassDemand droplets).
  std::vector<StreamingPass> passes;
  /// Sum of pass cycle counts (passes run back to back).
  std::uint64_t totalCycles = 0;
  /// Sum of pass waste droplets.
  std::uint64_t totalWaste = 0;
  /// Sum of pass reactant usage.
  std::uint64_t totalInput = 0;
  /// Peak storage over all passes.
  unsigned storageUnits = 0;
  /// Mixers used.
  unsigned mixers = 0;
};

/// Request for a streaming plan.
struct StreamingRequest {
  mixgraph::Algorithm algorithm = mixgraph::Algorithm::MM;
  /// Scheduler used inside each pass; the paper streams with SRS.
  Scheme scheme = Scheme::kSRS;
  /// Total demand D.
  std::uint64_t demand = 2;
  /// Available on-chip storage units q'.
  unsigned storageCap = 0;
  /// Mixers; 0 = engine default (Mlb of the MM base tree).
  unsigned mixers = 0;
  /// Worker threads for planStreamingOptimized's candidate sweep, the only
  /// parallel step of a plan; 1 = serial (the default), 0 = one per
  /// hardware core. planStreaming is serial and ignores it. Results are
  /// identical for every value.
  unsigned jobs = 1;
};

/// Computes the streaming plan with the paper's rule: the largest feasible
/// per-pass demand D' repeated ceil(D/D') times, with two correctness
/// guarantees the paper's bisection sketch lacks:
///
///  * the search is verified — scheduled storage is NOT always monotone in
///    demand (the SRS storage curve can dip when the forest recomposes), so
///    the bisection result is re-checked and a probe that finds a feasible
///    demand above it falls back to a descending scan;
///  * the remainder pass (demand % D' droplets) is validated against the cap
///    too, and D' shrinks to the next feasible size until the tail fits, so
///    no emitted pass ever exceeds storageCap.
///
/// Throws dmf::InfeasibleError when even a two-droplet pass exceeds the cap
/// (or no split satisfies the cap); std::invalid_argument on a zero demand.
[[nodiscard]] StreamingPlan planStreaming(const MdstEngine& engine,
                                          const StreamingRequest& request);

/// As above, memoizing pass evaluations in a caller-owned cache (share one
/// cache per engine across calls to make demand sweeps incremental).
[[nodiscard]] StreamingPlan planStreaming(const MdstEngine& engine,
                                          const StreamingRequest& request,
                                          PassCache& cache);

/// As above, scheduling on a caller-owned scratch: a caller planning
/// several streams in a row reuses one scratch for all of them. The plan
/// is the same as with a fresh scratch.
[[nodiscard]] StreamingPlan planStreaming(const MdstEngine& engine,
                                          const StreamingRequest& request,
                                          PassCache& cache,
                                          sched::PlanScratch& scratch);

/// Exhaustive refinement of planStreaming: the largest feasible D' does not
/// always minimize the total cycle count (a slightly smaller forest can
/// schedule disproportionately faster under a tight cap), so this variant
/// evaluates every feasible per-pass demand and returns the plan with the
/// fewest total cycles (ties broken toward less waste, then fewer passes).
/// Every candidate and remainder is first checked with PassCache::fits, so
/// only the passes that fit are evaluated in full. With request.jobs > 1 a
/// parallel sweep settles every candidate's fit first (no O(D) upfront
/// allocation); the reduction is serial and ascending, so the result is
/// identical for every job count. Same error
/// behaviour as planStreaming, plus std::invalid_argument on a demand of
/// UINT64_MAX (the inclusive candidate range would overflow).
[[nodiscard]] StreamingPlan planStreamingOptimized(
    const MdstEngine& engine, const StreamingRequest& request);

/// Shared-cache overload of planStreamingOptimized.
[[nodiscard]] StreamingPlan planStreamingOptimized(
    const MdstEngine& engine, const StreamingRequest& request,
    PassCache& cache);

/// Shared-cache, caller-scratch overload of planStreamingOptimized: the
/// caller's scratch serves the serial steps and the calling thread's share
/// of the sweep; each sweep worker owns one for the call.
[[nodiscard]] StreamingPlan planStreamingOptimized(
    const MdstEngine& engine, const StreamingRequest& request,
    PassCache& cache, sched::PlanScratch& scratch);

}  // namespace dmf::engine
