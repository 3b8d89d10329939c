#include "engine/streaming.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "dmf/errors.h"
#include "engine/pass_cache.h"
#include "obs/scope.h"
#include "runtime/parallel_for.h"
#include "sched/plan_scratch.h"

namespace dmf::engine {

namespace {

// Publishes the chosen plan to the active obs session (no-op when disabled):
// summary gauges plus one model-time span per pass on the virtual "plan
// timeline" track, so Perfetto shows the pass sequence as a Gantt chart in
// schedule cycles. Observation only — the plan itself is never altered.
void recordPlanObservability(const StreamingPlan& plan) {
  if (obs::MetricsRegistry* m = obs::metrics()) {
    m->gauge("engine.plan.passes").set(plan.passes.size());
    m->gauge("engine.plan.per_pass_demand").set(plan.perPassDemand);
    m->gauge("engine.plan.total_cycles").set(plan.totalCycles);
    m->gauge("engine.plan.total_waste").set(plan.totalWaste);
    m->gauge("engine.plan.storage_high_water")
        .accumulateMax(plan.storageUnits);
  }
  if (obs::TraceRecorder* t = obs::tracer()) {
    std::uint64_t cursor = 0;
    for (std::size_t p = 0; p < plan.passes.size(); ++p) {
      const StreamingPass& pass = plan.passes[p];
      t->modelEvent(
          "pass " + std::to_string(p + 1), "plan", cursor, pass.cycles, 1,
          {{"demand", std::to_string(pass.demand)},
           {"storage", std::to_string(pass.storageUnits)},
           {"waste", std::to_string(pass.waste)}});
      cursor += pass.cycles;
    }
  }
}

// Assembles the plan for a fixed per-pass demand from already-evaluated
// passes.
StreamingPlan assemblePlan(std::uint64_t perPass, unsigned mixers,
                           const StreamingPass& full,
                           const std::optional<StreamingPass>& remainder,
                           std::uint64_t fullPasses) {
  StreamingPlan plan;
  plan.perPassDemand = perPass;
  plan.mixers = mixers;
  plan.passes.reserve(fullPasses + (remainder.has_value() ? 1 : 0));
  for (std::uint64_t i = 0; i < fullPasses; ++i) {
    plan.passes.push_back(full);
  }
  if (remainder.has_value()) {
    plan.passes.push_back(*remainder);
  }
  for (const StreamingPass& pass : plan.passes) {
    plan.totalCycles += pass.cycles;
    plan.totalWaste += pass.waste;
    plan.totalInput += pass.inputDroplets;
    plan.storageUnits = std::max(plan.storageUnits, pass.storageUnits);
  }
  return plan;
}

// Candidate-evaluation context of one planning call. It borrows the
// caller's scheduling scratch, so every pass it evaluates costs only its own
// forest, and a caller planning several streams reuses one scratch for all.
struct PlanContext {
  const MdstEngine& engine;
  const StreamingRequest& request;
  unsigned mixers;
  PassCache& cache;
  sched::PlanScratch& scratch;

  [[nodiscard]] StreamingPass eval(std::uint64_t demand) {
    return cache.evaluate(engine, request.algorithm, request.scheme, mixers,
                          demand, scratch);
  }
  [[nodiscard]] bool feasible(std::uint64_t demand) {
    return feasible(demand, scratch);
  }
  /// As above on another scratch: one per participant of a parallel sweep.
  [[nodiscard]] bool feasible(std::uint64_t demand,
                              sched::PlanScratch& own) const {
    return cache.fits(engine, request.algorithm, request.scheme, mixers,
                      demand, request.storageCap, own);
  }
};

// Largest feasible demand in [floor, upper], scanning downward. Returns
// nullopt when none is feasible.
std::optional<std::uint64_t> largestFeasibleDescending(PlanContext& ctx,
                                                       std::uint64_t floor,
                                                       std::uint64_t upper) {
  for (std::uint64_t d = upper; d >= floor; --d) {
    if (ctx.feasible(d)) return d;
    if (d == floor) break;
  }
  return std::nullopt;
}

// The paper's rule with a verified search: largest feasible per-pass demand,
// bisection first, descending scan when the monotonicity probe fails.
std::uint64_t largestFeasiblePerPass(PlanContext& ctx,
                                     std::uint64_t minPass,
                                     std::uint64_t demand) {
  if (ctx.feasible(demand)) return demand;  // single pass serves everything

  // Bisection assuming storage grows with demand.
  std::uint64_t lo = minPass;
  std::uint64_t hi = demand - 1;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (ctx.feasible(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const std::uint64_t candidate = lo;

  // Monotonicity probe: the SRS storage curve can dip as the forest
  // recomposes, in which case feasible demands exist above the bisection
  // result. Sample a few points there; any hit falls back to an exact
  // descending scan. candidate + 1 needs no probe: it is either `demand` or
  // the bisection's last infeasible midpoint.
  bool monotone = true;
  for (const std::uint64_t probe :
       {candidate + (demand - candidate) / 2, demand - 1}) {
    if (probe > candidate && probe < demand && ctx.feasible(probe)) {
      monotone = false;
      break;
    }
  }
  if (monotone) return candidate;
  return largestFeasibleDescending(ctx, candidate, demand - 1)
      .value_or(candidate);
}

}  // namespace

StreamingPlan planStreaming(const MdstEngine& engine,
                            const StreamingRequest& request) {
  PassCache cache;
  return planStreaming(engine, request, cache);
}

StreamingPlan planStreaming(const MdstEngine& engine,
                            const StreamingRequest& request,
                            PassCache& cache) {
  sched::PlanScratch scratch;
  return planStreaming(engine, request, cache, scratch);
}

StreamingPlan planStreaming(const MdstEngine& engine,
                            const StreamingRequest& request, PassCache& cache,
                            sched::PlanScratch& scratch) {
  const obs::Span span("engine.plan_streaming");
  if (request.demand == 0) {
    throw std::invalid_argument("planStreaming: demand must be positive");
  }
  const unsigned mixers =
      request.mixers == 0 ? engine.defaultMixers() : request.mixers;
  const std::uint64_t demand = request.demand;
  PlanContext ctx{engine, request, mixers, cache, scratch};

  const std::uint64_t minPass = std::min<std::uint64_t>(demand, 2);
  if (!ctx.feasible(minPass)) {
    throw InfeasibleError(
        "planStreaming: even a two-droplet pass exceeds the storage cap of " +
        std::to_string(request.storageCap));
  }

  std::uint64_t perPass = largestFeasiblePerPass(ctx, minPass, demand);

  // The remainder pass must fit the cap as well: storage is not monotone in
  // demand, so a feasible D' can leave an infeasible tail of D mod D'
  // droplets. Shrink D' to the next feasible size until the tail fits.
  while (true) {
    const std::uint64_t remainder = demand % perPass;
    if (remainder == 0 || ctx.feasible(remainder)) break;
    const std::optional<std::uint64_t> smaller =
        perPass > 1 ? largestFeasibleDescending(ctx, 1, perPass - 1)
                    : std::nullopt;
    if (!smaller.has_value()) {
      throw InfeasibleError(
          "planStreaming: no per-pass split fits the storage cap of " +
          std::to_string(request.storageCap));
    }
    perPass = *smaller;
  }

  const StreamingPass full = ctx.eval(perPass);
  const std::uint64_t remainder = demand % perPass;
  std::optional<StreamingPass> last;
  if (remainder > 0) {
    last = ctx.eval(remainder);
  }
  StreamingPlan plan =
      assemblePlan(perPass, mixers, full, last, demand / perPass);
  recordPlanObservability(plan);
  return plan;
}

StreamingPlan planStreamingOptimized(const MdstEngine& engine,
                                     const StreamingRequest& request) {
  PassCache cache;
  return planStreamingOptimized(engine, request, cache);
}

StreamingPlan planStreamingOptimized(const MdstEngine& engine,
                                     const StreamingRequest& request,
                                     PassCache& cache) {
  sched::PlanScratch scratch;
  return planStreamingOptimized(engine, request, cache, scratch);
}

StreamingPlan planStreamingOptimized(const MdstEngine& engine,
                                     const StreamingRequest& request,
                                     PassCache& cache,
                                     sched::PlanScratch& scratch) {
  const obs::Span span("engine.plan_streaming_optimized");
  if (request.demand == 0) {
    throw std::invalid_argument(
        "planStreamingOptimized: demand must be positive");
  }
  if (request.demand == std::numeric_limits<std::uint64_t>::max()) {
    // The candidate range [1, demand] is inclusive; a demand of UINT64_MAX
    // would overflow the loop counter (and is far beyond any real assay).
    throw std::invalid_argument(
        "planStreamingOptimized: demand overflows the candidate range");
  }
  const unsigned mixers =
      request.mixers == 0 ? engine.defaultMixers() : request.mixers;
  const std::uint64_t demand = request.demand;
  PlanContext ctx{engine, request, mixers, cache, scratch};

  // The reduction below asks fits() for every candidate D' in [1, D] in
  // ascending order before it evaluates one, and each remainder D mod D' <
  // D' is settled by the time it is read, so a serial run has nothing to
  // warm. With workers, settle the whole range in parallel first; the
  // reduction then only reads entries and the floor memo. The caller
  // (participant 0) sweeps on the call's scratch, each worker on its own.
  const unsigned jobs = runtime::resolveJobs(request.jobs);
  if (jobs > 1) {
    std::vector<sched::PlanScratch> workerScratch(
        runtime::participantCount(jobs, demand) - 1);
    runtime::parallelFor(
        jobs, demand, [&ctx, &workerScratch](std::uint64_t i, unsigned p) {
          (void)ctx.feasible(i + 1,
                             p == 0 ? ctx.scratch : workerScratch[p - 1]);
        });
  }

  const auto better = [](const StreamingPlan& a, const StreamingPlan& b) {
    if (a.totalCycles != b.totalCycles) return a.totalCycles < b.totalCycles;
    if (a.totalWaste != b.totalWaste) return a.totalWaste < b.totalWaste;
    return a.passes.size() < b.passes.size();
  };
  std::optional<StreamingPlan> best;
  for (std::uint64_t perPass = 1;; ++perPass) {
    const std::uint64_t remainder = demand % perPass;
    if (ctx.feasible(perPass) && (remainder == 0 || ctx.feasible(remainder))) {
      std::optional<StreamingPass> last;
      if (remainder > 0) last = ctx.eval(remainder);
      StreamingPlan plan = assemblePlan(perPass, mixers, ctx.eval(perPass),
                                        last, demand / perPass);
      if (!best.has_value() || better(plan, *best)) best = std::move(plan);
    }
    if (perPass == demand) break;
  }
  if (!best.has_value()) {
    throw InfeasibleError(
        "planStreamingOptimized: no pass size fits the storage cap of " +
        std::to_string(request.storageCap));
  }
  recordPlanObservability(*best);
  return *best;
}

}  // namespace dmf::engine
