#include "engine/mdst.h"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>

#include "obs/scope.h"

namespace dmf::engine {

using forest::TaskForest;
using mixgraph::Algorithm;
using mixgraph::MixingGraph;

std::string_view schemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kMMS:
      return "MMS";
    case Scheme::kSRS:
      return "SRS";
    case Scheme::kOMS:
      return "OMS";
  }
  throw std::invalid_argument("schemeName: unknown scheme");
}

namespace {

// Mixer-bank utilization of a finished schedule, overall and per forest
// level, recorded into the active session. Runs only when observability is
// on; purely derived from the schedule, so it cannot perturb planning.
void recordScheduleObservability(const TaskForest& forest,
                                 const sched::Schedule& s) {
  obs::MetricsRegistry* m = obs::metrics();
  if (m == nullptr || s.completionTime == 0 || s.mixerCount == 0) return;

  const std::uint64_t capacity =
      std::uint64_t{s.completionTime} * s.mixerCount;
  const std::uint64_t utilizationPct = forest.taskCount() * 100 / capacity;
  m->gauge("sched.utilization_pct").set(utilizationPct);
  m->histogram("sched.utilization_pct_hist",
               {10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
      .observe(utilizationPct);

  // Per-level utilization: tasks of one forest level over the mixer-cycles
  // spanned by that level's busy window (Fig. 3's "how full is each wave").
  // Levels are dense small integers, so a flat vector indexed by level
  // replaces the std::map this used — same ascending observation order.
  struct LevelSpan {
    std::uint64_t tasks = 0;
    unsigned first = 0;
    unsigned last = 0;
  };
  const std::vector<unsigned>& taskLevels = forest.taskLevels();
  std::vector<LevelSpan> levels;
  for (forest::TaskId id = 0; id < forest.taskCount(); ++id) {
    const unsigned cycle = s.cycles[id];
    const unsigned level = taskLevels[id];
    if (levels.size() <= level) levels.resize(level + 1);
    LevelSpan& span = levels[level];
    if (span.tasks == 0) {
      span.first = cycle;
      span.last = cycle;
    }
    span.tasks += 1;
    span.first = std::min(span.first, cycle);
    span.last = std::max(span.last, cycle);
  }
  obs::Histogram& perLevel = m->histogram(
      "sched.level_utilization_pct", {10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (const LevelSpan& span : levels) {
    if (span.tasks == 0) continue;
    const std::uint64_t window =
        std::uint64_t{span.last - span.first + 1} * s.mixerCount;
    perLevel.observe(span.tasks * 100 / window);
  }
  m->counter("sched.schedules").add(1);
  m->counter("sched.scheduled_tasks").add(forest.taskCount());
}

}  // namespace

sched::Schedule schedule(const TaskForest& forest, Scheme scheme,
                         unsigned mixers) {
  sched::PlanScratch scratch;
  return *schedule(forest, scheme, mixers, std::nullopt, scratch);
}

std::optional<sched::Schedule> schedule(const TaskForest& forest,
                                        Scheme scheme, unsigned mixers,
                                        std::optional<unsigned> cap,
                                        sched::PlanScratch& scratch) {
  std::optional<sched::Schedule> s =
      [&]() -> std::optional<sched::Schedule> {
    switch (scheme) {
      case Scheme::kMMS: {
        const obs::Span span("sched.MMS", "sched");
        return sched::scheduleMMS(forest, mixers, scratch);
      }
      case Scheme::kSRS: {
        const obs::Span span("sched.SRS", "sched");
        if (cap.has_value()) {
          return sched::scheduleSRS(forest, mixers, *cap, scratch);
        }
        return sched::scheduleSRS(forest, mixers, scratch);
      }
      case Scheme::kOMS: {
        const obs::Span span("sched.OMS", "sched");
        return sched::scheduleOMS(forest, mixers, scratch);
      }
    }
    throw std::invalid_argument("schedule: unknown scheme");
  }();
  if (s.has_value()) recordScheduleObservability(forest, *s);
  return s;
}

MdstEngine::MdstEngine(Ratio ratio) : ratio_(std::move(ratio)), graphs_(4) {}

const MixingGraph& MdstEngine::baseGraph(Algorithm algorithm) const {
  const std::lock_guard<std::mutex> lock(lazyMutex_);
  auto& slot = graphs_.at(static_cast<std::size_t>(algorithm));
  if (!slot.has_value()) {
    slot.emplace(mixgraph::buildGraph(ratio_, algorithm));
  }
  // The reference stays valid after unlock: graphs_ never resizes and an
  // engaged slot is never re-assigned.
  return *slot;
}

unsigned MdstEngine::defaultMixers() const {
  const MixingGraph& base = baseGraph(Algorithm::MM);
  const std::lock_guard<std::mutex> lock(lazyMutex_);
  if (!defaultMixers_.has_value()) {
    const TaskForest basePass(base, 2);
    defaultMixers_ = sched::minimumMixers(basePass);
  }
  return *defaultMixers_;
}

TaskForest MdstEngine::buildForest(Algorithm algorithm,
                                   std::uint64_t demand) const {
  return TaskForest(baseGraph(algorithm), demand);
}

MdstResult MdstEngine::run(const MdstRequest& request) const {
  const unsigned mixers =
      request.mixers == 0 ? defaultMixers() : request.mixers;
  const TaskForest forest = buildForest(request.algorithm, request.demand);
  const sched::Schedule s = schedule(forest, request.scheme, mixers);

  MdstResult result;
  result.completionTime = s.completionTime;
  result.storageUnits = sched::countStorage(forest, s);
  result.mixSplits = forest.stats().mixSplits;
  result.waste = forest.stats().waste;
  result.inputDroplets = forest.stats().inputTotal;
  result.inputPerFluid = forest.stats().inputPerFluid;
  result.componentTrees = forest.stats().componentTrees;
  result.mixers = mixers;
  return result;
}

}  // namespace dmf::engine
