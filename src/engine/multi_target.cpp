#include "engine/multi_target.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/scope.h"

namespace dmf::engine {

MultiTargetResult runMultiTarget(const std::vector<TargetDemand>& targets,
                                 Scheme scheme, unsigned mixers) {
  if (targets.empty()) {
    throw std::invalid_argument("runMultiTarget: no targets");
  }
  const obs::Span span("engine.multi_target");
  std::vector<Ratio> ratios;
  std::vector<std::uint64_t> demands;
  ratios.reserve(targets.size());
  demands.reserve(targets.size());
  for (const TargetDemand& t : targets) {
    ratios.push_back(t.ratio);
    demands.push_back(t.demand);
  }

  const auto sharedStart = std::chrono::steady_clock::now();
  const mixgraph::MixingGraph graph = mixgraph::buildMultiTarget(ratios);
  const forest::TaskForest forest(graph, demands);

  unsigned mc = mixers;
  if (mc == 0) {
    const forest::TaskForest basePass(
        graph, std::vector<std::uint64_t>(targets.size(), 2));
    mc = sched::minimumMixers(basePass);
  }
  const sched::Schedule s = schedule(forest, scheme, mc);
  const auto sharedEnd = std::chrono::steady_clock::now();

  MultiTargetResult result;
  result.completionTime = s.completionTime;
  result.storageUnits = sched::countStorage(forest, s);
  result.mixSplits = forest.stats().mixSplits;
  result.waste = forest.stats().waste;
  result.inputDroplets = forest.stats().inputTotal;
  result.mixers = mc;

  // Separate baseline: each target gets its own engine run on the same
  // mixer bank; runs execute back to back.
  for (const TargetDemand& t : targets) {
    const MdstEngine engine(t.ratio);
    MdstRequest request;
    request.algorithm = mixgraph::Algorithm::MTCS;  // same sharing per target
    request.scheme = scheme;
    request.mixers = mc;
    request.demand = t.demand;
    const MdstResult r = engine.run(request);
    result.separateCompletionTime += r.completionTime;
    result.separateStorageUnits =
        std::max(result.separateStorageUnits, r.storageUnits);
    result.separateInputDroplets += r.inputDroplets;
    result.separateWaste += r.waste;
  }
  if (obs::MetricsRegistry* m = obs::metrics()) {
    const auto nanos = [](auto a, auto b) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
    };
    m->counter("engine.multi_target.runs").add(1);
    m->counter("engine.multi_target.targets").add(targets.size());
    m->counter("engine.multi_target.shared_nanos")
        .add(nanos(sharedStart, sharedEnd));
    m->counter("engine.multi_target.separate_nanos")
        .add(nanos(sharedEnd, std::chrono::steady_clock::now()));
  }
  return result;
}

}  // namespace dmf::engine
