#include "engine/baseline.h"

#include <stdexcept>

#include "engine/pass_cache.h"

namespace dmf::engine {

namespace {

BaselineResult fromBasePass(const StreamingPass& pass, std::uint64_t demand,
                            unsigned mixers) {
  BaselineResult r;
  r.passes = (demand + 1) / 2;
  r.passCycles = pass.cycles;
  r.completionTime = r.passes * pass.cycles;
  r.storageUnits = pass.storageUnits;
  r.mixSplits = r.passes * pass.mixSplits;
  r.waste = r.passes * pass.waste +
            (demand % 2 == 1 ? 1 : 0);  // odd demand discards one target
  r.inputDroplets = r.passes * pass.inputDroplets;
  r.mixers = mixers;
  return r;
}

}  // namespace

BaselineResult runRepeatedBaseline(const MdstEngine& engine,
                                   mixgraph::Algorithm algorithm,
                                   std::uint64_t demand, unsigned mixers) {
  PassCache cache;
  return runRepeatedBaseline(engine, algorithm, demand, mixers, cache);
}

BaselineResult runRepeatedBaseline(const MdstEngine& engine,
                                   mixgraph::Algorithm algorithm,
                                   std::uint64_t demand, unsigned mixers,
                                   PassCache& cache) {
  if (demand == 0) {
    throw std::invalid_argument("runRepeatedBaseline: demand must be positive");
  }
  const unsigned mc = mixers == 0 ? engine.defaultMixers() : mixers;
  // One pass: the base graph at demand 2 (its natural two-droplet emission),
  // optimally scheduled. Every later pass is identical.
  const StreamingPass pass =
      cache.evaluate(engine, algorithm, Scheme::kOMS, mc, 2);
  return fromBasePass(pass, demand, mc);
}

double percentImprovement(double baseline, double ours) {
  if (baseline == 0.0) return 0.0;
  return 100.0 * (baseline - ours) / baseline;
}

}  // namespace dmf::engine
