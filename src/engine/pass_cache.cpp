#include "engine/pass_cache.h"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "obs/scope.h"
#include "sched/schedulers.h"

namespace dmf::engine {

namespace {

std::uint64_t nanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// splitmix64 finalizer: full-avalanche mix, every input bit flips ~half the
// output bits.
std::uint64_t avalanche(std::uint64_t v) noexcept {
  v ^= v >> 30;
  v *= 0xBF58476D1CE4E5B9ull;
  v ^= v >> 27;
  v *= 0x94D049BB133111EBull;
  v ^= v >> 31;
  return v;
}

}  // namespace

std::size_t PassKeyHash::operator()(const PassKey& key) const noexcept {
  // Each field passes through a full-avalanche finalizer before folding into
  // the FNV-1a accumulator. Plain FNV-1a left the enum fields in the low
  // bits, so a demand sweep (consecutive integers, the dominant access
  // pattern) produced near-consecutive hashes that collided modulo small
  // bucket counts; the avalanche decorrelates neighbouring demands.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= avalanche(v);
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(key.algorithm));
  mix(static_cast<std::uint64_t>(key.scheme));
  mix(key.mixers);
  mix(key.demand);
  return static_cast<std::size_t>(avalanche(h));
}

std::optional<StreamingPass> evaluatePass(const MdstEngine& engine,
                                          mixgraph::Algorithm algorithm,
                                          Scheme scheme, unsigned mixers,
                                          std::uint64_t demand,
                                          std::optional<unsigned> cap,
                                          PassCacheStats* stageNanos) {
  sched::PlanScratch scratch;
  return evaluatePass(engine, algorithm, scheme, mixers, demand, cap,
                      stageNanos, scratch);
}

std::optional<StreamingPass> evaluatePass(const MdstEngine& engine,
                                          mixgraph::Algorithm algorithm,
                                          Scheme scheme, unsigned mixers,
                                          std::uint64_t demand,
                                          std::optional<unsigned> cap,
                                          PassCacheStats* stageNanos,
                                          sched::PlanScratch& scratch) {
  const mixgraph::MixingGraph& graph = engine.baseGraph(algorithm);
  auto start = std::chrono::steady_clock::now();
  const forest::TaskForest& f = [&]() -> const forest::TaskForest& {
    const obs::Span span("engine.forest_build");
    if (!scratch.forest.has_value()) {
      return scratch.forest.emplace(graph, demand);
    }
    scratch.forest->rebuild(graph, demand);
    return *scratch.forest;
  }();
  const std::uint64_t buildNanos = nanosSince(start);

  start = std::chrono::steady_clock::now();
  const std::optional<sched::Schedule> s = [&] {
    const obs::Span span("engine.schedule");
    return schedule(f, scheme, mixers, cap, scratch);
  }();
  const std::uint64_t scheduleNanos = nanosSince(start);
  if (!s.has_value()) return std::nullopt;

  start = std::chrono::steady_clock::now();
  StreamingPass pass;
  {
    const obs::Span span("engine.storage_count");
    pass.demand = demand;
    pass.cycles = s->completionTime;
    pass.storageUnits = sched::countStorage(f, *s, scratch);
    pass.waste = f.stats().waste;
    pass.inputDroplets = f.stats().inputTotal;
    pass.mixSplits = f.stats().mixSplits;
  }
  const std::uint64_t storageNanos = nanosSince(start);

  if (stageNanos != nullptr) {
    stageNanos->buildNanos = buildNanos;
    stageNanos->scheduleNanos = scheduleNanos;
    stageNanos->storageNanos = storageNanos;
  }
  if (obs::MetricsRegistry* m = obs::metrics()) {
    m->counter("engine.pass_eval.count").add(1);
    m->counter("engine.pass_eval.build_nanos").add(buildNanos);
    m->counter("engine.pass_eval.schedule_nanos").add(scheduleNanos);
    m->counter("engine.pass_eval.storage_nanos").add(storageNanos);
    static constexpr std::uint64_t kMicrosBounds[] = {
        10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000};
    m->histogram("engine.pass_eval.micros", kMicrosBounds)
        .observe((buildNanos + scheduleNanos + storageNanos) / 1000);
  }
  return pass;
}

StreamingPass PassCache::evaluate(const MdstEngine& engine,
                                  mixgraph::Algorithm algorithm, Scheme scheme,
                                  unsigned mixers, std::uint64_t demand) {
  sched::PlanScratch scratch;
  return evaluate(engine, algorithm, scheme, mixers, demand, scratch);
}

StreamingPass PassCache::evaluate(const MdstEngine& engine,
                                  mixgraph::Algorithm algorithm, Scheme scheme,
                                  unsigned mixers, std::uint64_t demand,
                                  sched::PlanScratch& scratch) {
  return *probe(engine, {algorithm, scheme, mixers, demand}, std::nullopt,
                scratch);
}

bool PassCache::fits(const MdstEngine& engine, mixgraph::Algorithm algorithm,
                     Scheme scheme, unsigned mixers, std::uint64_t demand,
                     unsigned cap) {
  sched::PlanScratch scratch;
  return fits(engine, algorithm, scheme, mixers, demand, cap, scratch);
}

bool PassCache::fits(const MdstEngine& engine, mixgraph::Algorithm algorithm,
                     Scheme scheme, unsigned mixers, std::uint64_t demand,
                     unsigned cap, sched::PlanScratch& scratch) {
  const std::optional<StreamingPass> pass =
      probe(engine, {algorithm, scheme, mixers, demand}, cap, scratch);
  return pass.has_value() && pass->storageUnits <= cap;
}

std::optional<StreamingPass> PassCache::probe(const MdstEngine& engine,
                                              const PassKey& key,
                                              std::optional<unsigned> cap,
                                              sched::PlanScratch& scratch) {
  bool floorExceeds = false;
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.add(1);
      obs::count("engine.pass_cache.hits");
      return it->second;
    }
    if (cap.has_value()) {
      const auto floor = floors_.find(key);
      floorExceeds = floor != floors_.end() && floor->second >= *cap;
    }
  }

  const auto reject = [this] {
    boundRejects_.add(1);
    obs::count("engine.pass_cache.bound_rejects");
    return std::optional<StreamingPass>();
  };
  if (floorExceeds) return reject();

  // Compute outside any lock: two threads racing on the same key both pay
  // the evaluation (rare, harmless — the value is a pure function of the
  // key) rather than serializing every miss.
  PassCacheStats stage;
  const std::optional<StreamingPass> pass =
      evaluatePass(engine, key.algorithm, key.scheme, key.mixers, key.demand,
                   cap, &stage, scratch);
  if (!pass.has_value()) {
    {
      const std::unique_lock<std::shared_mutex> lock(mutex_);
      unsigned& floor = floors_[key];
      floor = std::max(floor, *cap);
    }
    return reject();
  }
  misses_.add(1);
  obs::count("engine.pass_cache.misses");
  buildNanos_.add(stage.buildNanos);
  scheduleNanos_.add(stage.scheduleNanos);
  storageNanos_.add(stage.storageNanos);
  {
    const std::unique_lock<std::shared_mutex> lock(mutex_);
    entries_.emplace(key, *pass);
  }
  return pass;
}

std::optional<StreamingPass> PassCache::lookup(const PassKey& key) const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::size_t PassCache::size() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return entries_.size();
}

PassCacheStats PassCache::stats() const {
  PassCacheStats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.boundRejects = boundRejects_.value();
  s.buildNanos = buildNanos_.value();
  s.scheduleNanos = scheduleNanos_.value();
  s.storageNanos = storageNanos_.value();
  return s;
}

void PassCache::clear() {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  entries_.clear();
  floors_.clear();
  hits_.reset();
  misses_.reset();
  boundRejects_.reset();
  buildNanos_.reset();
  scheduleNanos_.reset();
  storageNanos_.reset();
}

}  // namespace dmf::engine
