// Memoized, thread-safe pass evaluation for the streaming planners.
//
// Evaluating one candidate per-pass demand D' means building the D'-droplet
// mixing forest, scheduling it and counting storage — the hottest path of a
// demand sweep, and one that both planners used to repeat for the same D'
// over and over. PassCache memoizes those results behind a shared lock,
// keyed on (algorithm, scheme, mixers, demand), and keeps hit/miss plus
// per-stage timing counters for reporting.
//
// The streaming search mostly asks a narrower question — does the pass fit
// the storage cap? — and most of its probes are far over the cap. fits()
// runs the same evaluation with the cap, which stops once it proves the pass
// exceeds the cap, and remembers per key the largest cap proven exceeded.
//
// A PassCache holds results for ONE target ratio: callers key caches per
// MdstEngine (the key does not include the ratio). Sharing a cache between
// engines with different ratios silently returns wrong passes.
//
// The cache is shared across threads, so it owns no scheduling scratch: a
// call that computes borrows the caller's sched::PlanScratch (the overloads
// without one make a local scratch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

#include "engine/streaming.h"
#include "obs/metrics.h"

namespace dmf::engine {

/// Cache key: everything evaluatePass depends on besides the engine's ratio.
struct PassKey {
  mixgraph::Algorithm algorithm = mixgraph::Algorithm::MM;
  Scheme scheme = Scheme::kSRS;
  unsigned mixers = 0;
  std::uint64_t demand = 0;

  [[nodiscard]] bool operator==(const PassKey&) const = default;
};

struct PassKeyHash {
  [[nodiscard]] std::size_t operator()(const PassKey& key) const noexcept;
};

/// Counters a cache accumulates over its lifetime. Hit/miss counts are
/// deterministic under serial use; under concurrent use two threads racing on
/// the same key may both record a miss (both compute, the value is identical).
struct PassCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// fits() probes answered "exceeds the cap" without a full evaluation:
  /// proven by the capped sched::scheduleSRS or read from the floor memo.
  std::uint64_t boundRejects = 0;
  /// Per-stage wall time of all cache misses, in nanoseconds.
  std::uint64_t buildNanos = 0;     ///< TaskForest construction
  std::uint64_t scheduleNanos = 0;  ///< scheduler run
  std::uint64_t storageNanos = 0;   ///< Algorithm 3 storage counting

  [[nodiscard]] std::uint64_t evaluations() const { return hits + misses; }
  [[nodiscard]] std::uint64_t totalNanos() const {
    return buildNanos + scheduleNanos + storageNanos;
  }
};

/// Thread-safe sparse memo of StreamingPass results for one engine/ratio.
class PassCache {
 public:
  /// Evaluates one pass of `demand` droplets (forest -> schedule -> storage),
  /// memoized. Safe to call concurrently; `engine` must outlive the call and
  /// be the same engine for every call on this cache.
  [[nodiscard]] StreamingPass evaluate(const MdstEngine& engine,
                                       mixgraph::Algorithm algorithm,
                                       Scheme scheme, unsigned mixers,
                                       std::uint64_t demand);
  [[nodiscard]] StreamingPass evaluate(const MdstEngine& engine,
                                       mixgraph::Algorithm algorithm,
                                       Scheme scheme, unsigned mixers,
                                       std::uint64_t demand,
                                       sched::PlanScratch& scratch);

  /// Whether the pass of `demand` droplets stores at most `cap` units.
  /// Answers from the first source that settles it: a memoized full pass;
  /// the floor memo (the largest cap this key is proven to exceed); one
  /// evaluatePass with the cap, which either proves the pass over the cap
  /// (recorded in the floor memo, counted as a bound reject) or memoizes the
  /// full pass (counted as a miss). The answer always equals
  /// evaluate(...).storageUnits <= cap. Thread-safe.
  [[nodiscard]] bool fits(const MdstEngine& engine,
                          mixgraph::Algorithm algorithm, Scheme scheme,
                          unsigned mixers, std::uint64_t demand, unsigned cap);
  [[nodiscard]] bool fits(const MdstEngine& engine,
                          mixgraph::Algorithm algorithm, Scheme scheme,
                          unsigned mixers, std::uint64_t demand, unsigned cap,
                          sched::PlanScratch& scratch);

  /// Non-computing lookup.
  [[nodiscard]] std::optional<StreamingPass> lookup(const PassKey& key) const;

  /// Entries currently memoized.
  [[nodiscard]] std::size_t size() const;

  /// Snapshot of the counters.
  [[nodiscard]] PassCacheStats stats() const;

  /// Drops all entries and zeroes the counters.
  void clear();

 private:
  /// The one lookup-or-evaluate path behind evaluate() (no cap) and fits().
  /// nullopt only when the pass is proven to store more than `cap`.
  [[nodiscard]] std::optional<StreamingPass> probe(
      const MdstEngine& engine, const PassKey& key,
      std::optional<unsigned> cap, sched::PlanScratch& scratch);

  mutable std::shared_mutex mutex_;
  std::unordered_map<PassKey, StreamingPass, PassKeyHash> entries_;
  /// Floor memo: the largest cap each key's SRS storage is proven to exceed.
  std::unordered_map<PassKey, unsigned, PassKeyHash> floors_;
  // obs instruments used standalone; stats() is the thin adapter that
  // snapshots them into the legacy PassCacheStats shape. When a global
  // obs::Scope is active, evaluate() additionally mirrors these counts into
  // the session registry (engine.pass_cache.*).
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter boundRejects_;
  obs::Counter buildNanos_;
  obs::Counter scheduleNanos_;
  obs::Counter storageNanos_;
};

/// Uncached single-pass evaluation (what the cache runs on a miss): builds
/// the demand-droplet forest, schedules it with `scheme`, counts storage.
/// With a `cap`, an SRS pass that provably stores more than `cap` returns
/// nullopt (the capped sched::scheduleSRS, which then skips the refinement);
/// every other call returns the full pass, the same with or without a cap.
/// `stageNanos`, when non-null, receives the per-stage wall times of a full
/// pass. The forest (rebuilt in place), the scheduler and the storage count
/// borrow `scratch`; the overload without one makes a local scratch.
[[nodiscard]] std::optional<StreamingPass> evaluatePass(
    const MdstEngine& engine, mixgraph::Algorithm algorithm, Scheme scheme,
    unsigned mixers, std::uint64_t demand,
    std::optional<unsigned> cap = std::nullopt,
    PassCacheStats* stageNanos = nullptr);
[[nodiscard]] std::optional<StreamingPass> evaluatePass(
    const MdstEngine& engine, mixgraph::Algorithm algorithm, Scheme scheme,
    unsigned mixers, std::uint64_t demand, std::optional<unsigned> cap,
    PassCacheStats* stageNanos, sched::PlanScratch& scratch);

}  // namespace dmf::engine
