// The MDST mixture-preparation engine: the paper's end-to-end pipeline
// ratio -> base mixing graph -> mixing forest -> schedule -> metrics.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "dmf/ratio.h"
#include "forest/task_forest.h"
#include "mixgraph/builders.h"
#include "sched/schedule.h"
#include "sched/schedulers.h"

namespace dmf::engine {

/// Scheduling scheme selector.
enum class Scheme {
  kMMS,  ///< Algorithm 1 (M_Mixers_Schedule)
  kSRS,  ///< Algorithm 2 (Storage_Reduced_Scheduling)
  kOMS,  ///< critical-path baseline (used for repeated single-pass mixing)
};

/// Human-readable scheme name.
[[nodiscard]] std::string_view schemeName(Scheme scheme);

/// Runs the selected scheduler on a forest.
[[nodiscard]] sched::Schedule schedule(const forest::TaskForest& forest,
                                       Scheme scheme, unsigned mixers);

/// As above under an optional storage cap: SRS returns nullopt when it
/// provably stores more than `cap` (the capped sched::scheduleSRS); every
/// other answer is the uncapped schedule. The scheduler borrows `scratch`.
[[nodiscard]] std::optional<sched::Schedule> schedule(
    const forest::TaskForest& forest, Scheme scheme, unsigned mixers,
    std::optional<unsigned> cap, sched::PlanScratch& scratch);

/// Everything the paper reports about one MDST run.
struct MdstResult {
  /// Time of completion Tc in time-cycles.
  unsigned completionTime = 0;
  /// On-chip storage units q (Algorithm 3).
  unsigned storageUnits = 0;
  /// Mix-split count Tms.
  std::uint64_t mixSplits = 0;
  /// Waste droplets W.
  std::uint64_t waste = 0;
  /// Total input droplets I.
  std::uint64_t inputDroplets = 0;
  /// Per-fluid input droplets I[].
  std::vector<std::uint64_t> inputPerFluid;
  /// Number of component mixing trees |F|.
  std::uint64_t componentTrees = 0;
  /// Mixers used (Mc).
  unsigned mixers = 0;
};

/// Configuration of one engine run.
struct MdstRequest {
  mixgraph::Algorithm algorithm = mixgraph::Algorithm::MM;
  Scheme scheme = Scheme::kMMS;
  /// Number of on-chip mixers; 0 means "use Mlb of the MM base tree", the
  /// paper's convention for all evaluation tables.
  unsigned mixers = 0;
  /// Required number of target droplets (demand D).
  std::uint64_t demand = 2;
};

/// The demand-driven mixture-preparation engine.
///
/// Holds the target ratio and lazily reusable base graphs; each `run`
/// instantiates the mixing forest for the requested demand, schedules it and
/// collects the paper's metrics. A default-mixer request resolves Mc to the
/// Mlb of the MM base tree (minimum mixers for fastest single-pass
/// completion), exactly as the paper's evaluation does.
///
/// Const member functions are safe to call concurrently: the lazy base-graph
/// and default-mixer caches are guarded by an internal mutex, so
/// runtime::parallelFor can fan pass evaluations over one shared engine.
class MdstEngine {
 public:
  explicit MdstEngine(Ratio ratio);

  [[nodiscard]] const Ratio& ratio() const { return ratio_; }

  /// Mlb of the MM base tree for this ratio.
  [[nodiscard]] unsigned defaultMixers() const;

  /// Runs the full pipeline and returns the metrics. Throws on invalid
  /// requests (demand == 0).
  [[nodiscard]] MdstResult run(const MdstRequest& request) const;

  /// Builds the forest for a request (exposed so callers can also inspect
  /// schedules, Gantt charts, or drive the chip executor).
  [[nodiscard]] forest::TaskForest buildForest(mixgraph::Algorithm algorithm,
                                               std::uint64_t demand) const;

  /// The base mixing graph for an algorithm (built once, cached).
  [[nodiscard]] const mixgraph::MixingGraph& baseGraph(
      mixgraph::Algorithm algorithm) const;

 private:
  Ratio ratio_;
  // Guards the lazy caches below (never held while a caller-visible
  // reference is used: graphs_ has fixed size, so engaged slots are stable).
  mutable std::mutex lazyMutex_;
  // Lazily built per-algorithm base graphs (index by enum value).
  mutable std::vector<std::optional<mixgraph::MixingGraph>> graphs_;
  mutable std::optional<unsigned> defaultMixers_;
};

}  // namespace dmf::engine
