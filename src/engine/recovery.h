// Demand-driven error recovery for chip execution (DESIGN.md §11).
//
// The forest engine's own demand arithmetic is the recovery mechanism: a
// lost or corrupted droplet of mix node v is exactly one extra unit of
// need(v), so re-running demand propagation with the flagged needs yields a
// minimal repair sub-forest — only the ancestors the replacement droplets
// require are re-executed, not the whole assay. RecoveryEngine replays a
// scheduled forest cycle-by-cycle against a FaultInjector, senses errors at
// checkpoints, builds repair forests via TaskForest's NodeDemand
// constructor, schedules them under the *remaining* mixer/storage budget
// (scheduleStorageCapped when a cap is given, scheduleSRS otherwise), and
// splices them into the in-flight run.
//
// Semantics are stall-don't-cancel: a consumer whose operand droplet was
// lost or discarded waits for the repair round to deliver a replacement
// instead of cancelling its whole subtree — cancelling would collapse the
// repair demand to the root and forfeit the demand-driven saving.
//
// The run is deterministic for a fixed (options, forest, schedule): one
// seeded generator drives every draw on a serial execution path, so results
// are independent of thread count. The engine never throws on faults; it
// degrades gracefully into a RecoveryReport with an explicit shortfall when
// the retry budget, input budget, cycle limit, or surviving hardware cannot
// cover the demand.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chip/layout.h"
#include "fault/checkpoint.h"
#include "fault/fault_injector.h"
#include "forest/task_forest.h"
#include "sched/schedule.h"

namespace dmf::engine {

/// Configuration of one recovery run.
struct RecoveryOptions {
  /// Fault rates (all zero = fault-free replay).
  fault::FaultSpec faults;
  /// Seed of the injector's generator.
  std::uint64_t seed = 1;
  /// Sensing granularity and latency.
  fault::CheckpointOptions checkpoint;
  /// Repair rounds allowed before remaining errors become shortfall.
  unsigned retryBudget = 4;
  /// Storage budget for repair scheduling (scheduleStorageCapped);
  /// 0 = uncapped (scheduleSRS).
  unsigned storageCap = 0;
  /// Total input droplets the reservoirs hold (base + repairs);
  /// 0 = unlimited.
  std::uint64_t inputBudget = 0;
  /// Optional physical layout: enables electrode-death localization (dead
  /// mixers shrink the mixer bank, dead storage shrinks the cap) and
  /// actuation accounting of repair rounds. May be nullptr.
  const chip::Layout* layout = nullptr;
};

/// One spliced repair round.
struct RepairRound {
  /// Mix cycle the round was spliced at (its tasks start the next cycle).
  unsigned cycle = 0;
  /// Completion span of the repair schedule (its own cycles).
  unsigned span = 0;
  /// The injected needs, node-sorted.
  std::vector<forest::NodeDemand> needs;
  /// Repair forest cost: extra mix-splits and input droplets.
  std::uint64_t mixSplits = 0;
  std::uint64_t inputDroplets = 0;
  /// Extra electrode actuations (0 without a layout).
  std::uint64_t actuations = 0;
};

/// Structured outcome of a recovery run — returned, never thrown.
struct RecoveryReport {
  /// Requested target droplets (the forest's demand D).
  std::uint64_t demand = 0;
  /// Targets emitted and never flagged by a checkpoint.
  std::uint64_t delivered = 0;
  /// demand - delivered when positive: the explicit degradation figure.
  std::uint64_t shortfall = 0;
  /// Delivered targets that are in fact beyond the CF threshold — faults
  /// the sensing model never caught (latency or granularity too coarse).
  std::uint64_t escapedErrors = 0;
  /// Droplets flagged and discarded (includes recalled bad targets).
  std::uint64_t discarded = 0;
  /// The injector's full fault trace.
  std::vector<fault::FaultEvent> faults;
  /// Repair rounds actually spliced.
  std::vector<RepairRound> rounds;
  /// Sums over rounds.
  std::uint64_t extraMixSplits = 0;
  std::uint64_t extraInputDroplets = 0;
  std::uint64_t extraActuations = 0;
  /// Fault-free completion (the input schedule's) vs actual last busy cycle.
  unsigned baseCompletion = 0;
  unsigned completionCycle = 0;
  /// Budget given / rounds consumed.
  unsigned retryBudget = 0;
  unsigned roundsUsed = 0;
  /// Hardware lost to electrode deaths.
  unsigned mixersLost = 0;
  unsigned storageLost = 0;
  std::vector<chip::Cell> deadCells;
  /// True when the run could not fully cover the demand (see reason).
  bool degraded = false;
  std::string degradationReason;

  [[nodiscard]] bool fullyRecovered() const {
    return shortfall == 0 && escapedErrors == 0;
  }
};

/// Replays a scheduled forest under fault injection with demand-driven
/// repair.
class RecoveryEngine {
 public:
  /// Throws std::invalid_argument on negative rates (via FaultSpec use) or
  /// checkpoint.everyLevels == 0.
  explicit RecoveryEngine(RecoveryOptions options);

  [[nodiscard]] const RecoveryOptions& options() const { return options_; }

  /// Runs the schedule against the fault model. `forest` must be the
  /// schedule's forest (validated). Deterministic for fixed options.
  [[nodiscard]] RecoveryReport run(const forest::TaskForest& forest,
                                   const sched::Schedule& schedule) const;

 private:
  RecoveryOptions options_;
};

/// Compact human-readable rendering of a report (CLI and demos).
[[nodiscard]] std::string renderReport(const RecoveryReport& report);

}  // namespace dmf::engine
