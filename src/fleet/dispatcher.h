// The fleet dispatcher (DESIGN.md §17): shards M users' protocol streams
// across N simulated chips behind a pluggable arbitration policy.
//
// Split follows the ytsaurus scheduler / controller-agent pattern:
//
//  * the DISPATCHER decides *what runs where* — it plans every user's
//    stream (engine/streaming, fanned out over runtime::parallelFor with
//    one result slot per user, so planning is byte-identical across
//    --jobs), admits every pass as a WorkItem, and runs a serial
//    virtual-time loop: policy picks the user, the dispatcher places the
//    pass on the earliest-free alive chip that satisfies its mixer/storage
//    needs (ties to the lowest chip id);
//  * per-chip EXECUTORS reuse the engine/journal stack to *run it* — every
//    completed pass is appended to the owning user's CRC32-framed journal
//    (a real journal::RecordLog when a journal directory is given, the
//    same framed byte format in memory otherwise).
//
// Chip failure mid-pass migrates the stream: the victim pass is aborted,
// the user's journal checkpoint is REPLAYED (frame + CRC validation via
// journal::replayRecords) to establish exactly which passes survive, and
// only the aborted pass re-enters the policy queue with a bumped attempt
// counter. Because per-user plans are computed before placement, the final
// plans are byte-identical with and without a kill — only the placement
// log differs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/streaming.h"
#include "fleet/policy.h"
#include "report/json.h"

namespace dmf::fleet {

/// One simulated chip in the fleet.
struct ChipSpec {
  /// Total mixer modules on the chip.
  unsigned mixers = 4;
  /// On-chip storage units (the streaming cap a hosted pass must fit).
  unsigned storageCap = 8;
  /// Mixers lost to the dead-cell mask (heterogeneous degradation).
  unsigned deadMixers = 0;

  /// Mixers actually usable: mixers - deadMixers (0 when fully masked).
  [[nodiscard]] unsigned effectiveMixers() const {
    return mixers > deadMixers ? mixers - deadMixers : 0;
  }
};

/// Parses "mixers=4,storage=8[,dead=1];mixers=2,storage=4" into chip specs.
/// Throws std::invalid_argument on malformed entries.
[[nodiscard]] std::vector<ChipSpec> parseChips(const std::string& spec);

/// Deterministic heterogeneous defaults for `--fleet N`: mixer counts,
/// storage caps and dead-cell masks cycle over small primes so every fleet
/// size reproduces exactly. Throws std::invalid_argument on count == 0.
[[nodiscard]] std::vector<ChipSpec> defaultFleet(unsigned count);

/// One user's protocol stream plus its scheduling weight.
struct UserStream {
  Ratio ratio{std::vector<std::uint64_t>{1, 3}};
  /// Streaming request. request.jobs is overridden to 1: users are planned
  /// in parallel over the dispatcher's --jobs threads, so an optimized
  /// user's candidate sweep runs serially inside it.
  engine::StreamingRequest request;
  /// Plan with planStreamingOptimized instead of planStreaming.
  bool optimize = false;
  /// Weight for weighted-fair arbitration (> 0).
  double weight = 1.0;
};

/// Parses ";"- or "|"-separated user specs:
///   "ratio=1:3,demand=32,storage=3[,mixers=2][,weight=8][,algo=mm]
///    [,scheme=srs][,optimize]"
/// Throws std::invalid_argument on malformed entries.
[[nodiscard]] std::vector<UserStream> parseUsers(const std::string& spec);

/// A scripted chip failure: `chip` dies at virtual cycle `cycle`.
struct KillSpec {
  bool active = false;
  unsigned chip = 0;
  std::uint64_t cycle = 0;
};

/// Parses "chip=1,cycle=120". Throws std::invalid_argument when malformed.
[[nodiscard]] KillSpec parseKill(const std::string& spec);

struct DispatcherOptions {
  std::vector<ChipSpec> chips;
  /// "fifo" | "rr" | "wfq" (makePolicy names).
  std::string policy = "fifo";
  /// Overrides the per-user weights when non-empty (size must match the
  /// user count).
  std::vector<double> weights;
  /// wfq service quantum in cycles; 0 disables batching.
  double quantum = 0.0;
  /// Worker threads for the planning fan-out (0 = hardware concurrency).
  /// The dispatch loop itself is serial; results are identical for every
  /// value.
  unsigned jobs = 1;
  KillSpec kill;
  /// When non-empty, per-user journals are written as real RecordLogs
  /// under this directory (created if needed); empty keeps the same framed
  /// byte format in memory.
  std::string journalDir;
};

/// One placement decision, in dispatch order.
struct PassRecord {
  unsigned user = 0;
  std::uint64_t passIndex = 0;
  unsigned chip = 0;
  std::uint64_t startCycle = 0;
  std::uint64_t endCycle = 0;
  unsigned attempt = 1;
  /// False for a pass aborted by a chip failure (it re-runs elsewhere).
  bool completed = true;
};

struct ChipReport {
  ChipSpec spec;
  std::uint64_t busyCycles = 0;
  std::uint64_t passesCompleted = 0;
  /// Cycles burned on passes aborted by this chip's failure.
  std::uint64_t abortedCycles = 0;
  bool failed = false;
  std::uint64_t failedAtCycle = 0;
};

struct UserReport {
  engine::StreamingPlan plan;
  double weight = 1.0;
  /// Cycles of completed service.
  std::uint64_t serviceCycles = 0;
  std::uint64_t passesExecuted = 0;
  std::uint64_t migratedPasses = 0;
  /// Passes dropped because no alive chip could host them (degraded run).
  std::uint64_t unplacedPasses = 0;
};

struct FleetResult {
  std::string policy;
  std::vector<UserReport> users;
  std::vector<ChipReport> chips;
  /// Placement log in dispatch order (deterministic across --jobs).
  std::vector<PassRecord> log;
  std::uint64_t makespan = 0;
  std::uint64_t migrations = 0;
  /// True when passes were dropped for lack of a capable alive chip.
  bool degraded = false;
  std::string degradationReason;

  /// Jain's fairness index over weight-normalized service
  /// (sum x)^2 / (n * sum x^2) with x_u = serviceCycles_u / weight_u;
  /// 1.0 = perfectly weight-proportional, 1/n = maximally skewed. 1.0 when
  /// no service was delivered.
  [[nodiscard]] double jainIndex() const;

  /// Per-user fraction of chip time attempted in [0, upToCycle), computed
  /// from the placement log (aborted spans count — they consumed the
  /// chip). Sums to 1 when any service was attempted.
  [[nodiscard]] std::vector<double> serviceShares(
      std::uint64_t upToCycle) const;

  /// Deterministic JSON of the whole result; the placement log is included
  /// only when `includePlacement` (it is kill-dependent).
  [[nodiscard]] report::Json toJson(bool includePlacement) const;

  /// Only the per-user plans — the kill-invariant subset, byte-identical
  /// with and without a mid-run chip failure.
  [[nodiscard]] report::Json plansJson() const;
};

/// Plans and dispatches the whole fleet. Throws std::invalid_argument on an
/// empty user/chip list or inconsistent weights, dmf::InfeasibleError when
/// some user's stream cannot run on any chip of the initial fleet, and
/// journal::CorruptJournalError when a migration replay contradicts the
/// in-memory checkpoint.
[[nodiscard]] FleetResult dispatchFleet(const std::vector<UserStream>& users,
                                        const DispatcherOptions& options);

}  // namespace dmf::fleet
