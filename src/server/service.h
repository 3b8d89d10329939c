// The plan service behind `dmfstream serve` (DESIGN.md §13): parses one
// line-delimited JSON request, canonicalizes it, and answers from a
// two-tier plan cache, coalescing concurrent identical requests onto one
// computation.
//
// Request pipeline per line:
//   parse -> canonicalize -> cache get (hit: respond in microseconds)
//         -> coalescing map (in-flight identical request: wait on its
//            future — second arrival never re-plans)
//         -> admission queue (leader enqueues; batches drain over the
//            shared runtime::ThreadPool; each plan computes serially so
//            cross-request parallelism never nests the pool)
//
// handle() never throws: malformed input, infeasible requests and internal
// errors all become {"ok":false,...} responses — nothing propagates across
// the socket loop.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fleet/policy.h"
#include "obs/scope.h"
#include "runtime/thread_pool.h"
#include "server/canonical.h"
#include "server/plan_cache.h"

namespace dmf::journal {
class ServerJournal;
}  // namespace dmf::journal

namespace dmf::server {

struct ServiceOptions {
  /// In-memory plan-cache entries.
  std::size_t cacheSize = 256;
  /// Persistent cache tier directory; empty = memory only.
  std::string cacheDir;
  /// Write-ahead-log directory: admitted plan requests are journaled before
  /// computation and acknowledged once cached, so a killed daemon replays
  /// the in-flight ones on restart. Empty = no WAL.
  std::string journalDir;
  /// Admission-queue fan-out: plan computations for distinct requests run
  /// concurrently over this many workers (0 = hardware concurrency). Each
  /// computation is serial inside, so responses are byte-identical for
  /// every value.
  unsigned jobs = 1;
  /// Test-only: stretch every cold computation by this many nanoseconds to
  /// make coalescing windows deterministic. 0 in production.
  std::uint64_t computeDelayNanosForTest = 0;
  /// Fleet arbitration (DESIGN.md §17): when > 0, admission batches drain
  /// in fleet::ArbitrationPolicy order over this many virtual lanes, with
  /// per-connection user identity feeding fairness accounting. 0 keeps the
  /// plain admission-order drain.
  unsigned fleet = 0;
  /// "fifo" | "rr" | "wfq" (makePolicy names).
  std::string fleetPolicy = "fifo";
  /// Weights for the user slots; its size bounds the number of slots a
  /// connection id folds into (empty = 16 equal-weight slots).
  std::vector<double> fleetWeights;
  /// wfq service quantum (in demand units); 0 disables batching.
  double fleetQuantum = 0.0;
};

/// Fleet-arbitration configuration of the admission queue (off by default).
struct FleetArbitration {
  /// Virtual lanes batches place over (0 = arbitration off).
  unsigned lanes = 0;
  std::string policy = "fifo";
  /// User-slot weights; size bounds the slots connection ids fold into
  /// (empty = 16 equal-weight slots).
  std::vector<double> weights;
  double quantum = 0.0;
};

/// Per-user-slot service accounting of a fleet-arbitrated queue.
struct FleetQueueStats {
  unsigned lanes = 0;
  std::string policy;
  /// Dispatched service cost (demand units) per user slot.
  std::vector<std::uint64_t> userService;
  /// Accumulated cost placed on each virtual lane.
  std::vector<std::uint64_t> laneBusy;
  /// Jain's fairness index over weight-normalized user service, in
  /// permille (1000 = perfectly weight-proportional).
  std::uint64_t jainPermille = 1000;
};

/// Batches submitted jobs and drains each batch over the shared pool. The
/// dispatcher thread is the only pool caller, so jobs themselves may not
/// touch the pool (nested same-pool use is rejected by ThreadPool anyway).
///
/// With fleet arbitration enabled each batch is reordered by the
/// arbitration policy before it fans out: the policy state (e.g. wfq
/// virtual time) persists across batches, so a heavy user's backlog cannot
/// starve light users within any drain.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(runtime::ThreadPool& pool,
                          FleetArbitration fleet = {});
  ~AdmissionQueue();

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Enqueues a job; it runs on a pool worker in admission order (policy
  /// order under fleet arbitration). Jobs must not throw (they fulfill
  /// promises instead). `user` is the submitting user's identity (folded
  /// into a user slot); `cost` is the service-cost proxy the policy
  /// arbitrates on (e.g. the request demand; clamped to >= 1).
  void submit(unsigned user, std::uint64_t cost, std::function<void()> job);
  void submit(std::function<void()> job) { submit(0, 1, std::move(job)); }

  /// Snapshot of the fleet accounting (zero-lane stats when arbitration is
  /// off). Thread-safe.
  [[nodiscard]] FleetQueueStats fleetStats() const;

 private:
  struct PendingJob {
    unsigned user = 0;
    std::uint64_t cost = 1;
    std::function<void()> job;
  };

  void drainLoop();
  /// Policy-orders one batch and updates the fleet accounting.
  [[nodiscard]] std::vector<PendingJob> arbitrate(
      std::vector<PendingJob> batch);

  runtime::ThreadPool& pool_;
  FleetArbitration fleet_;
  /// Touched only by the dispatcher thread.
  std::unique_ptr<fleet::ArbitrationPolicy> policy_;
  std::uint64_t admission_ = 0;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<PendingJob> pending_;
  /// Fleet accounting (guarded by mutex_ — stats() reads cross-thread).
  std::vector<std::uint64_t> userService_;
  std::vector<std::uint64_t> laneBusy_;
  bool stopping_ = false;
  std::thread dispatcher_;
};

class PlanService {
 public:
  /// Throws std::invalid_argument on unusable options (e.g. a cache dir
  /// whose parent does not exist).
  explicit PlanService(const ServiceOptions& options);
  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Handles one request line and returns one response line (no trailing
  /// newline). Never throws. Sets *shutdown when the request was a
  /// {"op":"shutdown"} — the caller owns what that means. `user` is the
  /// caller's identity for fleet arbitration (the socket server passes the
  /// connection index; an optional "user" field in the request overrides
  /// it). The user NEVER enters the canonical cache key — identical plans
  /// from different users share one entry.
  [[nodiscard]] std::string handle(const std::string& line,
                                   bool* shutdown = nullptr,
                                   unsigned user = 0);

  /// The {"ok":false,"kind":...,"error":...} line every rejection answers
  /// with; `kind` is one of parse|request|infeasible|internal.
  [[nodiscard]] static std::string errorResponse(const std::string& kind,
                                                 const std::string& error);

  /// The admission queue's fleet accounting (zero-lane when off).
  [[nodiscard]] FleetQueueStats fleetStats() const {
    return queue_.fleetStats();
  }

  /// Replays write-ahead-logged requests left unacknowledged by a previous
  /// daemon run (no-op without a journal). Each replayed line goes back
  /// through handle(), so it re-journals itself and — because every
  /// completed plan reached the disk cache tier before its ack — mostly
  /// resolves as a cache hit. Returns the number of requests replayed.
  /// Throws journal::CorruptJournalError on a damaged WAL.
  std::size_t replayJournal();

  /// Emits the structured `server.shutdown` summary (request/cache/uptime
  /// counters). Called on the shutdown op and by graceful signal handling.
  void logShutdown() const;

  [[nodiscard]] const PlanCache& cache() const { return cache_; }
  /// Requests handled (every line, including errors and control ops).
  [[nodiscard]] std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Cold plan computations actually executed (cache misses that led).
  [[nodiscard]] std::uint64_t planned() const {
    return planned_.load(std::memory_order_relaxed);
  }
  /// Requests that waited on an identical in-flight computation.
  [[nodiscard]] std::uint64_t coalesced() const {
    return coalesced_.load(std::memory_order_relaxed);
  }
  /// Sum of totalCycles over every cold-computed plan (the model work this
  /// service has actually performed, as opposed to served from cache).
  [[nodiscard]] std::uint64_t modelCycles() const {
    return modelCycles_.load(std::memory_order_relaxed);
  }

 private:
  /// What one computation resolves to — either plan bytes or an error.
  struct Outcome {
    bool ok = false;
    std::string plan;   ///< dumped plan JSON when ok
    std::string kind;   ///< error taxonomy: request|infeasible|internal
    std::string error;  ///< human-readable message when !ok
  };

  /// One in-flight computation: the future everyone waits on plus the
  /// leader request's span context, so a coalesced follower can name the
  /// trace it piggybacked on.
  struct Inflight {
    std::shared_future<Outcome> future;
    obs::SpanContext leader;
  };

  [[nodiscard]] std::string dispatch(const std::string& line, bool* shutdown,
                                     obs::Span& span, unsigned user);
  [[nodiscard]] std::string handlePlan(const report::Json& request,
                                       const std::string& line,
                                       obs::Span& span, unsigned user);
  [[nodiscard]] Outcome compute(const CanonicalRequest& request);
  [[nodiscard]] static std::string planResponse(const char* source,
                                                const std::string& key,
                                                const std::string& plan);
  [[nodiscard]] static std::string outcomeResponse(const char* source,
                                                   const std::string& key,
                                                   const Outcome& outcome);

  ServiceOptions options_;
  PlanCache cache_;
  /// Null without options.journalDir; owned here so WAL appends can come
  /// from any connection or pool thread for the service's whole lifetime.
  std::unique_ptr<journal::ServerJournal> journal_;
  runtime::ThreadPool pool_;
  AdmissionQueue queue_;  // after pool_: drains onto it, destroyed first

  std::mutex inflightMutex_;
  std::unordered_map<std::string, Inflight> inflight_;

  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> planned_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> modelCycles_{0};
};

}  // namespace dmf::server
