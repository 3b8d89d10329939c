// The plan service behind `dmfstream serve` (DESIGN.md §13): parses one
// line-delimited JSON request, canonicalizes it, and answers from a
// two-tier plan cache, coalescing concurrent identical requests onto one
// computation.
//
// Request pipeline per line:
//   parse -> canonicalize -> cache get (hit: respond in microseconds)
//         -> coalescing map (in-flight identical request: wait on its
//            future — second arrival never re-plans)
//         -> admission gate (the leader takes one of `jobs` permits,
//            waiting in arbitration-policy order while none is free, and
//            computes on its own thread; each plan computes serially)
//
// handle() never throws: malformed input, infeasible requests and internal
// errors all become {"ok":false,...} responses — nothing propagates across
// the socket loop.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/policy.h"
#include "obs/scope.h"
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
  /// Maximum concurrent plan computations (0 = hardware concurrency). A
  /// cold leader computes on its own thread once it holds one of these
  /// permits. Each computation is serial inside, so responses are
  /// byte-identical for every value.
  unsigned jobs = 1;
  /// Admission arbitration (DESIGN.md §17): leaders waiting for a permit
  /// are granted in the order of this fleet::makePolicy name, "fifo"
  /// (global arrival order) | "rr" | "wfq".
  std::string fleetPolicy = "fifo";
  /// Weights for the user slots; its size bounds the number of slots a
  /// connection id folds into (empty = 16 equal-weight slots).
  std::vector<double> fleetWeights;
  /// wfq service quantum (in demand units); 0 disables batching.
  double fleetQuantum = 0.0;
};

/// Bounds concurrent plan computations to a fixed number of permits. The
/// caller computes on its own thread while it holds a permit; there is no
/// dispatcher thread and no batch. While every permit is held, callers wait,
/// and each freed permit goes to the waiter the configured arbitration
/// policy picks. The policy state (e.g. wfq virtual time) persists across
/// grants, so a heavy user's backlog cannot starve light users.
class AdmissionGate {
 public:
  /// A held permit; destruction returns it to the gate.
  class Permit {
   public:
    explicit Permit(AdmissionGate& gate) : gate_(gate) {}
    ~Permit() { gate_.release(); }
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;

   private:
    AdmissionGate& gate_;
  };

  /// `options.jobs` permits, arbitrated as the `options.fleet*` fields
  /// configure. Throws std::invalid_argument on an unknown policy, a bad
  /// weight or a negative quantum.
  explicit AdmissionGate(const ServiceOptions& options);

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Blocks until the caller holds a permit. `user` is the caller's
  /// identity (folded into a user slot); `cost` is the service-cost proxy
  /// the policy arbitrates on (e.g. the request demand; clamped to >= 1).
  [[nodiscard]] Permit acquire(unsigned user, std::uint64_t cost);

 private:
  /// A caller blocked in acquire(), woken when its item is granted.
  struct Waiter {
    std::condition_variable wake;
    bool granted = false;
  };

  void release();
  /// Hands free permits to waiters in policy order. Caller holds mutex_.
  void grantLocked();

  /// Number of user slots a caller identity folds into.
  const unsigned users_;
  std::mutex mutex_;
  /// Guarded by mutex_, like everything below.
  std::unique_ptr<fleet::ArbitrationPolicy> policy_;
  unsigned free_;
  std::uint64_t admission_ = 0;
  /// Waiters by the admission number of their policy item.
  std::unordered_map<std::uint64_t, Waiter*> waiters_;
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
  /// The gate cold leaders take their compute permits from. A caller may
  /// hold permits through the ordinary acquire(): leaders then wait in
  /// policy order (after registering as in flight, so identical requests
  /// coalesce onto them) until the permits come back.
  [[nodiscard]] AdmissionGate& gate() { return gate_; }
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

  /// Built first: it validates the arbitration options before the cache
  /// and WAL directories are touched.
  AdmissionGate gate_;
  PlanCache cache_;
  /// Null without options.journalDir; owned here so WAL appends can come
  /// from any request thread for the service's whole lifetime.
  std::unique_ptr<journal::ServerJournal> journal_;

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
