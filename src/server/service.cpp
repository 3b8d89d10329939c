#include "server/service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "dmf/errors.h"
#include "dmf/parse.h"
#include "engine/serialize.h"
#include "engine/streaming.h"
#include "journal/server_journal.h"
#include "obs/log.h"
#include "obs/scope.h"
#include "report/json.h"
#include "runtime/parallel_for.h"

namespace dmf::server {

using report::Json;

// ---------------------------------------------------------------------------
// AdmissionGate

AdmissionGate::AdmissionGate(const ServiceOptions& options)
    : users_(options.fleetWeights.empty()
                 ? 16
                 : static_cast<unsigned>(options.fleetWeights.size())),
      policy_(dmf::fleet::makePolicy(options.fleetPolicy)),
      free_(runtime::resolveJobs(options.jobs)) {
  policy_->setUsers(users_);
  if (!options.fleetWeights.empty()) policy_->setWeights(options.fleetWeights);
  policy_->setQuantum(options.fleetQuantum);
}

AdmissionGate::Permit AdmissionGate::acquire(unsigned user,
                                             std::uint64_t cost) {
  Waiter self;
  std::unique_lock<std::mutex> lock(mutex_);
  dmf::fleet::WorkItem item;
  item.user = user % users_;
  item.admission = admission_++;
  item.cost = std::max<std::uint64_t>(1, cost);
  waiters_.emplace(item.admission, &self);
  policy_->enqueue(item);
  grantLocked();
  obs::gaugeMax("server.queue.depth", policy_->pending());
  self.wake.wait(lock, [&self] { return self.granted; });
  return Permit(*this);
}

void AdmissionGate::release() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++free_;
  grantLocked();
}

void AdmissionGate::grantLocked() {
  while (free_ > 0) {
    const std::optional<unsigned> user = policy_->pickUser(0.0);
    if (!user.has_value()) return;
    const std::optional<dmf::fleet::WorkItem> item = policy_->pop(*user);
    if (!item.has_value()) return;
    --free_;
    // Notified under the lock: the waiter's stack frame outlives the wait
    // only until it reacquires mutex_.
    Waiter* waiter = waiters_.extract(item->admission).mapped();
    waiter->granted = true;
    waiter->wake.notify_one();
  }
}

// ---------------------------------------------------------------------------
// PlanService

PlanService::PlanService(const ServiceOptions& options)
    : gate_(options),
      cache_(PlanCache::Options{options.cacheSize, options.cacheDir}),
      journal_(options.journalDir.empty()
                   ? nullptr
                   : std::make_unique<journal::ServerJournal>(
                         options.journalDir)) {}

PlanService::~PlanService() = default;

std::size_t PlanService::replayJournal() {
  if (journal_ == nullptr) return 0;
  const std::vector<std::string> pending = journal_->recoverPending();
  for (const std::string& line : pending) {
    // Replay through the front door: the request re-journals itself, and
    // its result is discarded — the original client is gone; what matters
    // is that the plan lands in the cache for their retry.
    (void)handle(line);
  }
  if (!pending.empty()) {
    obs::LogLine(obs::LogLevel::kInfo, "server.journal.replayed")
        .num("requests", pending.size());
  }
  return pending.size();
}

std::string PlanService::handle(const std::string& line, bool* shutdown,
                                unsigned user) {
  // The root span of this request's trace: everything downstream — cache
  // probe, coalesce wait, the computation and its engine spans — shares its
  // trace id.
  obs::Span span("server.request", "server");
  requests_.fetch_add(1, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  std::string response;
  try {
    response = dispatch(line, shutdown, span, user);
  } catch (const std::exception& e) {
    // dispatch() already maps every expected failure; this is the backstop
    // that keeps the socket loop alive no matter what.
    response = errorResponse("internal", e.what());
  } catch (...) {
    response = errorResponse("internal", "unknown error");
  }
  if (obs::metrics() != nullptr ||
      obs::logEnabled(obs::LogLevel::kDebug)) {
    const auto nanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (obs::MetricsRegistry* m = obs::metrics()) {
      m->histogram("server.request_nanos",
                   {1'000, 10'000, 100'000, 1'000'000, 10'000'000,
                    100'000'000, 1'000'000'000})
          .observe(nanos);
    }
    obs::LogLine(obs::LogLevel::kDebug, "server.request")
        .num("bytes_in", line.size())
        .num("bytes_out", response.size())
        .num("nanos", nanos);
  }
  obs::count("server.requests");
  return response;
}

std::string PlanService::dispatch(const std::string& line, bool* shutdown,
                                  obs::Span& span, unsigned user) {
  Json request = Json::object();
  try {
    request = Json::parse(line);
  } catch (const std::invalid_argument& e) {
    return errorResponse("parse", e.what());
  }
  if (!request.isObject()) {
    return errorResponse("parse", "request must be a JSON object");
  }
  std::string op = "plan";
  if (request.contains("op")) {
    try {
      op = request.at("op").asString();
    } catch (const std::logic_error&) {
      return errorResponse("request", "\"op\" must be a string");
    }
  }
  if (obs::tracer() != nullptr) span.arg("op", op);
  if (op == "ping") {
    return "{\"ok\":true,\"op\":\"ping\"}";
  }
  if (op == "shutdown") {
    if (shutdown != nullptr) *shutdown = true;
    logShutdown();
    return "{\"ok\":true,\"op\":\"shutdown\"}";
  }
  if (op == "stats") {
    const PlanCache::Stats stats = cache_.stats();
    Json out = Json::object();
    out.set("ok", Json::boolean(true)).set("op", std::string("stats"));
    Json cacheJson = Json::object();
    cacheJson.set("hits", stats.hits)
        .set("diskHits", stats.diskHits)
        .set("misses", stats.misses)
        .set("evictions", stats.evictions)
        .set("size", std::uint64_t{stats.size})
        .set("capacity", std::uint64_t{cache_.capacity()});
    out.set("cache", std::move(cacheJson))
        .set("requests", requests())
        .set("planned", planned())
        .set("coalesced", coalesced())
        .set("modelCycles", modelCycles());
    // With an observability session installed the full instrument snapshot
    // rides along, so `dmfstream stats --port P` can render Prometheus text
    // from a live daemon.
    if (obs::MetricsRegistry* m = obs::metrics()) {
      out.set("metrics", m->snapshot());
    }
    return out.dump();
  }
  if (op == "plan") {
    return handlePlan(request, line, span, user);
  }
  return errorResponse("request", "unknown op \"" + op +
                                      "\" (plan|ping|stats|shutdown)");
}

std::string PlanService::handlePlan(const Json& request,
                                    const std::string& line, obs::Span& span,
                                    unsigned user) {
  PlanRequest parsed;
  try {
    parsed = PlanRequest::fromJson(request);
  } catch (const std::invalid_argument& e) {
    return errorResponse("request", e.what());
  }
  // An explicit "user" field overrides the connection identity (scripted
  // multi-tenant tests drive several users over one connection). It never
  // reaches the canonical key: user identity must not fragment the cache.
  if (request.contains("user")) {
    try {
      user = narrowUnsigned<unsigned>(request.at("user").asUint(),
                                      "request field \"user\"");
    } catch (const std::invalid_argument& e) {
      return errorResponse("request", e.what());
    } catch (const std::logic_error&) {
      return errorResponse("request",
                           "request field \"user\" must be a number");
    }
  }
  const CanonicalRequest canonical = canonicalize(parsed);
  const std::string key = canonical.key();

  {
    const char* tier = "miss";
    obs::Span probe("server.cache.probe", "server");
    const auto hit = cache_.get(key, &tier);
    if (obs::tracer() != nullptr) probe.arg("tier", tier);
    if (hit) {
      return planResponse("cache", key, *hit);
    }
  }

  // Coalesce: exactly one leader per key computes; everyone else arriving
  // while it is in flight waits on the same future.
  std::shared_future<Outcome> future;
  obs::SpanContext leaderContext;
  std::promise<Outcome> promise;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(inflightMutex_);
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) {
      future = promise.get_future().share();
      inflight_.emplace(key, Inflight{future, span.context()});
      leader = true;
    } else {
      future = it->second.future;
      leaderContext = it->second.leader;
    }
  }
  if (!leader) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    obs::count("server.coalesce");
    // The follower's wait is a span of its own trace, annotated with the
    // identity of the leader span it piggybacks on — the trace viewer can
    // join the two requests on these ids.
    obs::Span wait("server.coalesce.wait", "server");
    if (obs::tracer() != nullptr) {
      wait.arg("leader_trace", std::to_string(leaderContext.traceId));
      wait.arg("leader_span", std::to_string(leaderContext.spanId));
    }
    return outcomeResponse("coalesced", key, future.get());
  }

  // The leader computes on this thread. Every exit from here on fulfils
  // the future and retires the in-flight entry: an escaping exception (a
  // failed WAL append, say) must answer the followers, not break their
  // promise and leave the key coalescing onto it until restart.
  Outcome outcome;
  try {
    // Write-ahead: the leader journals the admitted request *before* it
    // computes, so a daemon killed mid-compute finds the line
    // unacknowledged on restart and replays it.
    std::uint64_t walId = 0;
    if (journal_ != nullptr) walId = journal_->logRequest(line);
    // The policy arbitrates on the request demand — the best cost proxy
    // available before the plan is computed.
    const AdmissionGate::Permit permit = gate_.acquire(user, canonical.demand);
    {
      const obs::Span computeSpan("server.compute", "server");
      outcome = compute(canonical);
    }
    if (outcome.ok) cache_.put(key, outcome.plan);
    // Ack after the cache put (and even for failed outcomes — a replay
    // would fail identically). The plan is already cached, so a WAL I/O
    // failure here degrades to a warning: the worst case is one spurious
    // replay on the next restart.
    if (walId != 0) {
      try {
        journal_->ack(walId);
      } catch (const std::exception& e) {
        obs::LogLine(obs::LogLevel::kWarn, "server.journal.ack_failed")
            .str("error", e.what());
      }
    }
  } catch (const std::exception& e) {
    outcome = Outcome{false, {}, "internal", e.what()};
  } catch (...) {
    outcome = Outcome{false, {}, "internal", "unknown error"};
  }
  // Publish before retiring: the plan is cached and the future fulfilled
  // before the in-flight entry goes, so every arrival finds the cache
  // entry, a pending future or a ready future — never a gap that elects a
  // duplicate leader (a second compute and WAL append) when a small cache
  // has already evicted the key. Retiring the entry once answered keeps a
  // failed, uncacheable outcome from lingering: the next request for the
  // key is a fresh leader (InfeasibleOutcomesAreNotCached).
  promise.set_value(std::move(outcome));
  {
    std::lock_guard<std::mutex> lock(inflightMutex_);
    inflight_.erase(key);
  }
  return outcomeResponse("planned", key, future.get());
}

PlanService::Outcome PlanService::compute(const CanonicalRequest& request) {
  planned_.fetch_add(1, std::memory_order_relaxed);
  obs::count("server.planned");
  Outcome outcome;
  try {
    const engine::MdstEngine engine(request.ratio);
    engine::StreamingRequest streaming;
    streaming.algorithm = request.algorithm;
    streaming.scheme = request.scheme;
    streaming.demand = request.demand;
    streaming.storageCap = request.storageCap;
    streaming.mixers = request.mixers;
    // jobs drives only an optimized plan's candidate sweep. Keep it serial:
    // the admission gate already runs up to `jobs` requests concurrently.
    streaming.jobs = 1;
    const engine::StreamingPlan plan =
        request.optimize ? engine::planStreamingOptimized(engine, streaming)
                         : engine::planStreaming(engine, streaming);
    outcome.ok = true;
    outcome.plan = engine::toJson(plan).dump();
    modelCycles_.fetch_add(plan.totalCycles, std::memory_order_relaxed);
  } catch (const InfeasibleError& e) {
    outcome.kind = "infeasible";
    outcome.error = e.what();
  } catch (const std::invalid_argument& e) {
    outcome.kind = "request";
    outcome.error = e.what();
  } catch (const std::exception& e) {
    outcome.kind = "internal";
    outcome.error = e.what();
  }
  return outcome;
}

std::string PlanService::planResponse(const char* source,
                                      const std::string& key,
                                      const std::string& plan) {
  // The plan bytes are spliced in verbatim — what the cache stores is
  // exactly what every response carries, so hits are byte-identical to the
  // cold computation by construction.
  std::string out = "{\"ok\":true,\"source\":\"";
  out += source;
  out += "\",\"key\":\"";
  out += report::jsonEscape(key);
  out += "\",\"plan\":";
  out += plan;
  out += "}";
  return out;
}

std::string PlanService::errorResponse(const std::string& kind,
                                       const std::string& error) {
  Json out = Json::object();
  out.set("ok", Json::boolean(false))
      .set("kind", kind)
      .set("error", error);
  return out.dump();
}

void PlanService::logShutdown() const {
  if (!obs::logEnabled(obs::LogLevel::kInfo)) return;
  const PlanCache::Stats stats = cache_.stats();
  const std::uint64_t lookups = stats.hits + stats.diskHits + stats.misses;
  const double hitRatio =
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.hits + stats.diskHits) /
                         static_cast<double>(lookups);
  const auto uptime = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started_)
          .count());
  obs::LogLine(obs::LogLevel::kInfo, "server.shutdown")
      .num("requests", requests())
      .num("planned", planned())
      .num("coalesced", coalesced())
      .num("cache_mem_hits", stats.hits)
      .num("cache_disk_hits", stats.diskHits)
      .num("cache_misses", stats.misses)
      .real("hit_ratio", hitRatio)
      .num("model_cycles", modelCycles())
      .num("uptime_nanos", uptime);
}

std::string PlanService::outcomeResponse(const char* source,
                                         const std::string& key,
                                         const Outcome& outcome) {
  if (outcome.ok) return planResponse(source, key, outcome.plan);
  return errorResponse(outcome.kind, outcome.error);
}

}  // namespace dmf::server
