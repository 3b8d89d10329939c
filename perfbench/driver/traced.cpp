// The traced run: per-layer numbers taken from outside the program.
//
// A served workload's traced run has three phases:
//  A. the untraced wire run (the measured workload, shortened), which gives
//     the end-to-end p50 and, through the daemon's `stats` op, its cache,
//     planning and coalescing counters;
//  B. the same request stream through an in-process PlanService::handle(),
//     timed per call and split by the response's source;
//  C. the same request stream replayed through the public calls
//     PlanService makes, in its order, once without spans and once with a
//     span around every call. Each planned request is then re-timed layer
//     by layer: the base graph, and for every demand its PassCache holds,
//     the forest build, the MMS/SRS/OMS schedules and the storage count.
// fleet_kill replays dispatchFleet plus the per-user plans it makes.
//
// Spans stay in memory and are written as Chrome trace JSON (Perfetto) when
// the run ends; a layer's self time is its span minus its child spans.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "dmf/errors.h"
#include "engine/pass_cache.h"
#include "engine/serialize.h"
#include "engine/streaming.h"
#include "fleet.h"
#include "load.h"
#include "mixgraph/builders.h"
#include "report/json.h"
#include "runs.h"
#include "sched/schedule.h"
#include "server/canonical.h"
#include "server/plan_cache.h"
#include "server/service.h"

namespace perfbench {

namespace {

using dmf::report::Json;

// ---------------------------------------------------------------------------
// In-memory span recording

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    std::uint64_t traceId = 0;
    std::uint32_t parent = 0;  ///< index + 1 of the parent span, 0 = root
  };

  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_; }
  /// The next root span starts a new trace (one per request).
  void beginTrace() { ++traceId_; }

  /// A span over the enclosing scope; records nothing when tracing is off.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (!tracer_.on_) return;
      index_ = tracer_.spans_.size();
      tracer_.spans_.push_back(Span{name, tracer_.now(), 0, tracer_.traceId_,
                                    tracer_.stack_.empty()
                                        ? 0
                                        : tracer_.stack_.back()});
      tracer_.stack_.push_back(static_cast<std::uint32_t>(index_ + 1));
    }
    ~Scope() { finish(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span now; returns its duration (0 when tracing is off).
    std::uint64_t finish() {
      if (!tracer_.on_ || done_) return 0;
      done_ = true;
      Span& span = tracer_.spans_[index_];
      span.durNs = tracer_.now() - span.startNs;
      tracer_.stack_.pop_back();
      return span.durNs;
    }

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
    bool done_ = false;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus its children's.
  [[nodiscard]] std::vector<std::uint64_t> selfTimes() const {
    std::vector<std::uint64_t> children(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) children[s.parent - 1] += s.durNs;
    }
    std::vector<std::uint64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].durNs > children[i] ? spans_[i].durNs - children[i] : 0;
    }
    return self;
  }

  /// Writes the spans as Chrome trace-event JSON, at most `limit` events.
  void write(const std::string& path, std::size_t limit) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write " + path);
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
    const std::size_t n = std::min(limit, spans_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      const std::string name = s.name;
      const std::string layer = name.substr(0, name.find('.'));
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"trace_id\":%llu,"
                   "\"span_id\":%zu,\"parent_id\":%u}}\n",
                   i == 0 ? "" : ",", s.name, layer.c_str(),
                   static_cast<double>(s.startNs) / 1000.0,
                   static_cast<double>(s.durNs) / 1000.0,
                   static_cast<unsigned long long>(s.traceId), i + 1, s.parent);
    }
    std::fputs("]}\n", out);
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  [[nodiscard]] std::uint64_t now() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
            .count());
  }

  bool on_;
  Clock::time_point epoch_ = Clock::now();
  std::uint64_t traceId_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// Per-name samples of self time (ns) drawn from a tracer.
class Layers {
 public:
  explicit Layers(const Tracer& tracer) {
    const std::vector<std::uint64_t> self = tracer.selfTimes();
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      self_[tracer.spans()[i].name].push_back(static_cast<double>(self[i]));
    }
  }
  /// Median self time of `name` in ns (0 when it never ran).
  [[nodiscard]] double medianNs(const std::string& name) const {
    const auto it = self_.find(name);
    return it == self_.end() ? 0.0 : median(it->second);
  }
  [[nodiscard]] double totalNs(const std::string& name) const {
    const auto it = self_.find(name);
    double sum = 0.0;
    if (it != self_.end()) {
      for (const double v : it->second) sum += v;
    }
    return sum;
  }

 private:
  std::map<std::string, std::vector<double>> self_;
};

// ---------------------------------------------------------------------------
// Layer re-timing of one plan

struct Retimed {
  double passEvalNs = 0.0;   ///< Σ (forest build + schedule + storage count)
  double scheduleNs = 0.0;   ///< Σ schedule with the request's scheme
  std::vector<double> tasks;
};

/// Re-times, span by span, what a plan evaluated: the base graph, then for
/// every demand the plan's PassCache holds, the forest build, all three
/// schedulers on that forest, and the storage count.
Retimed retimePlan(Tracer& tracer, const dmf::Ratio& ratio,
                   dmf::mixgraph::Algorithm algorithm, dmf::engine::Scheme scheme,
                   unsigned mixers, std::uint64_t demand,
                   const dmf::engine::PassCache& passCache) {
  Retimed out;
  tracer.beginTrace();
  Tracer::Scope root(tracer, "retime");
  const dmf::mixgraph::MixingGraph graph = [&] {
    Tracer::Scope s(tracer, "mixgraph.build_graph");
    return dmf::mixgraph::buildGraph(ratio, algorithm);
  }();
  for (std::uint64_t d = 1; d <= demand; ++d) {
    if (!passCache.lookup(dmf::engine::PassKey{algorithm, scheme, mixers, d})) {
      continue;
    }
    Tracer::Scope buildSpan(tracer, "forest.build");
    const dmf::forest::TaskForest forest(graph, d);
    const double buildNs = static_cast<double>(buildSpan.finish());
    out.tasks.push_back(static_cast<double>(forest.taskCount()));
    double schemeNs = 0.0;
    std::optional<dmf::sched::Schedule> chosen;
    for (const auto& [name, which] :
         {std::pair{"sched.srs", dmf::engine::Scheme::kSRS},
          std::pair{"sched.mms", dmf::engine::Scheme::kMMS},
          std::pair{"sched.oms", dmf::engine::Scheme::kOMS}}) {
      Tracer::Scope s(tracer, name);
      dmf::sched::Schedule schedule = dmf::engine::schedule(forest, which, mixers);
      const double ns = static_cast<double>(s.finish());
      if (which == scheme) {
        schemeNs = ns;
        chosen = std::move(schedule);
      }
    }
    Tracer::Scope countSpan(tracer, "sched.count_storage");
    (void)dmf::sched::countStorage(forest, *chosen);
    const double countNs = static_cast<double>(countSpan.finish());
    out.passEvalNs += buildNs + schemeNs + countNs;
    out.scheduleNs += schemeNs;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Served workloads: the PlanService pipeline from its public calls

std::string splice(const char* source, const std::string& key,
                   const std::string& plan) {
  std::string out = "{\"ok\":true,\"source\":\"";
  out += source;
  out += "\",\"key\":\"";
  out += dmf::report::jsonEscape(key);
  out += "\",\"plan\":";
  out += plan;
  out += "}";
  return out;
}

/// What the replay of one planned request measured, for the layer table.
struct PlannedRecord {
  std::string key;
  double planNs = 0.0;
  double serializeNs = 0.0;
  std::uint64_t passEvals = 0;
  std::uint64_t passHits = 0;
  Retimed retimed;
};

/// A planned request's inputs to the re-timing that follows its replay.
struct PlanToRetime {
  dmf::server::CanonicalRequest canonical;
  unsigned mixers = 0;
  std::unique_ptr<dmf::engine::PassCache> passCache;
  PlannedRecord record;
};

/// Replays one request line through the calls PlanService makes, in its
/// order: parse, canonicalize, cache probe and, on a miss, engine set-up,
/// planning with a caller-owned PassCache, serialization and cache put;
/// then splices the response. With tracing on every call gets a span. A
/// planned request leaves what its re-timing needs in `planned`.
std::string servePipeline(const std::string& line, dmf::server::PlanCache& cache,
                          Tracer& tracer, std::optional<PlanToRetime>& planned) {
  dmf::server::PlanRequest parsed;
  {
    Tracer::Scope s(tracer, "server.parse");
    parsed = dmf::server::PlanRequest::fromJson(Json::parse(line));
  }
  PlanToRetime out;
  std::string key;
  {
    Tracer::Scope s(tracer, "server.canonicalize");
    out.canonical = dmf::server::canonicalize(parsed);
    key = out.canonical.key();
  }
  const dmf::server::CanonicalRequest& canonical = out.canonical;
  std::optional<std::string> hit;
  {
    Tracer::Scope s(tracer, "server.cache_get");
    hit = cache.get(key);
  }
  if (hit) {
    Tracer::Scope s(tracer, "server.splice");
    return splice("cache", key, *hit);
  }

  std::optional<dmf::engine::MdstEngine> engine;
  out.mixers = canonical.mixers;
  {
    Tracer::Scope s(tracer, "engine.setup");
    engine.emplace(canonical.ratio);
    if (out.mixers == 0) out.mixers = engine->defaultMixers();
  }
  dmf::engine::StreamingRequest streaming;
  streaming.algorithm = canonical.algorithm;
  streaming.scheme = canonical.scheme;
  streaming.demand = canonical.demand;
  streaming.storageCap = canonical.storageCap;
  streaming.mixers = canonical.mixers;
  streaming.jobs = 1;
  out.passCache = std::make_unique<dmf::engine::PassCache>();
  out.record.key = key;
  dmf::engine::StreamingPlan plan;
  try {
    Tracer::Scope s(tracer, canonical.optimize ? "engine.optimized_plan"
                                               : "engine.plan");
    plan = canonical.optimize
               ? dmf::engine::planStreamingOptimized(*engine, streaming,
                                                     *out.passCache)
               : dmf::engine::planStreaming(*engine, streaming, *out.passCache);
    out.record.planNs = static_cast<double>(s.finish());
  } catch (const dmf::InfeasibleError& e) {
    Json error = Json::object();
    error.set("ok", Json::boolean(false))
        .set("kind", std::string("infeasible"))
        .set("error", std::string(e.what()));
    return error.dump();
  }
  std::string bytes;
  {
    Tracer::Scope s(tracer, "engine.serialize");
    bytes = dmf::engine::toJson(plan).dump();
    out.record.serializeNs = static_cast<double>(s.finish());
  }
  {
    Tracer::Scope s(tracer, "server.cache_put");
    cache.put(key, bytes);
  }
  Tracer::Scope s(tracer, "server.splice");
  std::string response = splice("planned", key, bytes);
  planned = std::move(out);
  return response;
}

/// One request of the replay: a root span (one trace) over servePipeline,
/// then, with tracing on, the re-timing of what a planned request
/// evaluated. Returns the response; `rootNs` gets the root span's duration.
std::string replay(const std::string& line, dmf::server::PlanCache& cache,
                   Tracer& tracer, std::vector<PlannedRecord>* planned,
                   double& rootNs) {
  std::optional<PlanToRetime> toRetime;
  std::string response;
  tracer.beginTrace();
  {
    Tracer::Scope root(tracer, "server.handle");
    response = servePipeline(line, cache, tracer, toRetime);
    rootNs = static_cast<double>(root.finish());
  }
  if (tracer.on() && planned != nullptr && toRetime) {
    PlannedRecord record = std::move(toRetime->record);
    const dmf::engine::PassCacheStats stats = toRetime->passCache->stats();
    record.passEvals = stats.evaluations();
    record.passHits = stats.hits;
    const dmf::server::CanonicalRequest& c = toRetime->canonical;
    record.retimed = retimePlan(tracer, c.ratio, c.algorithm, c.scheme,
                                toRetime->mixers, c.demand, *toRetime->passCache);
    planned->push_back(std::move(record));
  }
  return response;
}

/// One phase-C pass: a fresh cache warmed like the daemon, then up to
/// `maxRequests` requests of a fresh stream until `seconds` run out.
/// Returns the summed wall time of the replayed calls.
struct ReplayPass {
  std::size_t requests = 0;
  double handleNs = 0.0;
  std::vector<double> perRequestNs;
};

ReplayPass replayPass(const RunOptions& options, Tracer& tracer,
                      std::size_t maxRequests, double seconds,
                      std::vector<PlannedRecord>* planned, RunResult& result) {
  dmf::server::PlanCache cache(dmf::server::PlanCache::Options{});
  RequestStream stream(options.workload, options.seed);
  Tracer quiet(false);
  double ignored = 0.0;
  for (const Request& request : stream.warmup()) {
    (void)replay(request.line, cache, quiet, nullptr, ignored);
  }
  ReferenceSet refs;
  std::map<std::string, std::string> responses;
  ReplayPass pass;
  const auto deadline = after(Clock::now(), seconds);
  while (pass.requests < maxRequests && Clock::now() < deadline) {
    const Request request = stream.next();
    const auto t0 = Clock::now();
    double rootNs = 0.0;
    std::string response = replay(request.line, cache, tracer, planned, rootNs);
    const double ns =
        tracer.on() ? rootNs
                    : std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    pass.handleNs += ns;
    pass.perRequestNs.push_back(ns);
    ++pass.requests;
    if (tracer.on()) {
      refs.add(request.key, request.line);
      responses.emplace(request.key, std::move(response));
    }
  }
  if (tracer.on()) {
    // The replay is checked like the wire run: same bytes as the reference.
    refs.compute(4, result);
    for (const auto& [key, response] : responses) {
      if (!refs.matches(key, response)) result.mismatch("replay " + key);
    }
  }
  return pass;
}

/// Phase B: PlanService::handle() in-process, timed per call by source.
struct HandleTimes {
  std::map<std::string, std::vector<double>> bySourceUs;
  std::vector<double> allUs;
  std::map<std::string, double> plannedUsByKey;
};

HandleTimes timeHandle(const RunOptions& options, double seconds,
                       RunResult& result) {
  dmf::server::ServiceOptions serviceOptions;
  serviceOptions.jobs = kDaemonJobs;
  HandleTimes times;
  {
    dmf::server::PlanService service(serviceOptions);
    RequestStream stream(options.workload, options.seed);
    for (const Request& request : stream.warmup()) (void)service.handle(request.line);
    const unsigned lanes = closedLanes(options.workload);
    std::vector<std::vector<std::tuple<std::string, std::string, double>>> perLane(
        lanes);
    Tally tally = runClosedLoop(
        [&](unsigned lane) -> Exchange {
          auto* samples = &perLane[lane];
          return [&service, samples](const std::string& line, std::string& response) {
            const auto t0 = Clock::now();
            response = service.handle(line);
            const double us =
                std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
            samples->emplace_back(responseSource(response), line, us);
            return true;
          };
        },
        lanes, after(Clock::now(), seconds), stream, false);
    ReferenceSet refs;
    checkTally(tally, refs, result);
    for (auto& lane : perLane) {
      for (auto& [source, line, us] : lane) {
        times.bySourceUs[source].push_back(us);
        times.allUs.push_back(us);
        if (source == "planned") times.plannedUsByKey[canonicalKey(line)] = us;
      }
    }
  }
  return times;
}

/// A number from the daemon's stats reply: json[a] or json[a][b].
double statField(const Json& json, const std::string& a,
                 const std::string& b = "") {
  if (!json.contains(a)) return 0.0;
  const Json& v = json.at(a);
  if (b.empty()) return v.asDouble();
  return v.contains(b) ? v.at(b).asDouble() : 0.0;
}

void addZeroFleet(RunResult& result) {
  for (const char* name : {"fleet.planning_ms", "fleet.dispatch_self_ms"}) {
    result.add(name, 0.0, "ms");
  }
  result.add("fleet.placements", 0.0, "count");
  result.add("fleet.migrations", 0.0, "count");
  result.add("fleet.serialize_us", 0.0, "us");
  result.add("fleet.makespan_cycles", 0.0, "cycles");
  result.add("fleet.jain_permille", 0.0, "permille");
}

/// The engine/mixgraph/forest/sched rows, from spans and planned records.
void addEngineLayers(const Layers& layers, const std::vector<PlannedRecord>& planned,
                     RunResult& result) {
  std::vector<double> searchSelfMs;
  std::vector<double> evals;
  std::vector<double> tasks;
  double hits = 0.0;
  double evaluations = 0.0;
  double planTotalNs = 0.0;
  double scheduleTotalNs = 0.0;
  for (const PlannedRecord& r : planned) {
    searchSelfMs.push_back((r.planNs - r.retimed.passEvalNs) / 1e6);
    evals.push_back(static_cast<double>(r.passEvals));
    hits += static_cast<double>(r.passHits);
    evaluations += static_cast<double>(r.passEvals);
    planTotalNs += r.planNs;
    scheduleTotalNs += r.retimed.scheduleNs;
    tasks.insert(tasks.end(), r.retimed.tasks.begin(), r.retimed.tasks.end());
  }
  result.add("engine.plan_ms", layers.medianNs("engine.plan") / 1e6, "ms");
  result.add("engine.optimized_plan_ms",
             layers.medianNs("engine.optimized_plan") / 1e6, "ms");
  result.add("engine.setup_us", layers.medianNs("engine.setup") / 1e3, "us");
  result.add("engine.pass_evals_per_plan", median(evals), "count");
  result.add("engine.pass_cache_hit_ratio",
             evaluations > 0.0 ? hits / evaluations : 0.0, "ratio");
  result.add("engine.search_self_ms", median(searchSelfMs), "ms");
  result.add("engine.serialize_us", layers.medianNs("engine.serialize") / 1e3, "us");
  result.add("mixgraph.build_graph_us",
             layers.medianNs("mixgraph.build_graph") / 1e3, "us");
  result.add("forest.build_us", layers.medianNs("forest.build") / 1e3, "us");
  result.add("forest.tasks", median(tasks), "count");
  result.add("sched.srs_us", layers.medianNs("sched.srs") / 1e3, "us");
  result.add("sched.mms_us", layers.medianNs("sched.mms") / 1e3, "us");
  result.add("sched.oms_us", layers.medianNs("sched.oms") / 1e3, "us");
  const double mms = layers.totalNs("sched.mms");
  result.add("sched.srs_over_mms", mms > 0.0 ? layers.totalNs("sched.srs") / mms : 0.0,
             "ratio");
  result.add("sched.count_storage_us",
             layers.medianNs("sched.count_storage") / 1e3, "us");
  result.add("sched.share_of_plan",
             planTotalNs > 0.0 ? scheduleTotalNs / planTotalNs : 0.0, "ratio");
}

/// The two obs rows: tracing overhead (traced vs untraced replay of the same
/// requests) and the share of the traced request the layer spans on its
/// blocking path account for.
void addObs(double tracedNs, double untracedNs, double coveragePct,
            RunResult& result) {
  result.add("obs.trace_overhead_pct",
             untracedNs > 0.0 ? (tracedNs - untracedNs) / untracedNs * 100.0 : 0.0,
             "pct");
  result.add("obs.ledger_coverage_pct", coveragePct, "pct");
}

/// Over all root spans named `root`: the summed self time of their layer
/// spans as a share of the summed root durations, in percent.
double layerCoveragePct(const Tracer& tracer, const char* root) {
  const std::vector<std::uint64_t> self = tracer.selfTimes();
  double rootNs = 0.0;
  double layersNs = 0.0;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    if (s.parent == 0 && std::string(s.name) == root) {
      rootNs += static_cast<double>(s.durNs);
      layersNs += static_cast<double>(s.durNs - self[i]);
    }
  }
  return rootNs > 0.0 ? layersNs / rootNs * 100.0 : 0.0;
}

RunResult runTracedServed(const RunOptions& options) {
  RunResult result;
  const double s = options.seconds;

  // A. the untraced wire run.
  RunOptions wire = options;
  wire.seconds = std::max(1.0, s * 0.3);
  wire.requestsOut.clear();
  RunResult a = options.workload == "hot_serve" ? runHotServe(wire)
                                                : runColdPlan(wire);
  result.correct = a.correct;
  result.attempted = a.attempted;
  result.failed = a.failed;
  result.endToEnd = a.metrics;
  double e2eP50Ms = 0.0;
  for (const Metric& m : a.metrics) {
    if (m.name == "latency_p50_ms") e2eP50Ms = m.value;
  }
  const Json stats = Json::parse(a.daemonStats);
  const double hits = statField(stats, "cache", "hits");
  const double misses = statField(stats, "cache", "misses");
  const double lookups = hits + misses;
  const double planned = statField(stats, "planned");
  const double coalesced = statField(stats, "coalesced");
  if (options.workload == "cold_plan" &&
      (coalesced != 0.0 || planned != static_cast<double>(a.attempted))) {
    result.mismatch("cold_plan: planned " + std::to_string(planned) +
                    " for " + std::to_string(a.attempted) +
                    " distinct keys, coalesced " + std::to_string(coalesced));
  }

  // B. PlanService::handle() in-process, with the workload's concurrency.
  const HandleTimes handle = timeHandle(options, s * 0.2, result);

  // C. the replay, untraced then traced, over the same requests.
  constexpr std::size_t kMaxReplay = 50000;
  Tracer quiet(false);
  const ReplayPass untraced = replayPass(options, quiet, kMaxReplay, s * 0.15,
                                         nullptr, result);
  Tracer tracer(true);
  std::vector<PlannedRecord> plannedRecords;
  const ReplayPass traced = replayPass(options, tracer, untraced.requests,
                                       s * 2.0, &plannedRecords, result);
  if (!options.traceOut.empty()) tracer.write(options.traceOut, 400000);
  const Layers layers(tracer);

  std::vector<double> missWaitMs;
  for (const PlannedRecord& r : plannedRecords) {
    const auto it = handle.plannedUsByKey.find(r.key);
    if (it != handle.plannedUsByKey.end()) {
      missWaitMs.push_back((it->second * 1e3 - r.planNs - r.serializeNs) / 1e6);
    }
  }
  auto sourceMedianUs = [&](const char* source) {
    const auto it = handle.bySourceUs.find(source);
    return it == handle.bySourceUs.end() ? 0.0 : median(it->second);
  };
  const double handleP50Us = median(handle.allUs);

  result.add("server.parse_ns", layers.medianNs("server.parse"), "ns");
  result.add("server.canonicalize_ns", layers.medianNs("server.canonicalize"), "ns");
  result.add("server.cache_get_ns", layers.medianNs("server.cache_get"), "ns");
  result.add("server.cache_put_ns", layers.medianNs("server.cache_put"), "ns");
  result.add("server.wire_us", e2eP50Ms * 1e3 - handleP50Us, "us");
  result.add("server.cache_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0, "ratio");
  result.add("server.evictions", statField(stats, "cache", "evictions"), "count");
  result.add("server.miss_wait_ms", median(missWaitMs), "ms");
  result.add("server.coalesced_ratio", lookups > 0.0 ? coalesced / lookups : 0.0,
             "ratio");
  result.add("server.planned", planned, "count");
  result.add("server.handle_cache_us", sourceMedianUs("cache"), "us");
  result.add("server.handle_planned_us", sourceMedianUs("planned"), "us");
  result.add("server.handle_coalesced_us", sourceMedianUs("coalesced"), "us");
  addEngineLayers(layers, plannedRecords, result);
  addZeroFleet(result);
  addObs(traced.handleNs, untraced.handleNs * static_cast<double>(traced.requests) /
                              static_cast<double>(std::max<std::size_t>(1, untraced.requests)),
         layerCoveragePct(tracer, "server.handle"), result);
  result.notes.push_back("traced replay: " + std::to_string(traced.requests) +
                         " requests, " + std::to_string(plannedRecords.size()) +
                         " planned and re-timed, " +
                         std::to_string(tracer.spans().size()) + " spans");
  return result;
}

// ---------------------------------------------------------------------------
// fleet_kill

RunResult runTracedFleet(const RunOptions& options) {
  RunResult result;
  // Serial planning inside dispatchFleet, so Σ per-user plan time is the
  // planning phase's wall time and dispatch minus planning is meaningful.
  const FleetScenario scenario = makeFleetScenario(options.seed, 1);
  const double s = options.seconds;

  double untracedNs = 0.0;
  std::size_t n = 0;
  const auto untracedEnd = after(Clock::now(), s * 0.3);
  while (Clock::now() < untracedEnd) {
    const auto t0 = Clock::now();
    const dmf::fleet::FleetResult fleet =
        dmf::fleet::dispatchFleet(scenario.users, scenario.options);
    (void)fleet.toJson(true).dump();
    untracedNs += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    ++n;
  }

  Tracer tracer(true);
  std::vector<PlannedRecord> plannedRecords;
  std::vector<double> planningMs;
  std::vector<double> dispatchSelfMs;
  std::optional<dmf::fleet::FleetResult> first;
  std::string firstJson;
  double tracedNs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    tracer.beginTrace();
    Tracer::Scope root(tracer, "fleet.request");
    Tracer::Scope dispatchSpan(tracer, "fleet.dispatch");
    dmf::fleet::FleetResult fleet =
        dmf::fleet::dispatchFleet(scenario.users, scenario.options);
    const double dispatchNs = static_cast<double>(dispatchSpan.finish());
    std::string json;
    {
      Tracer::Scope ser(tracer, "fleet.serialize");
      json = fleet.toJson(true).dump();
    }
    tracedNs += static_cast<double>(root.finish());
    ++result.attempted;
    if (!first) {
      first = std::move(fleet);
      firstJson = json;
    } else if (json != firstJson) {
      ++result.failed;
      result.mismatch("fleet_kill: dispatch " + std::to_string(i) +
                      " differs from the first");
    }

    // The per-user plans dispatchFleet makes, re-run one by one.
    tracer.beginTrace();
    Tracer::Scope users(tracer, "fleet.plan_users");
    double planningNs = 0.0;
    for (const dmf::fleet::UserStream& user : scenario.users) {
      Tracer::Scope one(tracer, "fleet.plan_user");
      std::optional<dmf::engine::MdstEngine> engine;
      unsigned mixers = user.request.mixers;
      {
        Tracer::Scope setup(tracer, "engine.setup");
        engine.emplace(user.ratio);
        if (mixers == 0) mixers = engine->defaultMixers();
      }
      dmf::engine::StreamingRequest request = user.request;
      request.jobs = 1;
      dmf::engine::PassCache passCache;
      PlannedRecord record;
      {
        Tracer::Scope plan(tracer, user.optimize ? "engine.optimized_plan"
                                                 : "engine.plan");
        (void)(user.optimize
                   ? dmf::engine::planStreamingOptimized(*engine, request, passCache)
                   : dmf::engine::planStreaming(*engine, request, passCache));
        record.planNs = static_cast<double>(plan.finish());
      }
      planningNs += static_cast<double>(one.finish());
      if (i < 2) {
        const dmf::engine::PassCacheStats stats = passCache.stats();
        record.passEvals = stats.evaluations();
        record.passHits = stats.hits;
        record.retimed = retimePlan(tracer, user.ratio, request.algorithm,
                                    request.scheme, mixers, request.demand,
                                    passCache);
        plannedRecords.push_back(std::move(record));
      }
    }
    users.finish();
    planningMs.push_back(planningNs / 1e6);
    dispatchSelfMs.push_back((dispatchNs - planningNs) / 1e6);
  }
  if (!first) throw std::runtime_error("fleet_kill: no dispatch completed");
  if (!checkFleetResult(scenario, *first, result)) ++result.failed;
  if (!options.traceOut.empty()) tracer.write(options.traceOut, 400000);
  const Layers layers(tracer);

  for (const char* name :
       {"server.parse_ns", "server.canonicalize_ns", "server.cache_get_ns",
        "server.cache_put_ns"}) {
    result.add(name, 0.0, "ns");
  }
  result.add("server.wire_us", 0.0, "us");
  result.add("server.cache_hit_ratio", 0.0, "ratio");
  result.add("server.evictions", 0.0, "count");
  result.add("server.miss_wait_ms", 0.0, "ms");
  result.add("server.coalesced_ratio", 0.0, "ratio");
  result.add("server.planned", 0.0, "count");
  result.add("server.handle_cache_us", 0.0, "us");
  result.add("server.handle_planned_us", 0.0, "us");
  result.add("server.handle_coalesced_us", 0.0, "us");
  addEngineLayers(layers, plannedRecords, result);
  result.add("fleet.planning_ms", median(planningMs), "ms");
  result.add("fleet.dispatch_self_ms", median(dispatchSelfMs), "ms");
  result.add("fleet.placements", static_cast<double>(first->log.size()), "count");
  result.add("fleet.migrations", static_cast<double>(first->migrations), "count");
  result.add("fleet.serialize_us", layers.medianNs("fleet.serialize") / 1e3, "us");
  result.add("fleet.makespan_cycles", static_cast<double>(first->makespan), "cycles");
  result.add("fleet.jain_permille", std::round(first->jainIndex() * 1000.0),
             "permille");
  addObs(tracedNs, untracedNs, layerCoveragePct(tracer, "fleet.request"), result);
  result.notes.push_back("traced replay: " + std::to_string(n) + " dispatches, " +
                         std::to_string(tracer.spans().size()) + " spans");
  return result;
}

}  // namespace

RunResult runTraced(const RunOptions& runOptions) {
  // The phases take up to ~3x the run's seconds; per-layer figures need no
  // more than 20 s of it, and a long run must still end in time.
  RunOptions options = runOptions;
  options.seconds = std::min(options.seconds, 20.0);
  if (options.workload == "fleet_kill") return runTracedFleet(options);
  if (options.workload == "cold_plan" || options.workload == "hot_serve") {
    return runTracedServed(options);
  }
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace perfbench
