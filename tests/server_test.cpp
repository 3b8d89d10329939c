// Plan-as-a-service tests (DESIGN.md §13): canonical request keying, the
// two-tier LRU plan cache, request coalescing, socket round trips, and the
// byte-identity guarantees (cache hit == cold plan == direct engine dump,
// for every --jobs value).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/mdst.h"
#include "engine/serialize.h"
#include "engine/streaming.h"
#include "obs/scope.h"
#include "journal/server_journal.h"
#include "report/json.h"
#include "server/canonical.h"
#include "server/plan_cache.h"
#include "server/service.h"
#include "server/socket_server.h"

namespace dmf::server {
namespace {

namespace fs = std::filesystem;

/// A fresh per-test scratch directory under the system temp dir.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("dmf_server_test_" + tag + "_" +
              std::to_string(static_cast<unsigned long>(::getpid()))))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string planLine(const std::string& ratio, std::uint64_t demand,
                     unsigned storage) {
  return "{\"op\":\"plan\",\"ratio\":\"" + ratio +
         "\",\"demand\":" + std::to_string(demand) +
         ",\"storage\":" + std::to_string(storage) + "}";
}

/// The "plan" payload of a response, as raw bytes.
std::string planBytes(const std::string& response) {
  const report::Json json = report::Json::parse(response);
  EXPECT_TRUE(json.at("ok").asBool()) << response;
  return json.at("plan").dump();
}

std::string sourceOf(const std::string& response) {
  return report::Json::parse(response).at("source").asString();
}

/// Polls `done` every millisecond for up to ten seconds; false on timeout.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Span identity parsed back out of a recorded trace.
struct ParsedSpan {
  std::string name;
  double startMicros = 0.0;
  std::uint64_t traceId = 0;
  std::uint64_t spanId = 0;
  std::uint64_t parentSpanId = 0;
  std::uint64_t leaderTrace = 0;
  std::uint64_t leaderSpan = 0;
  /// The "slot" argument a test attached to its own client span.
  std::string slot;
};

std::vector<ParsedSpan> parseSpans(const obs::TraceRecorder& recorder) {
  const report::Json trace = report::Json::parse(recorder.toJson().dump(2));
  std::vector<ParsedSpan> spans;
  const report::Json& events = trace.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const report::Json& e = events.at(i);
    if (e.at("ph").asString() != "X" || !e.contains("args")) continue;
    const report::Json& args = e.at("args");
    if (!args.contains("span_id")) continue;
    ParsedSpan span;
    span.name = e.at("name").asString();
    span.startMicros = e.at("ts").asDouble();
    span.traceId = args.at("trace_id").asUint();
    span.spanId = args.at("span_id").asUint();
    if (args.contains("parent_span_id")) {
      span.parentSpanId = args.at("parent_span_id").asUint();
    }
    if (args.contains("leader_trace")) {
      span.leaderTrace =
          std::stoull(args.at("leader_trace").asString());
      span.leaderSpan = std::stoull(args.at("leader_span").asString());
    }
    if (args.contains("slot")) span.slot = args.at("slot").asString();
    spans.push_back(span);
  }
  return spans;
}

/// Holds `count` of a service's admission permits until release() or
/// destruction. Each is taken through the ordinary acquire(), so the
/// arbitration policy counts the holder as one more work item (of `user`,
/// costing `cost`). While every permit is held, a cold leader registers as
/// in flight and then waits in the gate, so identical arrivals coalesce
/// onto it and distinct ones queue: the tests below order arrivals by
/// waiting on the service's own counters, not on a stretched computation.
class HeldPermits {
 public:
  HeldPermits(AdmissionGate& gate, unsigned count, unsigned user = 0,
              std::uint64_t cost = 1) {
    for (unsigned i = 0; i < count; ++i) {
      // A Permit neither copies nor moves; new-initializing it from the
      // returned prvalue constructs it in place.
      permits_.emplace_back(
          new AdmissionGate::Permit(gate.acquire(user, cost)));
    }
  }
  void release() { permits_.clear(); }

 private:
  std::vector<std::unique_ptr<AdmissionGate::Permit>> permits_;
};

/// The admission gate's high-water waiter count. While a HeldPermits holds
/// every permit nothing is granted, so it is the number of leaders waiting.
std::uint64_t queueDepth(obs::Session& session) {
  return session.metrics.gauge("server.queue.depth").value();
}

// --------------------------------------------------------------------------
// Canonical request keying (satellite: 2:4:2 == 1:2:1).

CanonicalRequest canonicalOf(const std::string& line) {
  return canonicalize(PlanRequest::fromJson(report::Json::parse(line)));
}

TEST(ServerCanonical, GoldenKeyFormat) {
  const CanonicalRequest c = canonicalOf(
      "{\"ratio\":\"2:1:1:1:1:1:9\",\"demand\":20,\"storage\":4,"
      "\"algo\":\"MM\",\"scheme\":\"SRS\",\"mixers\":3}");
  EXPECT_EQ(c.key(),
            "v1|ratio=2:1:1:1:1:1:9|algo=MM|scheme=SRS|d=20|cap=4|mc=3|opt=0");
}

TEST(ServerCanonical, EquivalentRatiosShareOneKey) {
  const std::string a =
      canonicalOf("{\"ratio\":\"2:4:2\",\"demand\":4}").key();
  const std::string b =
      canonicalOf("{\"ratio\":\"1:2:1\",\"demand\":4}").key();
  const std::string c =
      canonicalOf("{\"ratio\":\"8:16:8\",\"demand\":4}").key();
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
  EXPECT_EQ(a, "v1|ratio=1:2:1|algo=MM|scheme=SRS|d=4|cap=4|mc=0|opt=0");
}

TEST(ServerCanonical, DistinctRequestsGetDistinctKeys) {
  const std::string base = canonicalOf(
      "{\"ratio\":\"3:1\",\"demand\":8}").key();
  EXPECT_NE(canonicalOf("{\"ratio\":\"3:1\",\"demand\":9}").key(), base);
  EXPECT_NE(canonicalOf("{\"ratio\":\"3:1\",\"demand\":8,\"storage\":5}")
                .key(),
            base);
  EXPECT_NE(canonicalOf(
                "{\"ratio\":\"3:1\",\"demand\":8,\"algo\":\"RMA\"}").key(),
            base);
  EXPECT_NE(canonicalOf(
                "{\"ratio\":\"3:1\",\"demand\":8,\"optimize\":true}").key(),
            base);
  EXPECT_NE(canonicalOf("{\"ratio\":\"1:3\",\"demand\":8}").key(), base);
}

TEST(ServerCanonical, RejectsMalformedRequests) {
  EXPECT_THROW(canonicalOf("{\"demand\":4}"), std::invalid_argument);
  EXPECT_THROW(canonicalOf("{\"ratio\":\"3:1\"}"), std::invalid_argument);
  EXPECT_THROW(canonicalOf("{\"ratio\":\"3:4\",\"demand\":4}"),
               std::invalid_argument);
  EXPECT_THROW(canonicalOf("{\"ratio\":\"3:1\",\"demand\":0}"),
               std::invalid_argument);
  EXPECT_THROW(canonicalOf("{\"ratio\":\"3:1\",\"demand\":4,\"storage\":0}"),
               std::invalid_argument);
  EXPECT_THROW(
      canonicalOf("{\"ratio\":\"3:1\",\"demand\":4,\"scheme\":\"XX\"}"),
      std::invalid_argument);
  EXPECT_THROW(
      canonicalOf("{\"ratio\":\"3:1\",\"demand\":4,\"algo\":\"XX\"}"),
      std::invalid_argument);
  EXPECT_THROW(canonicalOf("{\"ratio\":3,\"demand\":4}"),
               std::invalid_argument);
}

// --------------------------------------------------------------------------
// PlanCache: LRU order, eviction, first-value-wins, persistent tier.

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  PlanCache cache(PlanCache::Options{2, ""});
  cache.put("a", "plan-a");
  cache.put("b", "plan-b");
  ASSERT_TRUE(cache.get("a").has_value());  // a is now MRU, b is LRU
  cache.put("c", "plan-c");                 // evicts b
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(PlanCache, DuplicatePutKeepsFirstValue) {
  PlanCache cache(PlanCache::Options{4, ""});
  cache.put("k", "first");
  cache.put("k", "second");
  EXPECT_EQ(cache.get("k").value(), "first");
}

TEST(PlanCache, RejectsBadOptions) {
  EXPECT_THROW(PlanCache(PlanCache::Options{0, ""}), std::invalid_argument);
  EXPECT_THROW(
      PlanCache(PlanCache::Options{4, "/nonexistent-dir-for-test/cache"}),
      std::invalid_argument);
}

TEST(PlanCache, PersistentTierSurvivesRestartByteIdentically) {
  TempDir dir("cache_tier");
  const std::string plan = "{\"totalCycles\":7,\"passes\":[1,2,3]}";
  {
    PlanCache cache(PlanCache::Options{4, dir.path()});
    cache.put("key-1", plan);
  }
  PlanCache reborn(PlanCache::Options{4, dir.path()});
  const auto hit = reborn.get("key-1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, plan);  // byte-identical through the disk round trip
  EXPECT_EQ(reborn.stats().diskHits, 1u);
  // Promoted into memory: the second get is a memory hit.
  (void)reborn.get("key-1");
  EXPECT_EQ(reborn.stats().hits, 1u);
}

TEST(PlanCache, CorruptDiskEntryDegradesToMiss) {
  TempDir dir("cache_corrupt");
  {
    PlanCache cache(PlanCache::Options{4, dir.path()});
    cache.put("key-1", "{\"a\":1}");
  }
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    std::ofstream(entry.path(), std::ios::trunc) << "not json";
  }
  PlanCache reborn(PlanCache::Options{4, dir.path()});
  EXPECT_FALSE(reborn.get("key-1").has_value());
  EXPECT_EQ(reborn.stats().misses, 1u);
}

TEST(PlanCache, TornDiskWriteDegradesToMiss) {
  // Entries are published atomically (tmp + fsync + rename), so a torn
  // entry should never exist — but if one does (pre-durability file, disk
  // damage), it must read as a miss, never as a half-parsed plan.
  TempDir dir("cache_torn");
  {
    PlanCache cache(PlanCache::Options{4, dir.path()});
    cache.put("key-1", "{\"totalCycles\":7,\"passes\":[1,2,3]}");
  }
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  PlanCache reborn(PlanCache::Options{4, dir.path()});
  EXPECT_FALSE(reborn.get("key-1").has_value());
  EXPECT_EQ(reborn.stats().misses, 1u);
  // And no .tmp intermediates were ever left behind by the atomic writes.
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    EXPECT_EQ(entry.path().extension(), ".json");
  }
}

TEST(PlanCache, DiskEntryForDifferentKeyIsNotServed) {
  // The file name is a hash; the key inside is the identity. Swap the key
  // field and the entry must degrade to a miss, not serve the wrong plan.
  TempDir dir("cache_wrongkey");
  {
    PlanCache cache(PlanCache::Options{4, dir.path()});
    cache.put("key-1", "{\"a\":1}");
  }
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    report::Json doc = report::Json::object();
    doc.set("key", std::string("key-OTHER")).set("plan", std::string("{}"));
    std::ofstream(entry.path(), std::ios::trunc) << doc.dump();
  }
  PlanCache reborn(PlanCache::Options{4, dir.path()});
  EXPECT_FALSE(reborn.get("key-1").has_value());
}

// --------------------------------------------------------------------------
// PlanService: caching, coalescing, error taxonomy, determinism.

TEST(ServerService, CacheHitIsByteIdenticalToColdPlan) {
  PlanService service(ServiceOptions{});
  const std::string line = planLine("2:1:1:1:1:1:9", 32, 3);
  const std::string cold = service.handle(line);
  const std::string warm = service.handle(line);
  EXPECT_EQ(sourceOf(cold), "planned");
  EXPECT_EQ(sourceOf(warm), "cache");
  EXPECT_EQ(planBytes(cold), planBytes(warm));

  // ...and identical to what the engine library produces directly.
  const engine::MdstEngine engine(Ratio({2, 1, 1, 1, 1, 1, 9}));
  engine::StreamingRequest request;
  request.demand = 32;
  request.storageCap = 3;
  const engine::StreamingPlan plan = engine::planStreaming(engine, request);
  EXPECT_EQ(planBytes(cold), engine::toJson(plan).dump());
}

TEST(ServerService, EquivalentRatiosHitOneEntry) {
  PlanService service(ServiceOptions{});
  const std::string cold = service.handle(planLine("2:4:2", 4, 4));
  const std::string warm = service.handle(planLine("1:2:1", 4, 4));
  EXPECT_EQ(sourceOf(cold), "planned");
  EXPECT_EQ(sourceOf(warm), "cache");
  EXPECT_EQ(planBytes(cold), planBytes(warm));
  EXPECT_EQ(service.planned(), 1u);
  EXPECT_EQ(service.cache().stats().size, 1u);
}

TEST(ServerService, ResponsesAreIdenticalForEveryJobsValue) {
  const std::vector<std::string> lines = {
      planLine("2:1:1:1:1:1:9", 32, 3), planLine("3:1", 8, 3),
      planLine("7:3:3:3", 40, 4), planLine("1:2:1", 6, 4)};
  std::vector<std::string> baseline;
  for (unsigned jobs : {1u, 4u}) {
    ServiceOptions options;
    options.jobs = jobs;
    PlanService service(options);
    std::vector<std::string> responses;
    for (const std::string& line : lines) {
      responses.push_back(service.handle(line));
    }
    if (baseline.empty()) {
      baseline = responses;
    } else {
      EXPECT_EQ(responses, baseline) << "jobs=" << jobs;
    }
  }
}

TEST(ServerService, MalformedLinesNeverThrowAndKeepTaxonomy) {
  PlanService service(ServiceOptions{});
  auto kindOf = [&](const std::string& line) {
    const std::string response = service.handle(line);
    const report::Json json = report::Json::parse(response);
    EXPECT_FALSE(json.at("ok").asBool());
    return json.at("kind").asString();
  };
  EXPECT_EQ(kindOf("not json"), "parse");
  EXPECT_EQ(kindOf("{} trailing"), "parse");
  EXPECT_EQ(kindOf("[1,2,3]"), "parse");
  EXPECT_EQ(kindOf("{\"op\":\"nope\"}"), "request");
  EXPECT_EQ(kindOf("{\"op\":\"plan\"}"), "request");
  EXPECT_EQ(kindOf("{\"op\":\"plan\",\"ratio\":\"3:4\",\"demand\":4}"),
            "request");
  EXPECT_EQ(kindOf("{\"op\":\"plan\",\"ratio\":\"1:1:1:1:1:1:1:1\","
                   "\"demand\":32,\"storage\":1,\"mixers\":1}"),
            "infeasible");
}

TEST(ServerService, InfeasibleOutcomesAreNotCached) {
  PlanService service(ServiceOptions{});
  const std::string line =
      "{\"op\":\"plan\",\"ratio\":\"1:1:1:1:1:1:1:1\",\"demand\":32,"
      "\"storage\":1,\"mixers\":1}";
  (void)service.handle(line);
  (void)service.handle(line);
  EXPECT_EQ(service.cache().stats().size, 0u);
  EXPECT_EQ(service.planned(), 2u);  // recomputed (and refused) both times
}

TEST(ServerService, CoalescesConcurrentIdenticalRequests) {
  obs::Session session;
  obs::Scope scope(session);
  ServiceOptions options;
  options.jobs = 4;
  PlanService service(options);
  const std::string line = planLine("2:1:1:1:1:1:9", 16, 3);
  constexpr int kClients = 8;
  std::vector<std::string> responses(kClients);
  bool allCoalesced = false;
  std::uint64_t plannedWhileHeld = 0;
  {
    // The first arrival leads and waits for a permit; every other client
    // coalesces onto it before any computation starts.
    HeldPermits held(service.gate(), options.jobs);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back(
          [&service, &responses, &line, i] {
            responses[static_cast<std::size_t>(i)] = service.handle(line);
          });
    }
    allCoalesced =
        eventually([&] { return service.coalesced() == kClients - 1; });
    plannedWhileHeld = service.planned();
    held.release();
    for (std::thread& t : clients) t.join();
  }
  // Exactly one computation ran, and every other client coalesced onto it.
  EXPECT_TRUE(allCoalesced);
  EXPECT_EQ(plannedWhileHeld, 0u);
  EXPECT_EQ(service.planned(), 1u);
  EXPECT_EQ(service.coalesced(), static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(service.cache().stats().hits, 0u);
  EXPECT_EQ(session.metrics.counter("server.coalesce").value(),
            service.coalesced());
  for (const std::string& response : responses) {
    EXPECT_EQ(planBytes(response), planBytes(responses[0]));
  }
}

TEST(ServerService, UserFieldOverridesConnectionIdentityButNotTheKey) {
  PlanService service(ServiceOptions{});
  const std::string base = planLine("2:1:1:1:1:1:9", 16, 3);
  // Same plan, explicit "user":1 in the request body (connection user 0).
  std::string tagged = base;
  tagged.insert(tagged.size() - 1, ",\"user\":1");
  const std::string cold = service.handle(tagged, nullptr, 0);
  const std::string warm = service.handle(base, nullptr, 0);
  // Identity never enters the canonical key: the second request (different
  // user, same plan) is a cache hit on the first's entry.
  EXPECT_EQ(sourceOf(cold), "planned");
  EXPECT_EQ(sourceOf(warm), "cache");
  EXPECT_EQ(planBytes(cold), planBytes(warm));
  // A mistyped user field is a request error, not a crash.
  std::string bad = base;
  bad.insert(bad.size() - 1, ",\"user\":\"alice\"");
  const report::Json rejected = report::Json::parse(service.handle(bad));
  EXPECT_FALSE(rejected.at("ok").asBool());
  EXPECT_EQ(rejected.at("kind").asString(), "request");
  // A user past unsigned is out of range, not wrapped onto another tenant.
  std::string wide = base;
  wide.insert(wide.size() - 1, ",\"user\":4294967297");
  const report::Json outOfRange = report::Json::parse(service.handle(wide));
  EXPECT_FALSE(outOfRange.at("ok").asBool());
  EXPECT_EQ(outOfRange.at("kind").asString(), "request");
  EXPECT_NE(outOfRange.at("error").asString().find("0..4294967295"),
            std::string::npos);
}

// --------------------------------------------------------------------------
// Admission gate: a leader computes on its own thread under one of `jobs`
// permits; waiters are granted in arbitration-policy order.

TEST(ServerService, DistinctLeadersComputeConcurrently) {
  ServiceOptions options;
  options.jobs = 2;
  PlanService service(options);
  // The test holds one permit for as long as B runs, like a computation
  // that has not finished; B takes the second permit, computes and
  // returns without waiting for the first to come back.
  HeldPermits a(service.gate(), 1);
  std::atomic<bool> bDone{false};
  std::thread b([&service, &bDone] {
    (void)service.handle(planLine("1:3", 8, 3));
    bDone.store(true);
  });
  const bool bFinished = eventually([&] { return bDone.load(); });
  a.release();
  b.join();
  EXPECT_TRUE(bFinished);
  EXPECT_EQ(service.planned(), 1u);
}

TEST(ServerService, JobsBoundsConcurrentComputations) {
  obs::Session session;
  obs::Scope scope(session);
  ServiceOptions options;
  options.jobs = 1;
  PlanService service(options);
  std::uint64_t plannedWhileQueued = 0;
  bool bothQueued = false;
  {
    // The test holds the one permit: both leaders queue for it and neither
    // computes until it comes back.
    HeldPermits held(service.gate(), 1);
    std::thread a([&service] { (void)service.handle(planLine("3:1", 8, 3)); });
    std::thread b([&service] { (void)service.handle(planLine("1:3", 8, 3)); });
    bothQueued = eventually([&] { return queueDepth(session) >= 2; });
    plannedWhileQueued = service.planned();
    held.release();
    a.join();
    b.join();
  }
  EXPECT_TRUE(bothQueued);
  EXPECT_EQ(plannedWhileQueued, 0u);
  EXPECT_EQ(service.planned(), 2u);
}

TEST(ServerService, WfqGrantsALightUserAheadOfAHeavyBacklog) {
  // (user slot, demand) in arrival order; the demand is the cost wfq charges.
  const std::vector<std::pair<unsigned, std::uint64_t>> arrivals = {
      {0, 8}, {0, 9}, {0, 10}, {0, 11}, {0, 12}, {1, 13}};
  // The test holds the one permit as the first arrival, so the policy's own
  // order for these arrivals is the holder's item, then the grant order of
  // the five requests.
  fleet::WeightedFairPolicy policy;
  policy.setUsers(2);
  policy.setWeights({8.0, 1.0});
  std::vector<unsigned> expected;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    policy.enqueue(fleet::WorkItem{.user = arrivals[i].first,
                                   .admission = i,
                                   .cost = arrivals[i].second});
    if (i == 0) expected.push_back(policy.pop(*policy.pickUser(0.0))->user);
  }
  while (const std::optional<unsigned> user = policy.pickUser(0.0)) {
    expected.push_back(policy.pop(*user)->user);
  }
  // The weight-1 user is granted next, not after the heavy backlog.
  EXPECT_EQ(expected, (std::vector<unsigned>{0, 1, 0, 0, 0, 0}));

  // The light request reaches slot 1 three ways: over connection 1, over
  // connection 0 with a "user":1 override, and over connection 3, which
  // folds onto the two weight slots.
  struct Light {
    unsigned connection;
    bool userField;
  };
  for (const Light light : {Light{1, false}, Light{0, true}, Light{3, false}}) {
    SCOPED_TRACE("light connection " + std::to_string(light.connection) +
                 (light.userField ? " with \"user\":1" : ""));
    obs::Session session;
    obs::Scope scope(session);
    ServiceOptions options;
    options.jobs = 1;
    options.fleetPolicy = "wfq";
    options.fleetWeights = {8.0, 1.0};
    PlanService service(options);
    std::vector<std::thread> clients;
    bool queued = true;
    {
      HeldPermits held(service.gate(), 1, arrivals[0].first,
                       arrivals[0].second);
      for (std::size_t i = 1; i < arrivals.size(); ++i) {
        const auto [slot, demand] = arrivals[i];
        std::string line = planLine("3:1", demand, 3);
        unsigned connection = 0;
        if (slot == 1) {
          connection = light.connection;
          if (light.userField) line.insert(line.size() - 1, ",\"user\":1");
        }
        clients.emplace_back([&service, slot, line, connection] {
          // The client's span names its slot; the request's spans, the
          // computation included, join its trace.
          obs::Span client("test.client", "test");
          client.arg("slot", std::to_string(slot));
          (void)service.handle(line, nullptr, connection);
        });
        // Each request queues behind the held permit before the next
        // arrives, so the light user arrives last.
        queued = queued && eventually([&] { return queueDepth(session) >= i; });
      }
      held.release();
      for (std::thread& client : clients) client.join();
    }
    ASSERT_TRUE(queued);
    // One permit runs one computation at a time, so the computations'
    // start order is the gate's grant order.
    const std::vector<ParsedSpan> spans = parseSpans(session.trace);
    std::map<std::uint64_t, unsigned> slotByTrace;
    std::vector<const ParsedSpan*> computes;
    for (const ParsedSpan& span : spans) {
      if (span.name == "test.client") {
        slotByTrace[span.traceId] =
            static_cast<unsigned>(std::stoul(span.slot));
      }
      if (span.name == "server.compute") computes.push_back(&span);
    }
    std::stable_sort(computes.begin(), computes.end(),
                     [](const ParsedSpan* a, const ParsedSpan* b) {
                       return a->startMicros < b->startMicros;
                     });
    std::vector<unsigned> granted{arrivals[0].first};  // the holder's item
    for (const ParsedSpan* compute : computes) {
      granted.push_back(slotByTrace.at(compute->traceId));
    }
    EXPECT_EQ(granted, expected);
  }
}

TEST(ServerService, FailedWalAppendDoesNotPoisonTheKey) {
  // Every WAL append fails with ENOSPC: wal.log is a symlink to /dev/full.
  TempDir dir("service_wal_full");
  fs::create_symlink("/dev/full", fs::path(dir.path()) / "wal.log");
  ServiceOptions options;
  options.journalDir = dir.path();
  PlanService service(options);
  const std::string line = planLine("1:3", 8, 3);
  for (int i = 0; i < 3; ++i) {
    // Each request fails on its own append and names the cause; none
    // coalesces onto an entry a failed leader left behind.
    const std::string response = service.handle(line);
    const report::Json json = report::Json::parse(response);
    EXPECT_FALSE(json.at("ok").asBool()) << response;
    EXPECT_EQ(json.at("kind").asString(), "internal") << response;
    EXPECT_NE(response.find(std::strerror(ENOSPC)), std::string::npos)
        << response;
    EXPECT_EQ(response.find("Broken promise"), std::string::npos)
        << response;
  }
  EXPECT_EQ(service.coalesced(), 0u);
  EXPECT_EQ(service.planned(), 0u);
}

// Regression: the leader used to drop its in-flight entry *before*
// publishing the outcome to its shared future. A follower arriving in that
// window missed the coalescing map, and — when LRU pressure had already
// evicted the freshly-put entry — missed the cache too, electing itself a
// duplicate leader: one request computed (and WAL-appended) twice. The fix
// publishes first, so a capacity-1 cache under concurrent eviction must
// still compute each distinct request exactly once per burst.
TEST(PlanCache, ForcedEvictionUnderCoalescingKeepsOneLeaderPerKey) {
  const std::string lineA = planLine("2:1:1:1:1:1:9", 16, 3);
  const std::string lineB = planLine("3:1", 8, 3);
  const std::string lineC = planLine("1:2:1", 6, 4);
  for (int iteration = 0; iteration < 15; ++iteration) {
    obs::Session session;
    obs::Scope scope(session);
    ServiceOptions options;
    options.cacheSize = 1;  // every distinct put evicts the previous entry
    options.jobs = 4;
    PlanService service(options);
    constexpr int kClientsA = 6;
    std::vector<std::string> responsesA(kClientsA);
    std::string responseB;
    std::string responseC;
    bool settled = false;
    {
      // Every client of lineA joins the leader's in-flight entry, and the
      // three leaders wait, before any computation starts; released
      // together, lineB/lineC evict underneath lineA's publication.
      HeldPermits held(service.gate(), options.jobs);
      std::vector<std::thread> clients;
      clients.reserve(kClientsA + 2);
      for (int i = 0; i < kClientsA; ++i) {
        clients.emplace_back([&service, &responsesA, &lineA, i] {
          responsesA[static_cast<std::size_t>(i)] = service.handle(lineA);
        });
      }
      clients.emplace_back(
          [&service, &responseB, &lineB] { responseB = service.handle(lineB); });
      clients.emplace_back(
          [&service, &responseC, &lineC] { responseC = service.handle(lineC); });
      settled = eventually([&] {
        return service.coalesced() == kClientsA - 1 &&
               queueDepth(session) >= 3;
      });
      held.release();
      for (std::thread& t : clients) t.join();
    }
    // Exactly one computation per distinct request, despite the eviction
    // churn racing the leader's publication.
    EXPECT_TRUE(settled) << "iteration " << iteration;
    EXPECT_EQ(service.planned(), 3u) << "iteration " << iteration;
    EXPECT_GE(service.cache().stats().evictions, 1u)
        << "capacity-1 cache saw no eviction pressure — the regression "
           "scenario was not exercised";
    for (const std::string& response : responsesA) {
      EXPECT_EQ(planBytes(response), planBytes(responsesA[0]));
    }
    EXPECT_FALSE(planBytes(responseB).empty());
    EXPECT_FALSE(planBytes(responseC).empty());
  }
}

TEST(ServerService, PersistentTierAnswersAfterRestartWithoutReplanning) {
  TempDir dir("service_restart");
  const std::string line = planLine("2:1:1:1:1:1:9", 32, 3);
  std::string cold;
  {
    ServiceOptions options;
    options.cacheDir = dir.path();
    PlanService service(options);
    cold = service.handle(line);
    EXPECT_EQ(sourceOf(cold), "planned");
  }
  ServiceOptions options;
  options.cacheDir = dir.path();
  PlanService reborn(options);
  const std::string warm = reborn.handle(line);
  EXPECT_EQ(sourceOf(warm), "cache");
  EXPECT_EQ(planBytes(warm), planBytes(cold));
  EXPECT_EQ(reborn.planned(), 0u);  // nothing recomputed across the restart
}

TEST(ServerService, JournalReplaysUnackedRequestsIntoTheCache) {
  TempDir dir("service_wal");
  const std::string line = planLine("1:3", 8, 3);
  {
    // Simulate a daemon killed mid-compute: the request was journaled on
    // admission but the ack (written after the cache put) never landed.
    journal::ServerJournal wal(dir.path());
    (void)wal.logRequest(line);
  }
  ServiceOptions options;
  options.journalDir = dir.path();
  PlanService service(options);
  EXPECT_EQ(service.replayJournal(), 1u);
  // The replayed computation went through the normal path and is cached:
  // the client's retry is answered without replanning.
  EXPECT_EQ(sourceOf(service.handle(line)), "cache");
}

TEST(ServerService, AckedRequestsAreNotReplayed) {
  TempDir dir("service_wal_acked");
  const std::string line = planLine("1:3", 8, 3);
  {
    ServiceOptions options;
    options.journalDir = dir.path();
    PlanService service(options);
    EXPECT_EQ(sourceOf(service.handle(line)), "planned");  // logged + acked
  }
  ServiceOptions options;
  options.journalDir = dir.path();
  PlanService reborn(options);
  EXPECT_EQ(reborn.replayJournal(), 0u);
  EXPECT_EQ(reborn.planned(), 0u);
}

TEST(ServerService, ReplayJournalIsANoOpWithoutAJournal) {
  PlanService service{ServiceOptions{}};
  EXPECT_EQ(service.replayJournal(), 0u);
}

TEST(ServerService, OpsPingStatsShutdown) {
  PlanService service(ServiceOptions{});
  bool shutdown = false;
  EXPECT_EQ(service.handle("{\"op\":\"ping\"}", &shutdown),
            "{\"ok\":true,\"op\":\"ping\"}");
  EXPECT_FALSE(shutdown);
  (void)service.handle(planLine("3:1", 4, 4));
  const report::Json stats =
      report::Json::parse(service.handle("{\"op\":\"stats\"}"));
  EXPECT_TRUE(stats.at("ok").asBool());
  EXPECT_EQ(stats.at("planned").asUint(), 1u);
  EXPECT_EQ(stats.at("cache").at("size").asUint(), 1u);
  EXPECT_EQ(service.handle("{\"op\":\"shutdown\"}", &shutdown),
            "{\"ok\":true,\"op\":\"shutdown\"}");
  EXPECT_TRUE(shutdown);
}

// --------------------------------------------------------------------------
// Observability (DESIGN.md §14): split cache-tier counters, the stats op's
// metrics snapshot, and one-trace-per-request span trees including the
// coalesced follower's reference to its leader.

TEST(ServerService, StatsCarriesMetricsSnapshotWhenSessionInstalled) {
  {
    PlanService bare(ServiceOptions{});
    const report::Json stats =
        report::Json::parse(bare.handle("{\"op\":\"stats\"}"));
    EXPECT_FALSE(stats.contains("metrics"));  // no session, no snapshot
    EXPECT_EQ(stats.at("requests").asUint(), 1u);
  }
  obs::Session session;
  obs::Scope scope(session);
  PlanService service(ServiceOptions{});
  (void)service.handle(planLine("3:1", 4, 4));
  const report::Json stats =
      report::Json::parse(service.handle("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.at("requests").asUint(), 2u);
  EXPECT_EQ(stats.at("planned").asUint(), 1u);
  EXPECT_EQ(stats.at("coalesced").asUint(), 0u);
  EXPECT_EQ(stats.at("modelCycles").asUint(), service.modelCycles());
  EXPECT_GT(service.modelCycles(), 0u);
  ASSERT_TRUE(stats.contains("metrics"));
  const report::Json& metrics = stats.at("metrics");
  EXPECT_GE(metrics.at("counters").at("server.requests").asUint(), 1u);
  EXPECT_TRUE(metrics.at("histograms").contains("server.request_nanos"));
}

TEST(ServerService, CacheTierCountersSplitMemoryAndDisk) {
  TempDir dir("tier_counters");
  obs::Session session;
  obs::Scope scope(session);
  const std::string line = planLine("2:1:1:1:1:1:9", 16, 3);
  {
    ServiceOptions options;
    options.cacheDir = dir.path();
    PlanService service(options);
    (void)service.handle(line);  // miss -> planned
    (void)service.handle(line);  // memory hit
  }
  EXPECT_EQ(session.metrics.counter("server.cache.miss").value(), 1u);
  EXPECT_EQ(session.metrics.counter("server.cache.mem_hit").value(), 1u);
  EXPECT_EQ(session.metrics.counter("server.cache.disk_hit").value(), 0u);
  ServiceOptions options;
  options.cacheDir = dir.path();
  PlanService reborn(options);
  (void)reborn.handle(line);  // memory cold after restart -> disk tier
  EXPECT_EQ(session.metrics.counter("server.cache.disk_hit").value(), 1u);
  EXPECT_EQ(session.metrics.counter("server.cache.miss").value(), 1u);
}

TEST(ServerService, ColdRequestSpansFormOneTrace) {
  obs::Session session;
  {
    obs::Scope scope(session);
    PlanService service(ServiceOptions{});
    (void)service.handle(planLine("3:1", 8, 3));
  }
  const std::vector<ParsedSpan> spans = parseSpans(session.trace);
  const ParsedSpan* root = nullptr;
  for (const ParsedSpan& span : spans) {
    if (span.name == "server.request") root = &span;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parentSpanId, 0u);
  // Every span of the request — probe, compute, engine internals spliced
  // across the admission queue — carries the root's trace id.
  std::set<std::string> names;
  for (const ParsedSpan& span : spans) {
    EXPECT_EQ(span.traceId, root->traceId) << span.name;
    names.insert(span.name);
  }
  EXPECT_TRUE(names.count("server.cache.probe"));
  EXPECT_TRUE(names.count("server.compute"));
  EXPECT_TRUE(names.count("engine.plan_streaming"));
}

TEST(ServerService, CoalescedFollowersReferenceTheLeaderTrace) {
  obs::Session session;
  std::uint64_t coalesced = 0;
  {
    obs::Scope scope(session);
    ServiceOptions options;
    options.jobs = 4;
    PlanService service(options);
    const std::string line = planLine("2:1:1:1:1:1:9", 16, 3);
    constexpr int kClients = 8;
    HeldPermits held(service.gate(), options.jobs);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&service, &line] { (void)service.handle(line); });
    }
    (void)eventually([&] { return service.coalesced() == kClients - 1; });
    held.release();
    for (std::thread& t : clients) t.join();
    coalesced = service.coalesced();
  }
  ASSERT_EQ(coalesced, 7u);

  const std::vector<ParsedSpan> spans = parseSpans(session.trace);
  // The leader is the request trace that ran the computation.
  std::uint64_t leaderTrace = 0;
  for (const ParsedSpan& span : spans) {
    if (span.name == "server.compute") leaderTrace = span.traceId;
  }
  ASSERT_NE(leaderTrace, 0u);
  std::map<std::uint64_t, const ParsedSpan*> requestsByTrace;
  for (const ParsedSpan& span : spans) {
    if (span.name == "server.request") {
      requestsByTrace.emplace(span.traceId, &span);
    }
  }
  std::size_t waits = 0;
  for (const ParsedSpan& span : spans) {
    if (span.name != "server.coalesce.wait") continue;
    ++waits;
    // The wait belongs to the follower's own trace...
    EXPECT_NE(span.traceId, leaderTrace);
    // ...and names the leader's request root, joinable in the trace file.
    EXPECT_EQ(span.leaderTrace, leaderTrace);
    const auto leader = requestsByTrace.find(span.leaderTrace);
    ASSERT_NE(leader, requestsByTrace.end());
    EXPECT_EQ(span.leaderSpan, leader->second->spanId);
  }
  EXPECT_EQ(waits, coalesced);
}

// --------------------------------------------------------------------------
// SocketServer: a real TCP round trip, including shutdown-by-request.

TEST(ServerSocket, RoundTripsRequestsOverTcp) {
  PlanService service(ServiceOptions{});
  SocketServer socket(service, SocketServerOptions{0});
  ASSERT_GT(socket.port(), 0);
  std::thread serverThread([&socket] { socket.run(); });

  std::istringstream in(planLine("3:1", 8, 3) + "\n" +
                        planLine("3:1", 8, 3) + "\n" +
                        "{\"op\":\"shutdown\"}\n");
  std::ostringstream out;
  EXPECT_TRUE(driveLines(socket.port(), in, out));
  socket.stop();
  serverThread.join();

  std::vector<std::string> responses;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    responses.push_back(line);
  }
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(sourceOf(responses[0]), "planned");
  EXPECT_EQ(sourceOf(responses[1]), "cache");
  EXPECT_EQ(planBytes(responses[0]), planBytes(responses[1]));
  EXPECT_EQ(responses[2], "{\"ok\":true,\"op\":\"shutdown\"}");
}

/// Threads of this process, from /proc/self/task.
std::size_t threadCount() {
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator{}));
}

/// threadCount() once it falls to `target`, or after two seconds. A thread
/// leaves /proc/self/task shortly after it exits, and can still be listed
/// once std::thread::join has returned.
std::size_t threadCountSettledTo(std::size_t target) {
  std::size_t count = threadCount();
  for (int i = 0; i < 200 && count > target; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    count = threadCount();
  }
  return count;
}

TEST(ServerSocket, ClosedConnectionsReleaseTheirThreads) {
  PlanService service(ServiceOptions{});
  SocketServer socket(service, SocketServerOptions{0});
  std::thread serverThread([&socket] { socket.run(); });
  const std::size_t before = threadCount();
  const auto ping = [&socket] {
    std::istringstream in("{\"op\":\"ping\"}\n");
    std::ostringstream out;
    return driveLines(socket.port(), in, out);
  };
  bool allAnswered = true;
  for (int i = 0; i < 200; ++i) allAnswered = ping() && allAnswered;
  // A worker still finishing one connection when the next arrives makes one
  // more worker; each accept retires the idle ones the queue does not need.
  // So a quiet server keeps one reusable worker, and 200 leaked connection
  // threads would leave 200. Ping until every spare has retired (bounded).
  std::size_t after = threadCountSettledTo(before + 1);
  for (int i = 0; i < 20 && after > before + 1; ++i) {
    allAnswered = ping() && allAnswered;
    after = threadCountSettledTo(before + 1);
  }
  socket.stop();
  serverThread.join();
  EXPECT_TRUE(allAnswered);
  EXPECT_LE(after, before + 1);
}

/// Opens a connection and has it answer one ping; -1 on failure.
int pingedConnection(unsigned short port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const std::string ping = "{\"op\":\"ping\"}\n";
  char ch = 0;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, ping.data(), ping.size(), 0) != static_cast<ssize_t>(ping.size())) {
    ::close(fd);
    return -1;
  }
  while (::recv(fd, &ch, 1, 0) == 1 && ch != '\n') {
  }
  if (ch != '\n') {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServerSocket, WorkersOutliveTheirConnectionsUntilTheNextAccept) {
  PlanService service(ServiceOptions{});
  SocketServer socket(service, SocketServerOptions{0});
  std::thread serverThread([&socket] { socket.run(); });
  const std::size_t before = threadCount();

  // Three connections open at once get a worker each.
  std::vector<int> open;
  for (int i = 0; i < 3; ++i) open.push_back(pingedConnection(socket.port()));
  for (const int fd : open) EXPECT_GE(fd, 0);
  EXPECT_EQ(threadCount(), before + 3);

  // Closing them leaves every worker alive (a thread's CPU time stays with
  // it) while no connection arrives.
  for (const int fd : open) ::close(fd);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(threadCount(), before + 3);

  // Connections made one after another reuse idle workers, and each
  // accept retires the idle ones the queue does not need; a worker still
  // finishing the previous connection may make one more for a while. Once
  // every worker is idle, one more connection leaves just its own.
  for (int i = 0; i < 50; ++i) {
    const int fd = pingedConnection(socket.port());
    EXPECT_GE(fd, 0);
    ::close(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int last = pingedConnection(socket.port());
  EXPECT_GE(last, 0);
  EXPECT_EQ(threadCountSettledTo(before + 1), before + 1);
  ::close(last);

  socket.stop();
  serverThread.join();
  EXPECT_EQ(threadCountSettledTo(before - 1), before - 1);
}

TEST(ServerSocket, MalformedLinesKeepTheConnectionAlive) {
  PlanService service(ServiceOptions{});
  SocketServer socket(service, SocketServerOptions{0});
  std::thread serverThread([&socket] { socket.run(); });

  std::istringstream in("garbage\n{\"op\":\"ping\"}\n{\"op\":\"shutdown\"}\n");
  std::ostringstream out;
  EXPECT_TRUE(driveLines(socket.port(), in, out));
  socket.stop();
  serverThread.join();

  const std::string text = out.str();
  EXPECT_NE(text.find("\"kind\":\"parse\""), std::string::npos);
  EXPECT_NE(text.find("{\"ok\":true,\"op\":\"ping\"}"), std::string::npos);
}

TEST(ServerSocket, OversizedLineIsRejected) {
  PlanService service(ServiceOptions{});
  SocketServer socket(service, SocketServerOptions{0});
  std::thread serverThread([&socket] { socket.run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A server that keeps the connection open fails the test after this wait
  // instead of hanging it.
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(socket.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // One byte past the limit, then a ping that only an open connection
  // would answer. The server may hang up mid-send, so send errors are
  // expected and end the sending.
  const std::string bytes =
      std::string(kMaxRequestLineBytes + 1, 'x') + "\n{\"op\":\"ping\"}\n";
  for (std::size_t sent = 0; sent < bytes.size();) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string received;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    received.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  socket.stop();
  serverThread.join();

  EXPECT_NE(received.find("\"kind\":\"request\""), std::string::npos)
      << received;
  EXPECT_EQ(received.find("\"kind\":\"parse\""), std::string::npos);
  EXPECT_EQ(std::count(received.begin(), received.end(), '\n'), 1)
      << "the connection must close after the rejection: " << received;
}

}  // namespace
}  // namespace dmf::server
