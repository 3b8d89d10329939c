// Micro-benchmarks (google-benchmark): construction and scheduling
// throughput of the library's hot paths. After the google-benchmark run,
// main() takes wall-clock measurements of the GA, the demand ladder, a small
// plan after a large one, the journal and the timed router and emits them
// through the BENCH_<name>.json harness (bench_obs.h), so timings are
// diffable across commits.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/error_model.h"
#include "chip/executor.h"
#include "chip/pcr_layout.h"
#include "chip/router.h"
#include "chip/simulation.h"
#include "chip/timed_router.h"
#include "engine/mdst.h"
#include "engine/pass_cache.h"
#include "engine/streaming.h"
#include "forest/task_forest.h"
#include "journal/journal.h"
#include "mixgraph/builders.h"
#include "obs/log.h"
#include "obs/scope.h"
#include "protocols/protocols.h"
#include "server/service.h"
#include "sched/ga_scheduler.h"
#include "sched/heterogeneous.h"
#include "sched/schedulers.h"
#include "workload/ratio_corpus.h"

#include "bench_obs.h"

namespace {

using namespace dmf;

const Ratio& pcrRatio() {
  static const Ratio ratio = protocols::pcrMasterMixRatio();
  return ratio;
}

const Ratio& bigRatio() {
  static const Ratio ratio = protocols::publishedProtocols()[2].ratio;
  return ratio;
}

void BM_BuildMM(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(mixgraph::buildMM(bigRatio()));
  }
}
BENCHMARK(BM_BuildMM);

void BM_BuildRMA(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(mixgraph::buildRMA(bigRatio()));
  }
}
BENCHMARK(BM_BuildRMA);

void BM_BuildMTCS(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(mixgraph::buildMTCS(bigRatio()));
  }
}
BENCHMARK(BM_BuildMTCS);

void BM_ForestConstruction(benchmark::State& state) {
  const mixgraph::MixingGraph graph = mixgraph::buildMM(bigRatio());
  const auto demand = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest::TaskForest(graph, demand));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ForestConstruction)->Range(2, 512)->Complexity();

void BM_ScheduleMMS(benchmark::State& state) {
  const mixgraph::MixingGraph graph = mixgraph::buildMM(bigRatio());
  const forest::TaskForest f(graph, static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::scheduleMMS(f, 4));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ScheduleMMS)->Range(2, 512)->Complexity();

void BM_ScheduleSRS(benchmark::State& state) {
  const mixgraph::MixingGraph graph = mixgraph::buildMM(bigRatio());
  const forest::TaskForest f(graph, static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::scheduleSRS(f, 4));
  }
}
BENCHMARK(BM_ScheduleSRS)->Range(2, 128);

// One fresh PassCache::fits on PCR at storage cap 3 that answers "no": the
// SRS prelude, then the clipped scan's capped runs, which fail within a few
// cycles however many dispense mixes the forest's first cycle holds.
void BM_CappedFitsReject(benchmark::State& state) {
  const engine::MdstEngine engine(pcrRatio());
  const auto demand = static_cast<std::uint64_t>(state.range(0));
  (void)engine.baseGraph(mixgraph::Algorithm::MM);  // lazy build up front
  sched::PlanScratch scratch;
  for (auto _ : state) {
    engine::PassCache cache;
    const bool fits = cache.fits(engine, mixgraph::Algorithm::MM,
                                 engine::Scheme::kSRS, 3, demand, 3, scratch);
    if (fits) state.SkipWithError("expected the pass to exceed cap 3");
    benchmark::DoNotOptimize(fits);
  }
}
BENCHMARK(BM_CappedFitsReject)->Arg(64)->Arg(256)->Arg(1024);

void BM_ScheduleOMS(benchmark::State& state) {
  const mixgraph::MixingGraph graph = mixgraph::buildMM(bigRatio());
  const forest::TaskForest f(graph, static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::scheduleOMS(f, 4));
  }
}
BENCHMARK(BM_ScheduleOMS)->Range(2, 512);

void BM_StorageCount(benchmark::State& state) {
  const mixgraph::MixingGraph graph = mixgraph::buildMM(bigRatio());
  const forest::TaskForest f(graph, 64);
  const sched::Schedule s = sched::scheduleMMS(f, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::countStorage(f, s));
  }
}
BENCHMARK(BM_StorageCount);

void BM_EndToEndEngine(benchmark::State& state) {
  for (auto _ : state) {
    engine::MdstEngine engine(pcrRatio());
    engine::MdstRequest request;
    request.scheme = engine::Scheme::kMMS;
    request.demand = 32;
    benchmark::DoNotOptimize(engine.run(request));
  }
}
BENCHMARK(BM_EndToEndEngine);

// One memoizable pass evaluation (forest -> schedule -> storage count), the
// unit of work every streaming-planner sweep repeats per candidate demand.
void BM_EvaluatePass(benchmark::State& state) {
  const engine::MdstEngine engine(pcrRatio());
  const auto demand = static_cast<std::uint64_t>(state.range(0));
  (void)engine.baseGraph(mixgraph::Algorithm::MM);  // lazy build up front
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::evaluatePass(
        engine, mixgraph::Algorithm::MM, engine::Scheme::kSRS, 3, demand));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvaluatePass)->Range(8, 128)->Complexity();

// A full cold demand ladder [1, N] through the pass cache — the optimized
// streaming planner's dominant cost. The cache is fresh every iteration, so
// every rung computes.
void BM_DemandLadder(benchmark::State& state) {
  const engine::MdstEngine engine(pcrRatio());
  const auto top = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    engine::PassCache cache;
    for (std::uint64_t d = 1; d <= top; ++d) {
      benchmark::DoNotOptimize(cache.evaluate(
          engine, mixgraph::Algorithm::MM, engine::Scheme::kSRS, 3, d));
    }
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DemandLadder)->Range(32, 128)->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_RouterCostMatrix(benchmark::State& state) {
  const chip::Layout layout = chip::makePcrLayout();
  for (auto _ : state) {
    chip::Router router(layout);
    benchmark::DoNotOptimize(router.costMatrix());
  }
}
BENCHMARK(BM_RouterCostMatrix);

void BM_ChipExecution(benchmark::State& state) {
  const chip::Layout layout = chip::makePcrLayout();
  chip::Router router(layout);
  chip::ChipExecutor executor(layout, router);
  const mixgraph::MixingGraph graph = mixgraph::buildMM(pcrRatio());
  const forest::TaskForest f(graph, 20);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.run(f, s));
  }
}
BENCHMARK(BM_ChipExecution);

void BM_ScheduleGA(benchmark::State& state) {
  const mixgraph::MixingGraph graph = mixgraph::buildMM(pcrRatio());
  const forest::TaskForest f(graph, 32);
  sched::GaOptions options;
  options.population = 16;
  options.generations = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::scheduleGA(f, 3, options));
  }
}
BENCHMARK(BM_ScheduleGA);

// One concurrent transport phase on an open 20x20 array: six droplets
// crossing through the centre, so the occupancy index does real work.
// range(0) toggles the O(n^2 * makespan) post-routing verification sweep.
void BM_RoutePhase(benchmark::State& state) {
  const chip::Layout layout(20, 20);
  chip::TimedRouterOptions options;
  options.verifyInterference = state.range(0) != 0;
  const chip::TimedRouter router(layout, options);
  // Three droplets travel top-to-bottom, three left-to-right; every
  // vertical lane crosses every horizontal one, so droplets time-slip
  // around each other at nine intersections.
  std::vector<chip::PhaseMove> moves;
  for (int d = 0; d < 3; ++d) {
    moves.push_back({{5 * d + 2, 0}, {5 * d + 2, 19},
                     static_cast<std::uint32_t>(d)});
    moves.push_back({{0, 5 * d + 2}, {19, 5 * d + 2},
                     static_cast<std::uint32_t>(d + 3)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.routePhase(moves));
  }
}
BENCHMARK(BM_RoutePhase)->Arg(0)->Arg(1);

void BM_ScheduleHeterogeneous(benchmark::State& state) {
  const mixgraph::MixingGraph graph = mixgraph::buildMM(pcrRatio());
  const forest::TaskForest f(graph, 32);
  const sched::MixerBank bank{{1, 2, 4}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::scheduleHeterogeneous(f, bank));
  }
}
BENCHMARK(BM_ScheduleHeterogeneous);

void BM_MultiTargetGraph(benchmark::State& state) {
  const std::vector<Ratio> targets = {Ratio({2, 1, 1, 1, 1, 1, 9}),
                                      Ratio({2, 1, 1, 1, 1, 9, 1}),
                                      Ratio({4, 4, 2, 2, 1, 1, 2})};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mixgraph::buildMultiTarget(targets));
  }
}
BENCHMARK(BM_MultiTargetGraph);

void BM_ErrorAnalysis(benchmark::State& state) {
  const mixgraph::MixingGraph graph = mixgraph::buildMM(bigRatio());
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyzeErrors(graph, {0.05, 0.0}));
  }
}
BENCHMARK(BM_ErrorAnalysis);

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::partitionCorpus(32, 2, 12));
  }
}
BENCHMARK(BM_CorpusGeneration);

// --- crash-recovery journal ------------------------------------------------
// One journal append = frame (length + CRC32) + write + fsync; the fsync
// dominates, so this measures the real durability tax a journaled stream
// run pays per pass (DESIGN.md §16).

void BM_JournalAppend(benchmark::State& state) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("dmf_bench_journal_" + std::to_string(::getpid())))
          .string();
  fs::create_directories(dir);
  const std::string payload(256, 'p');  // a typical pass-record size
  {
    journal::RecordLog log(dir + "/log");
    for (auto _ : state) {
      log.append(payload);
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_JournalAppend);

// --- observability overhead -----------------------------------------------
// The disabled path must be near-free: each helper is one relaxed atomic
// load plus a branch, so these two benchmarks should report low-nanosecond
// times. BM_ObsDisabledScheduling vs BM_ScheduleMMS quantifies the
// whole-pipeline cost of the instrumentation hooks when no session exists.

void BM_ObsDisabledCount(benchmark::State& state) {
  for (auto _ : state) {
    obs::count("bench.disabled.counter");
    benchmark::DoNotOptimize(obs::enabled());
  }
}
BENCHMARK(BM_ObsDisabledCount);

void BM_ObsDisabledSpan(benchmark::State& state) {
  for (auto _ : state) {
    const obs::Span span("bench.disabled.span", "bench");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsDisabledSpan);

void BM_ObsEnabledCount(benchmark::State& state) {
  obs::Session session;
  const obs::Scope scope(session);
  for (auto _ : state) {
    obs::count("bench.enabled.counter");
  }
}
BENCHMARK(BM_ObsEnabledCount);

void BM_ObsEnabledSpan(benchmark::State& state) {
  obs::Session session;
  const obs::Scope scope(session);
  for (auto _ : state) {
    const obs::Span span("bench.enabled.span", "bench");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsEnabledSpan);

void BM_ObsDisabledScheduling(benchmark::State& state) {
  const mixgraph::MixingGraph graph = mixgraph::buildMM(bigRatio());
  const forest::TaskForest f(graph, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::scheduleMMS(f, 4));
    benchmark::DoNotOptimize(sched::countStorage(f, sched::scheduleMMS(f, 4)));
  }
}
BENCHMARK(BM_ObsDisabledScheduling);

void BM_ObsEnabledScheduling(benchmark::State& state) {
  const mixgraph::MixingGraph graph = mixgraph::buildMM(bigRatio());
  const forest::TaskForest f(graph, 64);
  obs::Session session;
  const obs::Scope scope(session);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::scheduleMMS(f, 4));
    benchmark::DoNotOptimize(sched::countStorage(f, sched::scheduleMMS(f, 4)));
  }
}
BENCHMARK(BM_ObsEnabledScheduling);

std::uint64_t nanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// --- obs overhead budget (DESIGN.md §14) ----------------------------------
// With no session and no logger installed, the instrumentation a cache hit
// passes through (request + probe spans, counters, the request-latency
// histogram check, a debug log line) must cost < 2% of the hit p50. This
// runs BEFORE BenchSession installs its scope — it measures the true
// disabled path — and the bound is asserted: a regression fails bench_micro
// with a nonzero exit, not just a slower number in a JSON nobody reads.

struct ObsOverheadResult {
  double hookBundleNanos = 0.0;  ///< disabled-path cost of one hit's hooks
  std::uint64_t hitP50Nanos = 0;
  double overheadPct = 0.0;
};

ObsOverheadResult measureObsOverhead() {
  using clock = std::chrono::steady_clock;
  ObsOverheadResult result;

  // One iteration is a superset of the hooks on the real hit path: two
  // spans, three counters, the metrics/log-level checks, one log line.
  constexpr std::uint64_t kIters = 1'000'000;
  const auto hookStart = clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    const obs::Span request("bench.request", "server");
    const obs::Span probe("bench.probe", "server");
    obs::count("bench.requests");
    obs::count("bench.cache.mem_hit");
    obs::count("bench.extra");
    benchmark::DoNotOptimize(obs::metrics());
    benchmark::DoNotOptimize(obs::logEnabled(obs::LogLevel::kDebug));
    obs::LogLine(obs::LogLevel::kDebug, "bench.request");
  }
  result.hookBundleNanos =
      static_cast<double>(nanosSince(hookStart)) / kIters;

  // Hit p50 of a real in-process PlanService, observability fully off.
  server::PlanService service{server::ServiceOptions{}};
  const std::string line =
      "{\"op\":\"plan\",\"ratio\":\"2:1:1:1:1:1:9\",\"demand\":20,"
      "\"storage\":3}";
  (void)service.handle(line);  // fill the cache
  std::vector<std::uint64_t> samples;
  samples.reserve(3000);
  for (int i = 0; i < 3000; ++i) {
    const auto start = clock::now();
    (void)service.handle(line);
    samples.push_back(nanosSince(start));
  }
  std::sort(samples.begin(), samples.end());
  result.hitP50Nanos = samples[samples.size() / 2];
  result.overheadPct = result.hitP50Nanos == 0
                           ? 0.0
                           : result.hookBundleNanos /
                                 static_cast<double>(result.hitP50Nanos) *
                                 100.0;
  return result;
}

// --- measured speedups, emitted as BENCH_bench_micro.json ----------------
// Wall-clock gauges for the library's hot paths; the GA runs over the
// Table-2/3 workloads (the five published protocol forests). Scaled gauges
// carry an _x1000 suffix (gauges are integers).

void recordMeasuredSpeedups() {
  using clock = std::chrono::steady_clock;
  obs::MetricsRegistry* metrics = obs::metrics();
  if (metrics == nullptr) return;

  // GA scheduling across the Table-2/3 forests (five published ratios,
  // D = 32 and 64).
  {
    std::vector<forest::TaskForest> forests;
    for (const auto& protocol : protocols::publishedProtocols()) {
      const mixgraph::MixingGraph graph = mixgraph::buildMM(protocol.ratio);
      forests.emplace_back(graph, 32);
      forests.emplace_back(graph, 64);
    }
    const sched::GaOptions options;  // default pop 32 / gens 60
    const auto start = clock::now();
    for (const forest::TaskForest& f : forests) {
      benchmark::DoNotOptimize(sched::scheduleGA(f, 4, options));
    }
    metrics->gauge("bench.ga.table23_jobs1_nanos").set(nanosSince(start));
  }

  // Demand-ladder sweep (the optimized streaming planner's hot loop): the
  // full candidate range [1, 128] on the PCR ratio through the pass cache,
  // plus the end-to-end optimized plan.
  {
    const engine::MdstEngine engine(pcrRatio());
    {
      engine::PassCache cache;
      const auto start = clock::now();
      for (std::uint64_t d = 1; d <= 128; ++d) {
        benchmark::DoNotOptimize(cache.evaluate(
            engine, mixgraph::Algorithm::MM, engine::Scheme::kSRS, 3, d));
      }
      metrics->gauge("bench.ladder.demand128_scalar_nanos")
          .set(nanosSince(start));
    }
    {
      engine::StreamingRequest request;
      request.scheme = engine::Scheme::kSRS;
      request.demand = 128;
      request.storageCap = 4;
      request.jobs = 1;
      const auto start = clock::now();
      benchmark::DoNotOptimize(engine::planStreamingOptimized(engine,
                                                              request));
      metrics->gauge("bench.ladder.plan128_nanos").set(nanosSince(start));
    }
  }

  // A small plan right after a large one on the same thread, against the
  // small plan alone: 1000 x the ratio of their medians. Each plan owns its
  // scheduling scratch, so the large plan leaves nothing behind that the
  // small one pays for and the gauge reads ~1000 on any machine. Scratch
  // kept per thread read ~6000: every scheduling run of the small plan
  // cleared the arrival slots of the large plan's longest pass. A fresh
  // thread keeps the google-benchmark runs above out of "alone".
  {
    const engine::MdstEngine engine(pcrRatio());
    engine::StreamingRequest small;
    small.demand = 128;
    small.storageCap = 3;
    engine::StreamingRequest large = small;
    large.demand = 20000;
    constexpr std::size_t kSamples = 9;
    const auto timeSmall = [&] {
      const auto start = clock::now();
      benchmark::DoNotOptimize(engine::planStreamingOptimized(engine, small));
      return nanosSince(start);
    };
    std::vector<std::uint64_t> alone;
    std::vector<std::uint64_t> after;
    std::thread([&] {
      (void)timeSmall();  // the thread's first allocations are slower
      for (std::size_t i = 0; i < kSamples; ++i) alone.push_back(timeSmall());
      for (std::size_t i = 0; i < kSamples; ++i) {
        benchmark::DoNotOptimize(engine::planStreaming(engine, large));
        after.push_back(timeSmall());
      }
    }).join();
    std::sort(alone.begin(), alone.end());
    std::sort(after.begin(), after.end());
    metrics->gauge("bench.plan.small_after_large_x1000")
        .set(1000 * after[kSamples / 2] /
             std::max<std::uint64_t>(alone[kSamples / 2], 1));
  }

  // Durable journal append (frame + write + fsync), per record — the
  // per-pass overhead `stream --journal` adds to a run.
  {
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() /
         ("dmf_bench_journal_gauge_" + std::to_string(::getpid())))
            .string();
    fs::create_directories(dir);
    const std::string payload(256, 'p');
    constexpr std::uint64_t kAppends = 64;
    {
      journal::RecordLog log(dir + "/log");
      log.append(payload);  // warm up: first append pays file creation
      const auto start = clock::now();
      for (std::uint64_t i = 0; i < kAppends; ++i) log.append(payload);
      metrics->gauge("bench.journal.append_nanos")
          .set(nanosSince(start) / kAppends);
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  // Per-phase router time, with and without the post-routing verification
  // sweep, on the PCR case study trace.
  const chip::Layout layout = chip::makePcrLayout();
  chip::Router router(layout);
  chip::ChipExecutor executor(layout, router);
  const mixgraph::MixingGraph graph =
      mixgraph::buildMM(protocols::pcrMasterMixRatio());
  const forest::TaskForest f(graph, 20);
  const sched::Schedule s = sched::scheduleSRS(f, 3);
  const chip::ExecutionTrace trace = executor.run(f, s);
  for (const bool verify : {true, false}) {
    chip::TimedRouterOptions routerOptions;
    routerOptions.verifyInterference = verify;
    std::uint64_t phases = 0;
    const auto start = clock::now();
    for (int rep = 0; rep < 20; ++rep) {
      const chip::SimulationResult sim =
          chip::simulateTrace(layout, trace, routerOptions);
      phases += sim.phases.size();
    }
    const std::uint64_t nanos = nanosSince(start);
    metrics->gauge(verify ? "bench.router.phase_nanos_verified"
                          : "bench.router.phase_nanos")
        .set(nanos / phases);
  }
}

}  // namespace

// Custom main (instead of benchmark_main): the obs scope must NOT be active
// while the BM_Obs* benchmarks run — they measure the disabled path — so the
// BenchSession is installed only for the measured-speedup section afterwards.
int main(int argc, char** argv) {
  // No ReportUnrecognizedArguments: --metrics FILE belongs to BenchSession.
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Disabled-path overhead: measured while no session/logger exists, then
  // asserted. The gauges land in the JSON afterwards (x1000: integers).
  const ObsOverheadResult overhead = measureObsOverhead();
  std::cout << "obs overhead: hook bundle " << overhead.hookBundleNanos
            << " ns, hit p50 " << overhead.hitP50Nanos << " ns -> "
            << overhead.overheadPct << "% (budget 2%)\n";
  int rc = 0;
  if (overhead.overheadPct >= 2.0) {
    std::cerr << "FAIL: disabled-path obs overhead " << overhead.overheadPct
              << "% exceeds the 2% budget\n";
    rc = 1;
  }
  {
    const dmf::bench::BenchSession benchObs("bench_micro", argc, argv);
    recordMeasuredSpeedups();
    if (dmf::obs::MetricsRegistry* m = dmf::obs::metrics()) {
      m->gauge("bench.obs.hook_bundle_nanos_x1000")
          .set(static_cast<std::uint64_t>(overhead.hookBundleNanos * 1000.0));
      m->gauge("bench.obs.hit_p50_nanos").set(overhead.hitP50Nanos);
      m->gauge("bench.obs.hit_overhead_pct_x1000")
          .set(static_cast<std::uint64_t>(overhead.overheadPct * 1000.0));
    }
  }
  return rc;
}
