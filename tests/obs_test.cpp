// Observability subsystem: registry snapshot determinism, histogram bucket
// edges, thread safety, trace-event JSON well-formedness (parsed back with
// the repo's own JSON reader), and the regression guarantee that installing
// an obs session never changes planner output.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/mdst.h"
#include "engine/serialize.h"
#include "engine/streaming.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/scope.h"
#include "obs/trace.h"
#include "report/json.h"

namespace dmf::obs {
namespace {

TEST(ObsMetricsTest, CounterAccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add(3);
  c.add(1);
  EXPECT_EQ(c.value(), 4u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetricsTest, GaugeTracksLastAndMax) {
  Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7u);
  g.accumulateMax(3);
  EXPECT_EQ(g.value(), 7u);
  g.accumulateMax(11);
  EXPECT_EQ(g.value(), 11u);
}

TEST(ObsMetricsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  Histogram h({10, 20});
  // Bucket i counts values <= bounds[i]; the last bucket is overflow.
  h.observe(0);    // bucket 0
  h.observe(10);   // bucket 0 (exact boundary)
  h.observe(11);   // bucket 1
  h.observe(20);   // bucket 1 (exact boundary)
  h.observe(21);   // overflow
  h.observe(1000); // overflow
  ASSERT_EQ(h.bounds().size(), 2u);
  EXPECT_EQ(h.bucketCount(0), 2u);
  EXPECT_EQ(h.bucketCount(1), 2u);
  EXPECT_EQ(h.bucketCount(2), 2u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 20 + 21 + 1000);
}

TEST(ObsMetricsTest, HistogramRejectsMalformedBounds) {
  using Bounds = std::vector<std::uint64_t>;
  EXPECT_THROW(Histogram(Bounds{}), std::invalid_argument);
  EXPECT_THROW(Histogram(Bounds{5, 5}), std::invalid_argument);
  EXPECT_THROW(Histogram(Bounds{5, 3}), std::invalid_argument);
}

TEST(ObsMetricsTest, SnapshotIsDeterministicUnderInsertionOrder) {
  MetricsRegistry a;
  a.counter("zeta").add(1);
  a.counter("alpha").add(2);
  a.gauge("mid").set(3);
  a.histogram("h", {1, 2}).observe(1);

  MetricsRegistry b;
  b.histogram("h", {1, 2}).observe(1);
  b.gauge("mid").set(3);
  b.counter("alpha").add(2);
  b.counter("zeta").add(1);

  EXPECT_EQ(a.snapshot().dump(2), b.snapshot().dump(2));
}

TEST(ObsMetricsTest, SnapshotParsesBackWithRepoJsonReader) {
  MetricsRegistry registry;
  registry.counter("hits").add(42);
  registry.gauge("peak").accumulateMax(7);
  registry.histogram("lat", {10, 100}).observe(55);

  const report::Json parsed = report::Json::parse(registry.snapshot().dump(2));
  EXPECT_EQ(parsed.at("counters").at("hits").asUint(), 42u);
  EXPECT_EQ(parsed.at("gauges").at("peak").asUint(), 7u);
  const report::Json& lat = parsed.at("histograms").at("lat");
  EXPECT_EQ(lat.at("count").asUint(), 1u);
  EXPECT_EQ(lat.at("sum").asUint(), 55u);
  ASSERT_EQ(lat.at("bounds").size(), 2u);
  ASSERT_EQ(lat.at("counts").size(), 3u);
  EXPECT_EQ(lat.at("counts").at(1).asUint(), 1u);
}

TEST(ObsMetricsTest, ConcurrentCounterIncrementsAreLossless) {
  MetricsRegistry registry;
  constexpr unsigned kThreads = 4;
  constexpr unsigned kIncrements = 25000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (unsigned i = 0; i < kIncrements; ++i) {
        registry.counter("shared").add(1);
        registry.gauge("watermark").accumulateMax(i);
        registry.histogram("spread", {1000, 10000}).observe(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("shared").value(),
            std::uint64_t{kThreads} * kIncrements);
  EXPECT_EQ(registry.gauge("watermark").value(), kIncrements - 1);
  EXPECT_EQ(registry.histogram("spread", {1000, 10000}).count(),
            std::uint64_t{kThreads} * kIncrements);
}

// Quantile pins: the exact nearest-rank + linear-interpolation arithmetic
// the Prometheus exporter's derived p50/p95/p99 gauges depend on.
TEST(ObsMetricsTest, QuantileInterpolatesWithinOneBucket) {
  // Four observations, all inside the first bucket (0, 10].
  const std::vector<std::uint64_t> bounds{10, 20};
  const std::vector<std::uint64_t> counts{4, 0, 0};
  // p50 targets rank 2 of 4; 2/4 of the way through (0, 10].
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, 0.99), 9.9);
  // q=0 clamps the rank to 1 (the minimum observation's bucket share).
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, 0.0), 2.5);
}

TEST(ObsMetricsTest, QuantileCrossesBuckets) {
  const std::vector<std::uint64_t> bounds{100, 200, 300};
  const std::vector<std::uint64_t> counts{1, 1, 1, 0};
  // Rank 1.5 of 3 lands halfway through the second bucket (100, 200].
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, 0.5), 150.0);
  // Rank 2.97 lands 97% through the third bucket (200, 300].
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, 0.99), 297.0);
}

TEST(ObsMetricsTest, QuantileClampsOverflowToLastBound) {
  const std::vector<std::uint64_t> bounds{10};
  const std::vector<std::uint64_t> counts{0, 5};
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, 0.99), 10.0);
}

TEST(ObsMetricsTest, QuantileEdgeCases) {
  const std::vector<std::uint64_t> bounds{10};
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, {0, 0}, 0.5), 0.0);  // empty
  EXPECT_THROW((void)histogramQuantile(bounds, {1, 2, 3}, 0.5),
               std::invalid_argument);  // counts/bounds size mismatch
  Histogram h({10, 20});
  for (const std::uint64_t v : {1u, 2u, 3u, 4u}) h.observe(v);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);  // member delegates to the free fn
}

// Regression: the free function also serves snapshot JSON, which can carry
// histogram shapes the Histogram constructor forbids. An empty bounds list
// (every sample in the sole overflow bucket) used to read bounds.back() of
// an empty vector — undefined behaviour — for any non-zero count.
TEST(ObsMetricsTest, QuantileSurvivesEmptyBounds) {
  const std::vector<std::uint64_t> none;
  EXPECT_DOUBLE_EQ(histogramQuantile(none, {0}, 0.5), 0.0);  // and empty
  EXPECT_DOUBLE_EQ(histogramQuantile(none, {7}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogramQuantile(none, {7}, 1.0), 0.0);
}

TEST(ObsMetricsTest, QuantileSingleSampleStaysWithinItsBucket) {
  const std::vector<std::uint64_t> bounds{10, 20};
  // One observation in (0, 10]: every quantile is that observation's
  // bucket, interpolated to its upper edge at most — never past it, and
  // never a division by the empty buckets around it.
  const std::vector<std::uint64_t> counts{1, 0, 0};
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, 1.0), 10.0);
  // One observation in the overflow bucket clamps to the last bound.
  const std::vector<std::uint64_t> overflow{0, 0, 1};
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, overflow, 0.5), 20.0);
}

TEST(ObsMetricsTest, QuantileClampsOutOfRangeQ) {
  const std::vector<std::uint64_t> bounds{100};
  const std::vector<std::uint64_t> counts{4, 0};
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, -0.5),
                   histogramQuantile(bounds, counts, 0.0));
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, 2.0),
                   histogramQuantile(bounds, counts, 1.0));
  // q = 1 interpolates to exactly the populated bucket's upper edge.
  EXPECT_DOUBLE_EQ(histogramQuantile(bounds, counts, 1.0), 100.0);
}

// Golden rendering: exposition-format text is an external contract (scrape
// configs and dashboards parse it), so pin the exact bytes.
TEST(ObsPrometheusTest, RendersSnapshotAsExpositionText) {
  MetricsRegistry registry;
  registry.counter("cache.hit").add(4);
  registry.gauge("queue.depth").set(7);
  Histogram& lat = registry.histogram("lat", {10, 20});
  lat.observe(5);
  lat.observe(15);
  lat.observe(25);

  EXPECT_EQ(prometheusText(registry),
            "# TYPE dmf_cache_hit_total counter\n"
            "dmf_cache_hit_total 4\n"
            "# TYPE dmf_queue_depth gauge\n"
            "dmf_queue_depth 7\n"
            "# TYPE dmf_lat histogram\n"
            "dmf_lat_bucket{le=\"10\"} 1\n"
            "dmf_lat_bucket{le=\"20\"} 2\n"
            "dmf_lat_bucket{le=\"+Inf\"} 3\n"
            "dmf_lat_sum 45\n"
            "dmf_lat_count 3\n"
            "# TYPE dmf_lat_p50 gauge\n"
            "dmf_lat_p50 15\n"
            "# TYPE dmf_lat_p95 gauge\n"
            "dmf_lat_p95 20\n"
            "# TYPE dmf_lat_p99 gauge\n"
            "dmf_lat_p99 20\n");
}

TEST(ObsPrometheusTest, RejectsNonSnapshotJson) {
  EXPECT_THROW(prometheusText(report::Json::parse("{\"x\": 1}")),
               std::invalid_argument);
  EXPECT_THROW(prometheusText(report::Json::parse("[1, 2]")),
               std::invalid_argument);
}

TEST(ObsTraceTest, TraceJsonIsWellFormedAndPerfettoShaped) {
  TraceRecorder recorder;
  const std::uint64_t start = recorder.nowNanos();
  recorder.completeEvent("outer", "test", start, 5000,
                         {{"detail", "a \"quoted\" value\n"}});
  recorder.instantEvent("marker", "test");
  recorder.modelEvent("pass 1", "plan", 0, 7, 1, {{"demand", "8"}});
  std::thread worker(
      [&recorder] { recorder.completeEvent("child", "test", 0, 100); });
  worker.join();
  EXPECT_EQ(recorder.eventCount(), 4u);

  const report::Json parsed = report::Json::parse(recorder.toJson().dump(2));
  ASSERT_TRUE(parsed.contains("traceEvents"));
  EXPECT_EQ(parsed.at("displayTimeUnit").asString(), "ms");
  const report::Json& events = parsed.at("traceEvents");
  std::size_t complete = 0;
  std::size_t instant = 0;
  std::size_t metadata = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const report::Json& e = events.at(i);
    const std::string phase = e.at("ph").asString();
    ASSERT_TRUE(e.contains("name"));
    ASSERT_TRUE(e.contains("pid"));
    if (phase == "X") {
      ++complete;
      EXPECT_TRUE(e.contains("dur"));
    } else if (phase == "i") {
      ++instant;
    } else if (phase == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(complete, 3u);
  EXPECT_EQ(instant, 1u);
  // Two process_name entries (wall clock + model time) and at least two
  // thread_name entries (main + worker).
  EXPECT_GE(metadata, 4u);
}

TEST(ObsScopeTest, HelpersAreInertWithoutASession) {
  EXPECT_FALSE(enabled());
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_EQ(tracer(), nullptr);
  count("ignored");
  gaugeMax("ignored", 1);
  gaugeSet("ignored", 1);
  { const Span span("ignored"); }
  EXPECT_FALSE(enabled());
}

TEST(ObsScopeTest, ScopeInstallsAndNestingThrows) {
  Session session;
  {
    const Scope scope(session);
    EXPECT_TRUE(enabled());
    count("seen", 2);
    EXPECT_THROW(Scope{session}, std::logic_error);
  }
  EXPECT_FALSE(enabled());
  EXPECT_EQ(session.metrics.counter("seen").value(), 2u);
}

TEST(ObsScopeTest, SpansLandInTheInstalledRecorder) {
  Session session;
  {
    const Scope scope(session);
    const Span span("scoped.work", "test");
  }
  EXPECT_EQ(session.trace.eventCount(), 1u);
}

// The regression the whole design hangs on: an installed session must never
// change planner output, for any job count (the CLI's `--jobs N --json`
// byte-identical guarantee with and without --trace/--metrics).
TEST(ObsScopeTest, StreamingPlanJsonIsIdenticalWithAndWithoutSession) {
  const engine::MdstEngine engine(Ratio({7, 3, 3, 3}));
  engine::StreamingRequest request;
  request.demand = 100;
  request.storageCap = 4;

  std::vector<std::string> dumps;
  for (const unsigned jobs : {1u, 4u}) {
    request.jobs = jobs;
    dumps.push_back(engine::toJson(planStreaming(engine, request)).dump(2));
    Session session;
    {
      const Scope scope(session);
      dumps.push_back(engine::toJson(planStreaming(engine, request)).dump(2));
    }
    EXPECT_GT(session.trace.eventCount(), 0u);
    EXPECT_GT(session.metrics.size(), 0u);
  }
  for (const std::string& dump : dumps) {
    EXPECT_EQ(dump, dumps.front());
  }
}

}  // namespace
}  // namespace dmf::obs
