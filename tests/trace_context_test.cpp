// Span-context propagation (DESIGN.md §14): parent/child identity on one
// thread, cross-thread adoption via ContextGuard, and the parallelFor
// guarantee that spans opened inside worker tasks splice into the
// dispatching request's trace — no orphans, for any job count.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/scope.h"
#include "obs/trace.h"
#include "report/json.h"
#include "runtime/parallel_for.h"

namespace dmf::obs {
namespace {

/// One span event's identity, parsed back out of the Chrome trace JSON.
struct ParsedSpan {
  std::string name;
  std::uint64_t traceId = 0;
  std::uint64_t spanId = 0;
  std::uint64_t parentSpanId = 0;
};

std::vector<ParsedSpan> parseSpans(const TraceRecorder& recorder) {
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
    span.traceId = args.at("trace_id").asUint();
    span.spanId = args.at("span_id").asUint();
    if (args.contains("parent_span_id")) {
      span.parentSpanId = args.at("parent_span_id").asUint();
    }
    spans.push_back(span);
  }
  return spans;
}

const ParsedSpan& findSpan(const std::vector<ParsedSpan>& spans,
                           const std::string& name) {
  for (const ParsedSpan& span : spans) {
    if (span.name == name) return span;
  }
  throw std::logic_error("span not found: " + name);
}

TEST(TraceContextTest, NestedSpansShareTraceAndLinkParents) {
  Session session;
  {
    const Scope scope(session);
    const Span root("root", "test");
    {
      const Span child("child", "test");
      { const Span grandchild("grandchild", "test"); }
    }
    // Opened after `child` closed: a sibling, not a grandchild.
    { const Span sibling("sibling", "test"); }
  }
  const std::vector<ParsedSpan> spans = parseSpans(session.trace);
  ASSERT_EQ(spans.size(), 4u);
  const ParsedSpan& root = findSpan(spans, "root");
  const ParsedSpan& child = findSpan(spans, "child");
  const ParsedSpan& grandchild = findSpan(spans, "grandchild");
  const ParsedSpan& sibling = findSpan(spans, "sibling");

  EXPECT_EQ(root.parentSpanId, 0u);
  for (const ParsedSpan& span : spans) {
    EXPECT_EQ(span.traceId, root.traceId) << span.name;
  }
  EXPECT_EQ(child.parentSpanId, root.spanId);
  EXPECT_EQ(grandchild.parentSpanId, child.spanId);
  EXPECT_EQ(sibling.parentSpanId, root.spanId);
}

TEST(TraceContextTest, SequentialRootsGetDistinctTraces) {
  Session session;
  {
    const Scope scope(session);
    { const Span first("first", "test"); }
    { const Span second("second", "test"); }
  }
  const std::vector<ParsedSpan> spans = parseSpans(session.trace);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].traceId, spans[1].traceId);
}

TEST(TraceContextTest, ContextGuardAdoptsAcrossThreads) {
  Session session;
  {
    const Scope scope(session);
    const Span root("root", "test");
    const SpanContext handoff = currentContext();
    std::thread worker([&handoff] {
      const ContextGuard adopt(handoff);
      const Span remote("remote", "test");
    });
    worker.join();
    // The guard's restore is thread-local: this thread still sees root.
    EXPECT_EQ(currentContext().spanId, root.context().spanId);
  }
  const std::vector<ParsedSpan> spans = parseSpans(session.trace);
  const ParsedSpan& root = findSpan(spans, "root");
  const ParsedSpan& remote = findSpan(spans, "remote");
  EXPECT_EQ(remote.traceId, root.traceId);
  EXPECT_EQ(remote.parentSpanId, root.spanId);
}

TEST(TraceContextTest, ContextGuardRestoresPreviousContext) {
  Session session;
  const Scope scope(session);
  const Span outer("outer", "test");
  const SpanContext before = currentContext();
  {
    const ContextGuard adopt(SpanContext{99, 98});
    EXPECT_EQ(currentContext().traceId, 99u);
    EXPECT_EQ(currentContext().spanId, 98u);
  }
  EXPECT_EQ(currentContext().spanId, before.spanId);
}

// The load-bearing concurrency property: a 4-job parallelFor running many
// tasks, each opening nested spans, must produce one consistent tree — every
// task span a child of the dispatching request span, every inner span a
// child of its task span, all sharing the request's trace id, no orphans.
TEST(TraceContextTest, PoolWorkersSpliceIntoTheDispatchingTrace) {
  constexpr std::uint64_t kTasks = 32;
  Session session;
  {
    const Scope scope(session);
    const Span request("request", "test");
    runtime::parallelFor(4, kTasks, [](std::uint64_t i, unsigned) {
      Span task("task", "test");
      task.arg("index", std::to_string(i));
      { const Span inner("task.inner", "test"); }
    });
  }

  const std::vector<ParsedSpan> spans = parseSpans(session.trace);
  // One request root, one pool.worker batch span per participant (the
  // 3 workers + the calling thread), two spans per task.
  ASSERT_EQ(spans.size(), 1 + 4 + 2 * kTasks);
  const ParsedSpan& request = findSpan(spans, "request");

  std::map<std::uint64_t, const ParsedSpan*> byId;
  for (const ParsedSpan& span : spans) {
    EXPECT_EQ(span.traceId, request.traceId) << span.name;
    EXPECT_TRUE(byId.emplace(span.spanId, &span).second)
        << "duplicate span id " << span.spanId;
  }

  std::size_t tasks = 0;
  std::size_t inners = 0;
  for (const ParsedSpan& span : spans) {
    if (span.name == "pool.worker") {
      EXPECT_EQ(span.parentSpanId, request.spanId);
    } else if (span.name == "task") {
      ++tasks;
      // Each task runs inside some participant's pool.worker batch span,
      // which in turn hangs off the dispatching request.
      const auto parent = byId.find(span.parentSpanId);
      ASSERT_NE(parent, byId.end()) << "dangling parent id";
      EXPECT_EQ(parent->second->name, "pool.worker");
      EXPECT_EQ(parent->second->parentSpanId, request.spanId);
    } else if (span.name == "task.inner") {
      ++inners;
      ASSERT_NE(span.parentSpanId, 0u) << "orphan inner span";
      const auto parent = byId.find(span.parentSpanId);
      ASSERT_NE(parent, byId.end()) << "dangling parent id";
      EXPECT_EQ(parent->second->name, "task");
    }
  }
  EXPECT_EQ(tasks, kTasks);
  EXPECT_EQ(inners, kTasks);
}

/// Root-to-leaf name path of every span, sorted — a job-count-independent
/// fingerprint of the span tree's shape. "pool.worker" batch spans are
/// thread-placement detail (the inline jobs<=1 path has none), so they are
/// elided from paths, normalizing traces across job counts.
std::multiset<std::string> spanPaths(const TraceRecorder& recorder) {
  const std::vector<ParsedSpan> spans = parseSpans(recorder);
  std::map<std::uint64_t, const ParsedSpan*> byId;
  for (const ParsedSpan& span : spans) byId.emplace(span.spanId, &span);
  std::multiset<std::string> paths;
  for (const ParsedSpan& span : spans) {
    if (span.name == "pool.worker") continue;
    std::string path = span.name;
    std::uint64_t parent = span.parentSpanId;
    while (parent != 0) {
      const auto it = byId.find(parent);
      if (it == byId.end()) {
        path = "<orphan>/" + path;
        break;
      }
      if (it->second->name != "pool.worker") {
        path = it->second->name + "/" + path;
      }
      parent = it->second->parentSpanId;
    }
    paths.insert(path);
  }
  return paths;
}

// The tree's shape must not depend on the job count — only thread placement
// may differ between --jobs 1 and --jobs 4.
TEST(TraceContextTest, SpanTreeShapeIsIdenticalAcrossJobCounts) {
  std::vector<std::multiset<std::string>> shapes;
  for (const unsigned jobs : {1u, 4u}) {
    Session session;
    {
      const Scope scope(session);
      const Span request("request", "test");
      runtime::parallelFor(jobs, 16, [](std::uint64_t, unsigned) {
        const Span task("task", "test");
        const Span inner("task.inner", "test");
      });
    }
    shapes.push_back(spanPaths(session.trace));
  }
  ASSERT_EQ(shapes.size(), 2u);
  EXPECT_EQ(shapes[0], shapes[1]);
  EXPECT_EQ(shapes[0].count("request/task/task.inner"), 16u);
}

}  // namespace
}  // namespace dmf::obs
