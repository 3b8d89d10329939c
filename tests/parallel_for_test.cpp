// The runtime's one parallel loop: index coverage, the serial inline path,
// nesting, lowest-index exception, and jobs resolution.
#include "runtime/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dmf::runtime {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> touched(10000);
  parallelFor(4, touched.size(), [&](std::uint64_t i) {
    touched[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SerialRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::uint64_t> order;
  parallelFor(1, 100, [&](std::uint64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 100u);
  for (std::uint64_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, NestedCallsComplete) {
  // Every participant of the outer loop starts its own inner loop; each call
  // owns its threads, so nesting neither deadlocks nor loses an index.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> total{0};
    parallelFor(2, 8, [&](std::uint64_t) {
      parallelFor(2, 8, [&](std::uint64_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
    ASSERT_EQ(total.load(), 64) << "round " << round;
  }
}

TEST(ParallelFor, LowestIndexExceptionWinsOnThreadedPath) {
  std::atomic<std::uint64_t> ran{0};
  try {
    parallelFor(4, 2000, [&](std::uint64_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i >= 700) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected the loop to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "700");
  }
  EXPECT_EQ(ran.load(), 2000u);
}

TEST(ParallelFor, InlinePathPropagatesExceptions) {
  EXPECT_THROW(parallelFor(1, 10,
                           [](std::uint64_t i) {
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelFor, ZeroJobsResolvesToHardwareConcurrency) {
  EXPECT_GE(resolveJobs(0), 1u);
  EXPECT_EQ(resolveJobs(5), 5u);
  std::atomic<int> total{0};
  parallelFor(0, 100, [&](std::uint64_t) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 100);
}

}  // namespace
}  // namespace dmf::runtime
