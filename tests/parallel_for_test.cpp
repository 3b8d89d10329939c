// The runtime's one parallel loop: index coverage, the serial inline path,
// nesting, lowest-index exception, jobs resolution and participant numbers.
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
  parallelFor(4, touched.size(), [&](std::uint64_t i, unsigned) {
    touched[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, SerialRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::uint64_t> order;
  parallelFor(1, 100, [&](std::uint64_t i, unsigned) {
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
    parallelFor(2, 8, [&](std::uint64_t, unsigned) {
      parallelFor(2, 8, [&](std::uint64_t, unsigned) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
    ASSERT_EQ(total.load(), 64) << "round " << round;
  }
}

TEST(ParallelFor, LowestIndexExceptionWinsOnThreadedPath) {
  std::atomic<std::uint64_t> ran{0};
  try {
    parallelFor(4, 2000, [&](std::uint64_t i, unsigned) {
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
                           [](std::uint64_t i, unsigned) {
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelFor, ZeroJobsResolvesToHardwareConcurrency) {
  EXPECT_GE(resolveJobs(0), 1u);
  EXPECT_EQ(resolveJobs(5), 5u);
  std::atomic<int> total{0};
  parallelFor(0, 100, [&](std::uint64_t, unsigned) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ParallelFor, ParticipantNumbersAreInRangeAndNeverShared) {
  EXPECT_EQ(participantCount(8, 3), 3u);
  EXPECT_EQ(participantCount(4, 0), 1u);
  EXPECT_EQ(participantCount(1, 100), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  for (const unsigned jobs : {1u, 2u, 4u}) {
    const unsigned participants = participantCount(jobs, 2000);
    ASSERT_EQ(participants, jobs);
    // busy[p] counts the calls running as participant p right now: a
    // number handed to two concurrent calls would push it past 1.
    std::vector<std::atomic<int>> busy(participants);
    std::atomic<bool> outOfRange{false};
    std::atomic<bool> shared{false};
    std::atomic<bool> callerNotZero{false};
    parallelFor(jobs, 2000, [&](std::uint64_t, unsigned p) {
      if (p >= participants) {
        outOfRange = true;
        return;
      }
      if ((p == 0) != (std::this_thread::get_id() == caller)) {
        callerNotZero = true;
      }
      if (busy[p].fetch_add(1) != 0) shared = true;
      std::this_thread::yield();  // widen the window an overlap would need
      busy[p].fetch_sub(1);
    });
    EXPECT_FALSE(outOfRange) << "jobs " << jobs;
    EXPECT_FALSE(shared) << "jobs " << jobs;
    EXPECT_FALSE(callerNotZero) << "jobs " << jobs;
  }
}

}  // namespace
}  // namespace dmf::runtime
