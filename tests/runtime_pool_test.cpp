// The shared runtime thread pool: the forEach contract (index coverage,
// reuse across batches, lowest-index exception, serial inline path),
// nested-use rejection, and jobs resolution.
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace dmf::runtime {
namespace {

TEST(ThreadPool, ForEachCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(10000);
  pool.forEach(touched.size(), [&](std::uint64_t i) {
    touched[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint64_t> out(97, 0);
    pool.forEach(out.size(), [&](std::uint64_t i) { out[i] = i * i; });
    for (std::uint64_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], i * i);
    }
  }
}

TEST(ThreadPool, SerialPoolSpawnsNoThreadsAndStillWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  std::uint64_t sum = 0;
  pool.forEach(100, [&](std::uint64_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, NestedForEachOnSamePoolThrows) {
  // A nested batch on the same pool would deadlock (the draining
  // participant would wait for a batch nobody else can finish), so it is
  // rejected — on the serial inline path too, keeping behaviour identical
  // for every job count.
  for (const unsigned jobs : {1u, 3u}) {
    ThreadPool pool(jobs);
    EXPECT_THROW(
        pool.forEach(1,
                     [&](std::uint64_t) {
                       pool.forEach(1, [](std::uint64_t) {});
                     }),
        std::logic_error)
        << "jobs=" << jobs;
  }
}

TEST(ThreadPool, NestedForEachOnDifferentPoolsIsAllowed) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  // Both outer participants submit to `inner` at once; repeated rounds make
  // the overlap near-certain, so submitters that overwrote each other's
  // batch would hang here.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> total{0};
    outer.forEach(8, [&](std::uint64_t) {
      inner.forEach(8, [&](std::uint64_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
    ASSERT_EQ(total.load(), 64) << "round " << round;
  }
}

TEST(ThreadPool, PoolIsReusableAfterNestedRejection) {
  ThreadPool pool(2);
  try {
    pool.forEach(4, [&](std::uint64_t) {
      pool.forEach(1, [](std::uint64_t) {});
    });
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error&) {
  }
  std::atomic<int> total{0};
  pool.forEach(100, [&](std::uint64_t) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, LowestIndexExceptionWinsOnBatchPath) {
  ThreadPool pool(4);
  try {
    pool.forEach(2000, [](std::uint64_t i) {
      if (i >= 700) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected the batch to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "700");
  }
}

TEST(ThreadPool, InlinePathPropagatesExceptions) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.forEach(10,
                   [](std::uint64_t i) {
                     if (i == 3) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ThreadPool, ZeroResolvesToHardwareConcurrency) {
  EXPECT_GE(ThreadPool::resolveJobs(0), 1u);
  EXPECT_EQ(ThreadPool::resolveJobs(5), 5u);
  ThreadPool pool(0);
  EXPECT_GE(pool.jobs(), 1u);
}

}  // namespace
}  // namespace dmf::runtime
