// A small fixed-size thread pool shared by every parallel loop in the
// library (the optimized streaming planner's candidate sweep, multi-target
// planning and fleet planning). Deterministic by construction: forEach hands
// out indices through an atomic counter and every index writes only its own
// result slot, so callers that reduce in index order get bit-identical
// output for any job count (including 1, which runs inline without spawning
// threads).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace dmf::runtime {

/// Fixed-size worker pool. `jobs` counts the calling thread: a pool with
/// jobs == N spawns N-1 workers and the caller participates in forEach, so
/// jobs <= 1 is pure serial execution with no threads at all.
///
/// Nested use of the *same* pool (calling forEach from inside a task it is
/// running) deadlocks by construction, so it is rejected with
/// std::logic_error — on the inline path too, to keep behaviour identical
/// for every job count. Nesting *different* pools is allowed.
class ThreadPool {
 public:
  /// `jobs == 0` resolves to the hardware concurrency (at least 1).
  explicit ThreadPool(unsigned jobs = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, calling thread included.
  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

  /// Runs fn(i) for every i in [0, count), spread over the workers; blocks
  /// until all indices finish. Exceptions thrown by fn are captured and the
  /// one raised at the lowest index is rethrown after completion, so error
  /// behaviour is deterministic too.
  void forEach(std::uint64_t count,
               const std::function<void(std::uint64_t)>& fn);

  /// Resolves a user-facing jobs request: 0 means hardware concurrency.
  [[nodiscard]] static unsigned resolveJobs(unsigned requested) noexcept;

 private:
  struct Batch;
  struct State;

  void workerLoop();

  unsigned jobs_;
  std::vector<std::thread> workers_;
  std::unique_ptr<State> state_;
};

}  // namespace dmf::runtime
