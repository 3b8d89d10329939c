#include "runtime/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/scope.h"

namespace dmf::runtime {

unsigned resolveJobs(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned participantCount(unsigned jobs, std::uint64_t count) noexcept {
  return static_cast<unsigned>(std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(resolveJobs(jobs), count)));
}

void parallelFor(
    unsigned jobs, std::uint64_t count,
    const std::function<void(std::uint64_t index, unsigned participant)>& fn) {
  const unsigned participants = participantCount(jobs, count);
  if (participants == 1) {
    for (std::uint64_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }
  obs::count("runtime.pool.batches");
  obs::count("runtime.pool.tasks", count);

  std::atomic<std::uint64_t> next{0};
  // First (lowest-index) exception seen, for deterministic error behaviour.
  std::mutex errorMutex;
  std::exception_ptr error;
  std::uint64_t errorIndex = std::numeric_limits<std::uint64_t>::max();
  // Workers adopt the calling thread's span context so their spans splice
  // into the originating request's trace (zero ids when tracing is off or
  // the caller has no open span).
  const obs::SpanContext context = obs::currentContext();
  const auto drain = [&](unsigned participant) {
    // One span per participant: the "--jobs N" tasks in the trace.
    const obs::ContextGuard adopt(context);
    const obs::Span span("pool.worker", "pool");
    while (true) {
      const std::uint64_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) return;
      try {
        fn(index, participant);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(errorMutex);
        if (index < errorIndex) {
          errorIndex = index;
          error = std::current_exception();
        }
      }
    }
  };

  {
    // jthread joins on destruction, so if starting a thread throws, the
    // ones already running (which reference this frame) finish the range
    // and are joined before the error leaves.
    std::vector<std::jthread> workers;
    workers.reserve(participants - 1);
    for (unsigned w = 1; w < participants; ++w) {
      workers.emplace_back(drain, w);
    }
    drain(0);  // the calling thread works too
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace dmf::runtime
