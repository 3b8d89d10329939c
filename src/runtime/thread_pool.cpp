#include "runtime/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "obs/scope.h"

namespace dmf::runtime {

namespace {

// The pool whose forEach the current thread is executing a task of, if any.
// Guards against nested forEach on the same pool, which would deadlock (the
// draining participant would wait on a batch nobody else can finish).
thread_local const ThreadPool* tActivePool = nullptr;

struct ActivePoolGuard {
  explicit ActivePoolGuard(const ThreadPool* pool) : prev(tActivePool) {
    tActivePool = pool;
  }
  ~ActivePoolGuard() { tActivePool = prev; }
  ActivePoolGuard(const ActivePoolGuard&) = delete;
  ActivePoolGuard& operator=(const ActivePoolGuard&) = delete;
  const ThreadPool* prev;
};

}  // namespace

// One forEach invocation: participants pull indices from `next` until the
// range is exhausted. All Batch accesses happen inside drain(); a participant
// only counts itself out (State::active) after drain() returns, which is what
// makes destroying the stack-allocated Batch safe once active reaches zero.
struct ThreadPool::Batch {
  std::uint64_t count = 0;
  const std::function<void(std::uint64_t)>* fn = nullptr;
  // The submitting thread's span context: workers adopt it so their spans
  // splice into the originating request's trace (zero ids when tracing is
  // off or the caller has no open span).
  obs::SpanContext context;
  std::atomic<std::uint64_t> next{0};
  // First (lowest-index) exception seen, for deterministic error behaviour.
  std::mutex errorMutex;
  std::exception_ptr error;
  std::uint64_t errorIndex = std::numeric_limits<std::uint64_t>::max();

  void drain() {
    while (true) {
      const std::uint64_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= count) return;
      try {
        (*fn)(index);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(errorMutex);
        if (index < errorIndex) {
          errorIndex = index;
          error = std::current_exception();
        }
      }
    }
  }
};

struct ThreadPool::State {
  // Held by a submitter for its whole parallel forEach: one batch slot, so
  // concurrent submitters (e.g. two participants of an outer pool sharing an
  // inner one) take turns instead of overwriting each other's batch.
  std::mutex submit;
  std::mutex mutex;
  std::condition_variable work;  // new batch published, or shutdown
  std::condition_variable done;  // a participant finished draining
  Batch* batch = nullptr;
  std::uint64_t generation = 0;  // bumped once per published batch
  unsigned active = 0;           // participants still inside drain()
  bool stop = false;
};

ThreadPool::ThreadPool(unsigned jobs)
    : jobs_(resolveJobs(jobs)), state_(std::make_unique<State>()) {
  workers_.reserve(jobs_ - 1);
  for (unsigned w = 1; w < jobs_; ++w) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->stop = true;
  }
  state_->work.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

unsigned ThreadPool::resolveJobs(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::workerLoop() {
  std::uint64_t seen = 0;
  while (true) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(state_->mutex);
      state_->work.wait(lock, [this, seen] {
        return state_->stop ||
               (state_->batch != nullptr && state_->generation != seen);
      });
      if (state_->stop) return;
      seen = state_->generation;
      batch = state_->batch;
    }
    {
      // One span per worker per batch: the "--jobs N" tasks in the trace,
      // parented onto the submitting thread's span via the batch context.
      const obs::ContextGuard context(batch->context);
      const obs::Span span("pool.worker", "pool");
      const ActivePoolGuard guard(this);
      batch->drain();
    }
    {
      const std::lock_guard<std::mutex> lock(state_->mutex);
      if (--state_->active == 0) state_->done.notify_all();
    }
  }
}

void ThreadPool::forEach(std::uint64_t count,
                         const std::function<void(std::uint64_t)>& fn) {
  if (count == 0) return;
  if (tActivePool == this) {
    throw std::logic_error(
        "ThreadPool: nested forEach on the same pool would deadlock");
  }
  if (jobs_ <= 1 || count == 1) {
    const ActivePoolGuard guard(this);
    for (std::uint64_t i = 0; i < count; ++i) fn(i);
    return;
  }

  const std::lock_guard<std::mutex> submitLock(state_->submit);
  Batch batch;
  batch.count = count;
  batch.fn = &fn;
  batch.context = obs::currentContext();
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->batch = &batch;
    ++state_->generation;
    state_->active = jobs_;  // jobs_ - 1 workers plus this thread
  }
  state_->work.notify_all();
  obs::count("runtime.pool.batches");
  obs::count("runtime.pool.tasks", count);

  {
    const obs::Span span("pool.worker", "pool");
    const ActivePoolGuard guard(this);
    batch.drain();  // the calling thread works too
  }

  {
    std::unique_lock<std::mutex> lock(state_->mutex);
    --state_->active;
    if (state_->active == 0) state_->done.notify_all();
    state_->done.wait(lock, [this] { return state_->active == 0; });
    state_->batch = nullptr;
  }

  if (batch.error) {
    std::rethrow_exception(batch.error);
  }
}

}  // namespace dmf::runtime
