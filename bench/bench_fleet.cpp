// Fleet dispatcher latency and fairness (DESIGN.md §17).
//
// One WFQ scenario: a weight-8 PCR power user against eight weight-1 light
// users on a 4-chip heterogeneous fleet. The heavy user's demand is 8x a
// light user's, so with weight-proportional service every x_u =
// serviceCycles_u / weight_u lands near the same value and the whole-run
// Jain index should sit near 1000 permille — a fairness regression (policy
// bug, placement skew) drags it down and trips the perf gate.
//
// Reported through BENCH_bench_fleet.json (bench_obs.h):
//   bench.fleet.dispatch_nanos    — best-of-N wall time of dispatchFleet()
//                                   (planning fan-out + serial dispatch)
//   bench.fleet.jain_permille     — whole-run weight-normalized Jain index
//   bench.fleet.dispatch_allocs   — heap allocations of one warm, serially
//                                   planned dispatchFleet()
//   bench.fleet.dump_allocs       — heap allocations of that result's
//                                   toJson(true).dump()
// plus the dispatcher's own instruments (fleet.dispatch_nanos histogram,
// fleet.makespan_cycles, per-chip busy gauges). The allocation counts come
// from the counting operator new below, which only this binary links;
// unlike wall time they do not move with machine load, so their gate can
// be tight.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <vector>

#include "bench_obs.h"
#include "fleet/dispatcher.h"
#include "obs/scope.h"

namespace {

std::atomic<std::uint64_t> gAllocations{0};

}  // namespace

// Counting global allocator: every non-aligned operator new bumps one
// counter and takes its memory from malloc, and every matching delete hands
// it back to free. All forms are replaced, so a form the library (or a
// sanitizer) would otherwise supply never pairs with the other allocator.
namespace {

void* countedAlloc(std::size_t size) noexcept {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* countedAllocOrThrow(std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return countedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

// Heap allocations `fn` makes. Called after the timed reps, so instruments
// and buffers created on first use are not counted.
template <typename Fn>
std::uint64_t allocationsOf(Fn fn) {
  const std::uint64_t before = gAllocations.load(std::memory_order_relaxed);
  fn();
  return gAllocations.load(std::memory_order_relaxed) - before;
}

std::uint64_t nanosSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

int main(int argc, char** argv) {
  dmf::bench::BenchSession bench("bench_fleet", argc, argv);

  std::vector<dmf::fleet::UserStream> users;
  dmf::fleet::UserStream heavy;
  heavy.ratio = dmf::Ratio{std::vector<std::uint64_t>{2, 1, 1, 1, 1, 1, 9}};
  heavy.request.demand = 256;
  heavy.request.storageCap = 3;
  heavy.weight = 8.0;
  users.push_back(heavy);
  for (unsigned u = 0; u < 8; ++u) {
    dmf::fleet::UserStream light;
    light.ratio = dmf::Ratio{std::vector<std::uint64_t>{1, 7}};
    light.request.demand = 32;
    light.request.storageCap = 2;
    light.weight = 1.0;
    users.push_back(light);
  }

  dmf::fleet::DispatcherOptions options;
  options.chips = dmf::fleet::defaultFleet(4);
  options.policy = "wfq";
  options.jobs = 4;

  constexpr unsigned kReps = 5;
  std::uint64_t bestNanos = ~std::uint64_t{0};
  dmf::fleet::FleetResult result;
  for (unsigned rep = 0; rep < kReps; ++rep) {
    const auto start = Clock::now();
    result = dmf::fleet::dispatchFleet(users, options);
    bestNanos = std::min(bestNanos, nanosSince(start));
  }

  // Allocation counts: serial planning, so which thread plans which user
  // cannot change what its scratch has to grow.
  dmf::fleet::DispatcherOptions serial = options;
  serial.jobs = 1;
  dmf::fleet::FleetResult counted;
  const std::uint64_t dispatchAllocs = allocationsOf(
      [&] { counted = dmf::fleet::dispatchFleet(users, serial); });
  std::size_t dumpBytes = 0;
  const std::uint64_t dumpAllocs = allocationsOf(
      [&] { dumpBytes = counted.toJson(true).dump().size(); });

  const auto jainPermille =
      static_cast<std::uint64_t>(result.jainIndex() * 1000.0 + 0.5);
  dmf::obs::gaugeSet("bench.fleet.dispatch_nanos", bestNanos);
  dmf::obs::gaugeSet("bench.fleet.jain_permille", jainPermille);
  dmf::obs::gaugeSet("bench.fleet.dispatch_allocs", dispatchAllocs);
  dmf::obs::gaugeSet("bench.fleet.dump_allocs", dumpAllocs);

  std::cout << "dispatch: best of " << kReps << " reps " << bestNanos / 1000
            << " us, makespan " << result.makespan << " cycles, "
            << result.log.size() << " placements across "
            << options.chips.size() << " chips\n";
  std::cout << "fairness: Jain " << jainPermille << "/1000 (policy "
            << result.policy << ", " << users.size() << " users)\n";
  std::cout << "allocations: " << dispatchAllocs << " per serial dispatch, "
            << dumpAllocs << " per toJson(true).dump() of " << dumpBytes
            << " bytes\n";
  return 0;
}
