// Unified metrics layer: named counters, gauges and fixed-bucket histograms
// with lock-free (atomic) updates and a deterministic JSON snapshot.
//
// Instruments are usable two ways:
//  * standalone members (e.g. PassCache owns obs::Counter fields directly —
//    zero lookup cost, the instrument IS the storage);
//  * registered by name in a MetricsRegistry, which owns the instrument and
//    hands out stable references; `snapshot()` renders every instrument,
//    name-sorted, as a report::Json tree.
//
// Updates are std::memory_order_relaxed: instruments count events, they do
// not synchronize them. Snapshots taken while writers are active see some
// valid interleaving (never torn values).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "report/json.h"

namespace dmf::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value / high-water gauge. `set` overwrites; `accumulateMax` keeps the
/// maximum ever observed (storage high-water, peak occupancy).
class Gauge {
 public:
  void set(std::uint64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void accumulateMax(std::uint64_t value) noexcept {
    std::uint64_t seen = value_.load(std::memory_order_relaxed);
    while (seen < value && !value_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i] (first
/// matching bucket); values above the last bound land in the overflow bucket.
/// Bounds are fixed at construction (strictly ascending, non-empty).
class Histogram {
 public:
  /// Throws std::invalid_argument on empty or non-ascending bounds.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t value) noexcept;

  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const {
    return bounds_;
  }
  /// Count in bucket `i` (i == bounds().size() is the overflow bucket).
  [[nodiscard]] std::uint64_t bucketCount(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Estimated q-quantile (q in [0,1]) — see histogramQuantile below.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Thread-safe registry of named instruments. Lookup and creation take a
/// mutex; the returned references are stable for the registry's lifetime, so
/// hot paths can look an instrument up once and update it lock-free
/// thereafter. A lookup of an existing name allocates nothing: the maps
/// compare names as std::string_view.
class MetricsRegistry {
 public:
  /// Gets or creates the named instrument.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// For an existing name the original bounds win (the `bounds` argument is
  /// ignored); histograms with one name must mean one thing.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::span<const std::uint64_t> bounds);
  [[nodiscard]] Histogram& histogram(
      std::string_view name, std::initializer_list<std::uint64_t> bounds) {
    return histogram(name, std::span(bounds.begin(), bounds.size()));
  }

  /// Instruments registered so far (all three kinds).
  [[nodiscard]] std::size_t size() const;

  /// Deterministic snapshot: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"bounds":[...],"counts":[...],"count":n,"sum":n}}}
  /// with every section name-sorted — two snapshots of equal instrument
  /// states dump to identical bytes regardless of registration order.
  [[nodiscard]] report::Json snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Estimated q-quantile of a fixed-bucket histogram, by linear interpolation
/// within the bucket holding the target rank. Bucket i spans
/// (bounds[i-1], bounds[i]] (the first bucket starts at 0) and observations
/// are assumed uniform within it; the overflow bucket has no upper edge, so
/// any rank landing there clamps to the last bound. `counts` must have
/// bounds.size() + 1 entries (the snapshot layout). Returns 0 for an empty
/// histogram; q is clamped to [0, 1].
[[nodiscard]] double histogramQuantile(const std::vector<std::uint64_t>& bounds,
                                       const std::vector<std::uint64_t>& counts,
                                       double q);

}  // namespace dmf::obs
