#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace dmf::obs {

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: bounds must be non-empty");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must be strictly ascending");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

double Histogram::quantile(double q) const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts[i] = bucketCount(i);
  return histogramQuantile(bounds_, counts, q);
}

double histogramQuantile(const std::vector<std::uint64_t>& bounds,
                         const std::vector<std::uint64_t>& counts,
                         double q) {
  if (counts.size() != bounds.size() + 1) {
    throw std::invalid_argument(
        "histogramQuantile: counts must have bounds.size() + 1 entries");
  }
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  if (bounds.empty()) {
    // Degenerate shape (snapshot JSON can carry it even though the
    // Histogram class forbids it): every sample lives in the sole overflow
    // bucket and there is no finite bound to clamp to. Without this guard
    // both bounds.back() calls below would be undefined behaviour.
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  // The rank of the q-quantile observation, 1-based: the nearest-rank
  // definition, so q=0.5 of {1..4} targets rank 2.
  const double rank = std::max(1.0, q * static_cast<double>(total));

  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double inBucket = static_cast<double>(counts[i]);
    if (inBucket == 0.0) continue;
    if (cumulative + inBucket >= rank) {
      if (i == bounds.size()) {
        // Overflow bucket: no upper edge to interpolate toward. Clamp to
        // the last finite bound (a known underestimate, documented).
        return static_cast<double>(bounds.back());
      }
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      const double upper = static_cast<double>(bounds[i]);
      const double fraction = (rank - cumulative) / inBucket;
      return lower + (upper - lower) * fraction;
    }
    cumulative += inBucket;
  }
  return static_cast<double>(bounds.back());
}

void Histogram::observe(std::uint64_t value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // == size() -> overflow
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

namespace {

// The named instrument of `instruments`, created by `make` on first use. The
// key is copied into a std::string only then.
template <typename Instrument, typename Make>
Instrument& findOrCreate(
    std::map<std::string, std::unique_ptr<Instrument>, std::less<>>&
        instruments,
    std::string_view name, Make make) {
  auto it = instruments.find(name);
  if (it == instruments.end()) {
    it = instruments.emplace(std::string(name), make()).first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return findOrCreate(counters_, name,
                      [] { return std::make_unique<Counter>(); });
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return findOrCreate(gauges_, name, [] { return std::make_unique<Gauge>(); });
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const std::uint64_t> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return findOrCreate(histograms_, name, [bounds] {
    return std::make_unique<Histogram>(
        std::vector<std::uint64_t>(bounds.begin(), bounds.end()));
  });
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

report::Json MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  report::Json out = report::Json::object();

  report::Json counters = report::Json::object();
  for (const auto& [name, counter] : counters_) {
    counters.set(name, counter->value());
  }
  out.set("counters", std::move(counters));

  report::Json gauges = report::Json::object();
  for (const auto& [name, gauge] : gauges_) {
    gauges.set(name, gauge->value());
  }
  out.set("gauges", std::move(gauges));

  report::Json histograms = report::Json::object();
  for (const auto& [name, histogram] : histograms_) {
    report::Json h = report::Json::object();
    report::Json bounds = report::Json::array();
    for (const std::uint64_t b : histogram->bounds()) {
      bounds.push(report::Json::number(b));
    }
    h.set("bounds", std::move(bounds));
    report::Json counts = report::Json::array();
    for (std::size_t i = 0; i <= histogram->bounds().size(); ++i) {
      counts.push(report::Json::number(histogram->bucketCount(i)));
    }
    h.set("counts", std::move(counts));
    h.set("count", histogram->count());
    h.set("sum", histogram->sum());
    histograms.set(name, std::move(h));
  }
  out.set("histograms", std::move(histograms));
  return out;
}

}  // namespace dmf::obs
