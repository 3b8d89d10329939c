// Seeded request generation for the served workloads. The program under
// test receives only the generated request lines; the seed never reaches it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "dmf/ratio.h"

namespace perfbench {

/// One plan request before it is spelled on the wire.
struct PlanSpec {
  dmf::Ratio ratio{1, 1};
  std::string algo = "MM";
  std::string scheme = "SRS";
  std::uint64_t demand = 2;
  unsigned storage = 4;
  bool optimize = false;
};

/// A request line (no trailing newline) and its canonical cache key.
struct Request {
  std::string line;
  std::string key;
};

/// The canonical cache key the daemon derives from a request line, through
/// the same public parse and canonicalize calls. Throws on a bad line.
[[nodiscard]] std::string canonicalKey(const std::string& line);

/// Writes a request line with the given spelling. Variant 0 is the plain
/// reduced form; the others scale the ratio (2:4:2 for 1:2:1), permute the
/// fields and spell out defaults, so all variants share one cache key.
[[nodiscard]] std::string spell(const PlanSpec& spec, unsigned variant,
                                std::mt19937_64& rng);

/// Draws from a fixed multiset in seeded order, reshuffled each time it runs
/// out, so every value keeps its share within each pass through the deck.
template <class T>
class Deck {
 public:
  explicit Deck(std::vector<T> items)
      : items_(std::move(items)), next_(items_.size()) {}

  T draw(std::mt19937_64& rng) {
    if (next_ == items_.size()) {
      std::shuffle(items_.begin(), items_.end(), rng);
      next_ = 0;
    }
    return items_[next_++];
  }

 private:
  std::vector<T> items_;
  std::size_t next_;
};

/// Draws plan specs with the cold_plan mix: ratios from
/// workload::RandomRatioGenerator (sum 16-64, 2-8 parts), demand
/// log-uniform in [demandLo, demandHi], cap 3-8, mostly MM+SRS with a share
/// of MMS/OMS and RMA/MTCS/RSM, and (when `optimizeShare` > 0) that share of
/// requests set to optimize with demand <= 64. Each category, and each of
/// 16 demand strata, is dealt from a Deck, so the mix of cheap and costly
/// plans is the same for every seed; the seed picks the ratios and the
/// order. Every key is new and has a plan: a spec whose canonical key was
/// drawn before, or whose two-droplet pass already exceeds its cap, is
/// redrawn.
class SpecSource {
 public:
  SpecSource(std::uint64_t seed, std::uint64_t demandLo,
             std::uint64_t demandHi, double optimizeShare);

  [[nodiscard]] Request next();
  [[nodiscard]] PlanSpec nextSpec();

 private:
  static constexpr unsigned kDemandStrata = 16;

  std::mt19937_64 rng_;
  std::uint64_t demandLo_;
  std::uint64_t demandHi_;
  Deck<std::uint64_t> sums_;
  Deck<std::size_t> parts_;
  Deck<std::string> algos_;
  Deck<std::string> schemes_;
  Deck<unsigned> storages_;
  Deck<unsigned> optimize_;
  Deck<unsigned> demandStrata_;
  std::unordered_set<std::string> seen_;
};

/// Shared generator seeds for one workload seed, one stream per purpose so
/// adding draws to one stream does not shift the others.
[[nodiscard]] std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream);

/// The request stream of one served workload (cold_plan or hot_serve),
/// deterministic in the seed. hot_serve streams are per lane (one per
/// connection) over one key set; cold_plan's is shared and thread-safe.
class RequestStream {
 public:
  RequestStream(const std::string& workload, std::uint64_t seed,
                unsigned lane = 0);

  /// Requests to send once before measuring (the cache warm-up): the hot
  /// key set; none for cold_plan.
  [[nodiscard]] const std::vector<Request>& warmup() const { return warmup_; }
  /// The next request of the measured stream.
  [[nodiscard]] Request next();

 private:
  SpecSource source_;
  std::mt19937_64 rng_;
  /// Pre-spelled variants of each hot key, by popularity rank.
  std::vector<std::vector<Request>> spellings_;
  std::vector<Request> warmup_;
  Zipf zipf_{1, 1.0};
  std::mutex mutex_;
};

}  // namespace perfbench
