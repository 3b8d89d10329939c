#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dmf/errors.h"
#include "engine/streaming.h"
#include "report/json.h"
#include "server/canonical.h"
#include "workload/random_ratios.h"

namespace perfbench {

namespace {

/// Whether a two-droplet pass of the spec fits its storage cap. The planner
/// refuses a spec whose smallest pass does not (in this mix, cap 3 under
/// MMS), and a refused request never warms the cache.
bool smallestPassFits(const PlanSpec& spec) {
  const dmf::engine::MdstEngine engine(spec.ratio);
  dmf::engine::StreamingRequest request;
  request.algorithm = dmf::server::parseAlgorithm(spec.algo);
  request.scheme = dmf::server::parseScheme(spec.scheme);
  request.demand = 2;
  request.storageCap = spec.storage;
  try {
    (void)dmf::engine::planStreaming(engine, request);
    return true;
  } catch (const dmf::InfeasibleError&) {
    return false;
  }
}

}  // namespace

std::string canonicalKey(const std::string& line) {
  return dmf::server::canonicalize(
             dmf::server::PlanRequest::fromJson(dmf::report::Json::parse(line)))
      .key();
}

std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): decorrelated streams from one seed.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string spell(const PlanSpec& spec, unsigned variant,
                  std::mt19937_64& rng) {
  const bool scaled = (variant & 1u) != 0;
  const bool explicitDefaults = (variant & 2u) != 0;
  const bool permuted = variant != 0;

  std::vector<std::uint64_t> parts = spec.ratio.parts();
  if (scaled) {
    for (std::uint64_t& p : parts) p *= 2;
  }
  std::string ratio;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) ratio += ':';
    ratio += std::to_string(parts[i]);
  }

  std::vector<std::string> fields = {
      "\"ratio\":\"" + ratio + "\"",
      "\"demand\":" + std::to_string(spec.demand)};
  if (explicitDefaults || spec.storage != 4) {
    fields.push_back("\"storage\":" + std::to_string(spec.storage));
  }
  if (explicitDefaults || spec.algo != "MM") {
    fields.push_back("\"algo\":\"" + spec.algo + "\"");
  }
  if (explicitDefaults || spec.scheme != "SRS") {
    fields.push_back("\"scheme\":\"" + spec.scheme + "\"");
  }
  if (explicitDefaults) fields.push_back("\"mixers\":0");
  if (explicitDefaults || spec.optimize) {
    fields.push_back(std::string("\"optimize\":") +
                     (spec.optimize ? "true" : "false"));
  }
  if (explicitDefaults) fields.push_back("\"op\":\"plan\"");
  if (permuted) std::shuffle(fields.begin(), fields.end(), rng);

  std::string line = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ',';
    line += fields[i];
  }
  line += '}';
  return line;
}

namespace {

/// One request in round(1/share) optimizes (none when share is 0).
std::vector<unsigned> optimizeDeck(double share) {
  if (!(share > 0.0)) return {0};
  std::vector<unsigned> deck(
      static_cast<std::size_t>(std::max(1.0, std::round(1.0 / share))), 0);
  deck.front() = 1;
  return deck;
}

std::vector<unsigned> strata(unsigned n) {
  std::vector<unsigned> out(n);
  for (unsigned i = 0; i < n; ++i) out[i] = i;
  return out;
}

}  // namespace

SpecSource::SpecSource(std::uint64_t seed, std::uint64_t demandLo,
                       std::uint64_t demandHi, double optimizeShare)
    : rng_(seed),
      demandLo_(demandLo),
      demandHi_(demandHi),
      sums_({16, 32, 64}),
      parts_({2, 3, 4, 5, 6, 7, 8}),
      algos_({"MM", "MM", "MM", "MM", "MM", "MM", "MM", "RMA", "MTCS", "RSM"}),
      schemes_({"SRS", "SRS", "SRS", "SRS", "SRS", "SRS", "SRS", "SRS", "SRS",
                "SRS", "SRS", "SRS", "SRS", "SRS", "MMS", "MMS", "MMS", "OMS",
                "OMS", "OMS"}),
      storages_({3, 4, 5, 6, 7, 8}),
      optimize_(optimizeDeck(optimizeShare)),
      demandStrata_(strata(kDemandStrata)) {}

PlanSpec SpecSource::nextSpec() {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // Log-uniform over [lo, hi], one of kDemandStrata equal log-width strata
  // at a time.
  auto logUniform = [&](std::uint64_t lo, std::uint64_t hi) {
    const double at = (demandStrata_.draw(rng_) + unit(rng_)) / kDemandStrata;
    const double x = std::exp(std::log(static_cast<double>(lo)) +
                              at * (std::log(static_cast<double>(hi)) -
                                    std::log(static_cast<double>(lo))));
    return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(std::lround(x)),
                                     lo, hi);
  };
  for (;;) {
    PlanSpec spec;
    const std::uint64_t sum = sums_.draw(rng_);
    const std::size_t parts = parts_.draw(rng_);
    spec.ratio = dmf::workload::RandomRatioGenerator(sum, parts, rng_()).next();
    spec.algo = algos_.draw(rng_);
    spec.scheme = schemes_.draw(rng_);
    spec.storage = storages_.draw(rng_);
    spec.optimize = optimize_.draw(rng_) != 0;
    spec.demand = spec.optimize ? logUniform(demandLo_, std::min<std::uint64_t>(
                                                            demandHi_, 64))
                                : logUniform(demandLo_, demandHi_);

    std::mt19937_64 spelling(0);
    const std::string key = canonicalKey(spell(spec, 0, spelling));
    if (seen_.count(key) != 0 || !smallestPassFits(spec)) continue;
    seen_.insert(key);
    return spec;
  }
}

Request SpecSource::next() {
  const PlanSpec spec = nextSpec();
  std::mt19937_64 spelling(0);
  Request request;
  request.line = spell(spec, 0, spelling);
  request.key = canonicalKey(request.line);
  return request;
}

RequestStream::RequestStream(const std::string& workload, std::uint64_t seed,
                             unsigned lane)
    : // hot_serve's keys are small plans (demand <= 32), so its warm-up,
      // part of setup_s, stays short and about the same for every seed.
      source_(streamSeed(seed, 1), 8, workload == "cold_plan" ? 256 : 32,
              workload == "cold_plan" ? 1.0 / 8.0 : 0.0),
      rng_(streamSeed(seed, 100 + lane)) {
  constexpr std::size_t kHotKeys = 64;
  if (workload == "cold_plan") return;
  if (workload != "hot_serve") {
    throw std::invalid_argument("no request stream for workload " + workload);
  }
  std::mt19937_64 spellRng(streamSeed(seed, 2));
  for (std::size_t k = 0; k < kHotKeys; ++k) {
    const PlanSpec spec = source_.nextSpec();
    std::vector<Request> variants;
    for (unsigned v = 0; v < 4; ++v) {
      Request request;
      request.line = spell(spec, v, spellRng);
      request.key = canonicalKey(request.line);
      if (!variants.empty() && request.key != variants.front().key) {
        throw std::logic_error("spellings disagree on the canonical key: " +
                               request.line);
      }
      variants.push_back(std::move(request));
    }
    warmup_.push_back(variants.front());
    spellings_.push_back(std::move(variants));
  }
  zipf_ = Zipf(kHotKeys, 1.1);
}

Request RequestStream::next() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (spellings_.empty()) return source_.next();
  const std::size_t rank = zipf_(rng_);
  return spellings_[rank][rng_() % spellings_[rank].size()];
}

}  // namespace perfbench
