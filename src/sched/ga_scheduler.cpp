#include "sched/ga_scheduler.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/scope.h"
#include "sched/list_scheduler.h"
#include "sched/schedulers.h"

namespace dmf::sched {

using forest::TaskForest;
using forest::TaskId;

namespace {

// Tournament size for parent selection.
constexpr unsigned kTournament = 3;
// Individuals copied unchanged into the next generation.
constexpr unsigned kElites = 2;
// Per-gene probability of mutation (key resampled).
constexpr double kMutationRate = 0.05;

// Lexicographic fitness: completion time, then storage. Smaller is better.
using Score = std::pair<unsigned, unsigned>;

// FNV-1a over the chromosome's key bit patterns. Keys are uniform draws in
// [0, 1) or the seed's non-negative cycle numbers, never -0.0 or NaN, so
// equal bits and == agree; the map compares the full key vector on every
// lookup, so a hash collision is never a hit.
struct ChromosomeHash {
  std::size_t operator()(const std::vector<double>& keys) const {
    std::uint64_t hash = 1469598103934665603ull;
    for (const double key : keys) {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(key));
      std::memcpy(&bits, &key, sizeof(bits));
      for (unsigned byte = 0; byte < 8; ++byte) {
        hash ^= (bits >> (byte * 8)) & 0xFFu;
        hash *= 1099511628211ull;
      }
    }
    return static_cast<std::size_t>(hash);
  }
};

// Decodes random-key chromosomes on the shared list-scheduling driver: ready
// tasks run in ascending (key, id) order, at most `mixers` per cycle. The
// ready heap, the scratch and the schedule are reused across decodes.
class Decoder {
 public:
  Decoder(const TaskForest& forest, unsigned mixers)
      : forest_(forest), mixers_(mixers) {
    schedule_.mixerCount = mixers;
    schedule_.scheme = "GA";
  }

  const Schedule& decode(const std::vector<double>& keys) {
    detail::HeapPolicy policy(
        heap_, [&keys](TaskId id) { return std::make_pair(keys[id], id); });
    if (!detail::runListScheduler(scratch_.list, forest_.initialPending(),
                                  forest_.initialReady(),
                                  detail::consumersOf(forest_), mixers_,
                                  policy, schedule_)) {
      throw std::logic_error("GA: scheduler stalled");
    }
    return schedule_;
  }

  Score score(const std::vector<double>& keys) {
    const Schedule& s = decode(keys);
    return {s.completionTime, countStorage(forest_, s, scratch_)};
  }

 private:
  const TaskForest& forest_;
  unsigned mixers_;
  std::vector<std::pair<double, TaskId>> heap_;
  PlanScratch scratch_;
  Schedule schedule_;
};

struct Individual {
  std::vector<double> keys;
  Score score;
};

// Scores every individual in [first, population.size()): every memo lookup
// first, then the missed decodes, then their insertions in index order, so
// duplicates within one batch all decode and the memo contents and counters
// are a function of the population alone. Decoding the batch before any
// insertion keeps the insertions' key copies out of the decode loop, which
// measured faster than interleaving them (DESIGN.md §10).
class FitnessEvaluator {
 public:
  FitnessEvaluator(const TaskForest& forest, unsigned mixers)
      : decoder_(forest, mixers) {}

  void scoreTail(std::vector<Individual>& population, std::size_t first) {
    misses_.clear();
    for (std::size_t i = first; i < population.size(); ++i) {
      if (const auto hit = memo_.find(population[i].keys); hit != memo_.end()) {
        population[i].score = hit->second;
        obs::count("sched.ga.memo_hits");
      } else {
        misses_.push_back(i);
        obs::count("sched.ga.memo_misses");
      }
    }
    for (const std::size_t index : misses_) {
      Individual& ind = population[index];
      ind.score = decoder_.score(ind.keys);
    }
    for (const std::size_t index : misses_) {
      // A duplicate within the batch keeps the first score; scores are a
      // pure function of the keys, so they cannot differ.
      memo_.emplace(population[index].keys, population[index].score);
    }
  }

 private:
  Decoder decoder_;
  std::unordered_map<std::vector<double>, Score, ChromosomeHash> memo_;
  std::vector<std::size_t> misses_;
};

}  // namespace

Schedule scheduleGA(const TaskForest& forest, unsigned mixers,
                    const GaOptions& options) {
  if (mixers == 0) {
    throw std::invalid_argument("scheduleGA: at least one mixer required");
  }
  if (options.population <= kElites) {
    throw std::invalid_argument("scheduleGA: degenerate GA options");
  }
  const std::size_t n = forest.taskCount();
  if (n == 0) {
    Schedule s;
    s.mixerCount = mixers;
    s.scheme = "GA";
    return s;
  }
  const obs::Span span("sched.ga", "sched");

  // All randomness is drawn here, in breeding order; scoring never touches
  // the RNG.
  std::mt19937_64 rng(options.seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  // Unbiased parent index draw (rng() % size would favour small indices).
  std::uniform_int_distribution<std::size_t> pickParent(
      0, options.population - 1);

  FitnessEvaluator evaluator(forest, mixers);

  std::vector<Individual> population;
  population.reserve(options.population);

  // Seed with a critical-path individual (keys = -colevel via the OMS
  // schedule's cycle order) so the GA never starts worse than plain list
  // scheduling.
  {
    const Schedule oms = scheduleOMS(forest, mixers);
    std::vector<double> keys(n);
    for (TaskId id = 0; id < n; ++id) {
      keys[id] = static_cast<double>(oms.cycles[id]) +
                 1e-6 * static_cast<double>(id);
    }
    population.push_back({std::move(keys), Score{}});
  }
  while (population.size() < options.population) {
    std::vector<double> keys(n);
    for (double& key : keys) key = uniform(rng);
    population.push_back({std::move(keys), Score{}});
  }
  evaluator.scoreTail(population, 0);

  auto better = [](const Individual& a, const Individual& b) {
    return a.score < b.score;
  };

  for (unsigned gen = 0; gen < options.generations; ++gen) {
    std::sort(population.begin(), population.end(), better);
    std::vector<Individual> next(population.begin(),
                                 population.begin() + kElites);
    auto tournamentPick = [&]() -> const Individual& {
      std::size_t best = pickParent(rng);
      for (unsigned t = 1; t < kTournament; ++t) {
        const std::size_t challenger = pickParent(rng);
        if (population[challenger].score < population[best].score) {
          best = challenger;
        }
      }
      return population[best];
    };
    while (next.size() < options.population) {
      const Individual& a = tournamentPick();
      const Individual& b = tournamentPick();
      std::vector<double> child(n);
      for (std::size_t g = 0; g < n; ++g) {
        child[g] = (rng() & 1u) ? a.keys[g] : b.keys[g];
        if (uniform(rng) < kMutationRate) {
          child[g] = uniform(rng);
        }
      }
      next.push_back({std::move(child), Score{}});
    }
    evaluator.scoreTail(next, kElites);
    population = std::move(next);
  }

  std::sort(population.begin(), population.end(), better);
  return Decoder(forest, mixers).decode(population.front().keys);
}

}  // namespace dmf::sched
