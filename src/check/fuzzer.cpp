#include "check/fuzzer.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "dmf/errors.h"
#include "dmf/parse.h"
#include "engine/pass_cache.h"
#include "engine/recovery.h"
#include "engine/serialize.h"
#include "engine/streaming.h"
#include "fault/fault_injector.h"
#include "fleet/dispatcher.h"
#include "journal/journal.h"
#include "journal/stream_runner.h"
#include "obs/log.h"
#include "obs/scope.h"
#include "sched/ga_scheduler.h"
#include "sched/heterogeneous.h"
#include "sched/schedulers.h"
#include "server/service.h"
#include "workload/random_ratios.h"

namespace dmf::check {

std::string FuzzCase::ratioString() const {
  std::string out;
  for (std::uint64_t p : ratioParts) {
    if (!out.empty()) out += ':';
    out += std::to_string(p);
  }
  return out;
}

std::string FuzzCase::toCli() const {
  return "dmfstream fuzz --replay '" + toJson().dump() + "'";
}

report::Json FuzzCase::toJson() const {
  report::Json json = report::Json::object();
  json.set("ratio", ratioString());
  json.set("algorithm", std::string(mixgraph::algorithmName(algorithm)));
  json.set("scheme", std::string(engine::schemeName(scheme)));
  json.set("demand", demand);
  json.set("mixers", std::uint64_t{mixers});
  json.set("storageCap", std::uint64_t{storageCap});
  json.set("faultSpec", faultSpec);
  json.set("faultSeed", faultSeed);
  return json;
}

FuzzCase FuzzCase::fromJson(const report::Json& json) {
  if (!json.isObject()) {
    throw std::invalid_argument("FuzzCase: replay seed must be a JSON object");
  }
  FuzzCase c;
  try {
    const auto ratio = Ratio::parse(json.at("ratio").asString());
    if (!ratio.has_value()) {
      throw std::invalid_argument("FuzzCase: malformed ratio string");
    }
    c.ratioParts = ratio->parts();
    c.algorithm = server::parseAlgorithm(json.at("algorithm").asString());
    c.scheme = server::parseScheme(json.at("scheme").asString());
    c.demand = json.at("demand").asUint();
    c.mixers = narrowUnsigned<unsigned>(json.at("mixers").asUint(), "mixers");
    c.storageCap =
        narrowUnsigned<unsigned>(json.at("storageCap").asUint(), "storageCap");
    c.faultSpec = json.at("faultSpec").asString();
    c.faultSeed = json.at("faultSeed").asUint();
  } catch (const std::out_of_range& e) {
    throw std::invalid_argument(std::string("FuzzCase: missing field: ") +
                                e.what());
  } catch (const std::logic_error& e) {
    throw std::invalid_argument(std::string("FuzzCase: bad field type: ") +
                                e.what());
  }
  return c;
}

std::uint64_t FuzzCase::cost() const {
  const std::uint64_t sum =
      std::accumulate(ratioParts.begin(), ratioParts.end(), std::uint64_t{0});
  return demand * (std::uint64_t{1} << 20) + sum * (std::uint64_t{1} << 12) +
         ratioParts.size() * (std::uint64_t{1} << 8) +
         std::uint64_t{mixers} * 16 + std::uint64_t{storageCap} * 4 +
         (faultSpec.empty() ? 0 : 2) +
         (algorithm == mixgraph::Algorithm::MM ? 0 : 1);
}

Fuzzer::Fuzzer(FuzzOptions options) : options_(std::move(options)) {}

FuzzCase Fuzzer::generate(std::mt19937_64& rng) const {
  FuzzCase c;
  const unsigned accuracy = 2 + static_cast<unsigned>(rng() % 5);  // d in 2..6
  const std::uint64_t sum = std::uint64_t{1} << accuracy;
  const std::size_t parts =
      2 + static_cast<std::size_t>(
              rng() % (std::min<std::uint64_t>(6, sum) - 1));
  workload::RandomRatioGenerator gen(sum, parts, rng());
  c.ratioParts = gen.next().parts();
  constexpr mixgraph::Algorithm kAlgos[] = {
      mixgraph::Algorithm::MM, mixgraph::Algorithm::RMA,
      mixgraph::Algorithm::MTCS, mixgraph::Algorithm::RSM};
  c.algorithm = kAlgos[rng() % 4];
  constexpr engine::Scheme kSchemes[] = {
      engine::Scheme::kSRS, engine::Scheme::kSRS, engine::Scheme::kSRS,
      engine::Scheme::kMMS, engine::Scheme::kOMS};
  c.scheme = kSchemes[rng() % 5];
  c.demand = 1 + rng() % 48;
  if (rng() % 4 == 0) {
    // Snap onto the paper's zero-waste alignment D = p * 2^d.
    c.demand = (1 + rng() % 3) * sum;
  }
  c.mixers = 1 + static_cast<unsigned>(rng() % 5);
  c.storageCap =
      rng() % 3 == 0 ? 0 : 1 + static_cast<unsigned>(rng() % 8);
  if (rng() % 2 == 0) {
    c.faultSpec.clear();
  } else {
    const char* kSpecs[] = {
        "split=0.05", "loss=0.03", "dispense=0.02",
        "split=0.04,loss=0.02,eps=0.2",
        "split=0.02,loss=0.01,dispense=0.01,electrode=0.002"};
    c.faultSpec = kSpecs[rng() % 5];
  }
  c.faultSeed = 1 + rng() % 1000;
  return c;
}

namespace {

// One-field tweak of a corpus case (coverage-guided exploration around
// shapes that were new).
FuzzCase mutate(FuzzCase c, std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0: {
      // Signed nudge in [-3, +3]: the obvious `demand + rng() % 7 - 3`
      // wraps to ~2^64 on a small draw (the exact bug class the fuzzer
      // hunts — it found this very line on its first long sweep).
      const auto nudge = static_cast<std::int64_t>(rng() % 7) - 3;
      const auto demand = static_cast<std::int64_t>(std::min<std::uint64_t>(
          c.demand, std::uint64_t{1} << 20));
      c.demand = static_cast<std::uint64_t>(
          std::max<std::int64_t>(1, demand + nudge));
      break;
    }
    case 1: c.demand = std::min<std::uint64_t>(c.demand * 2, 4096); break;
    case 2: c.mixers = 1 + static_cast<unsigned>((c.mixers + rng()) % 6);
            break;
    case 3: c.storageCap = static_cast<unsigned>((c.storageCap + rng()) % 9);
            break;
    case 4: {
      constexpr mixgraph::Algorithm kAlgos[] = {
          mixgraph::Algorithm::MM, mixgraph::Algorithm::RMA,
          mixgraph::Algorithm::MTCS, mixgraph::Algorithm::RSM};
      c.algorithm = kAlgos[rng() % 4];
      break;
    }
    default: c.faultSeed = 1 + rng() % 1000; break;
  }
  return c;
}

// Coverage proxy: a hash of the structural shape the case exercises. Built
// from a fresh (cheap) forest so two parameterizations reaching the same
// forest count once.
std::uint64_t shapeSignature(const FuzzCase& c) {
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  try {
    const Ratio ratio(std::vector<std::uint64_t>(c.ratioParts));
    const mixgraph::MixingGraph graph =
        mixgraph::buildGraph(ratio, c.algorithm);
    const forest::TaskForest forest(graph, c.demand);
    fold(static_cast<std::uint64_t>(c.algorithm));
    fold(forest.taskCount());
    fold(forest.depth());
    fold(forest.stats().waste);
    fold(forest.stats().componentTrees);
    fold(c.mixers);
    fold(c.storageCap == 0 ? 0 : 1 + c.storageCap);
    fold(c.faultSpec.empty() ? 0 : 1);
  } catch (const std::exception&) {
    fold(0xdead);
  }
  return h;
}

std::set<std::string> oracleNames(const std::vector<std::string>& failures) {
  std::set<std::string> names;
  for (const std::string& f : failures) {
    names.insert(f.substr(0, f.find(':')));
  }
  return names;
}

// --- crash-scope machinery --------------------------------------------------

/// Canonical byte image of a run's output: the plan dump plus every
/// per-pass recovery dump. Two runs agree iff these strings are equal.
std::string runBytes(const journal::StreamRunResult& result) {
  std::string out = engine::toJson(result.plan).dump();
  for (const engine::RecoveryReport& report : result.recovery) {
    out += '\n';
    out += engine::toJson(report).dump();
  }
  return out;
}

/// A per-case scratch journal directory; pid + counter keeps parallel fuzz
/// processes (ctest -j) from colliding. Removed by DirCleanup below.
std::string freshCrashDir() {
  static std::atomic<std::uint64_t> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("dmf_fuzz_crash_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1))))
      .string();
}

struct DirCleanup {
  std::string dir;
  ~DirCleanup() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

void writeRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Every legal way a resume can end. Anything outside this taxonomy —
/// a wrong answer, an untyped exception, a request-mismatch rejection of a
/// journal the fuzzer itself wrote — is a finding.
enum class ResumeOutcome {
  kIdentical,  // resumed output byte-identical to the uninterrupted run
  kDiverged,   // resumed but produced different bytes
  kCorrupt,    // typed CorruptJournalError (clean detection)
  kRejected,   // std::invalid_argument (fingerprint/usage rejection)
  kError,      // any other exception
};

ResumeOutcome attemptResume(const engine::MdstEngine& engine,
                            const journal::StreamRunRequest& request,
                            const std::string& dir,
                            const std::string& refBytes, std::string* detail) {
  try {
    engine::PassCache cache;
    journal::StreamRunOptions options;
    options.journalDir = dir;
    options.resume = true;
    const journal::StreamRunResult result =
        journal::runStream(engine, request, cache, options);
    if (runBytes(result) == refBytes) return ResumeOutcome::kIdentical;
    *detail = "resumed output differs from the uninterrupted run";
    return ResumeOutcome::kDiverged;
  } catch (const journal::CorruptJournalError& e) {
    *detail = e.what();
    return ResumeOutcome::kCorrupt;
  } catch (const std::invalid_argument& e) {
    *detail = e.what();
    return ResumeOutcome::kRejected;
  } catch (const std::exception& e) {
    *detail = e.what();
    return ResumeOutcome::kError;
  }
}

}  // namespace

CheckResult Fuzzer::runCase(const FuzzCase& c) const {
  CheckResult out;
  const std::string& scope = options_.scope;
  const auto inScope = [&scope](const char* stage) {
    return scope == "all" || scope == stage;
  };
  try {
    const Ratio ratio(std::vector<std::uint64_t>(c.ratioParts));
    const engine::MdstEngine engine(ratio);
    const mixgraph::MixingGraph& graph = engine.baseGraph(c.algorithm);
    const forest::TaskForest forest(graph, c.demand);
    ++out.checksRun;
    forest.validateOrThrow();  // production self-check, then the oracles
    checkForestConservation(forest, out);
    checkForestWiring(forest, out);
    checkMixtureCorrectness(forest, out);
    if (scope == "forest") return out;

    const unsigned mixers = std::max(1u, c.mixers);
    sched::Schedule srs;
    if (inScope("sched") || inScope("fault")) {
      srs = sched::scheduleSRS(forest, mixers);
    }

    if (inScope("sched")) {
      const sched::Schedule mms = sched::scheduleMMS(forest, mixers);
      const sched::Schedule oms = sched::scheduleOMS(forest, mixers);
      checkScheduledForest(forest, mms, 0, out);
      checkScheduledForest(forest, srs, 0, out);
      checkScheduledForest(forest, sched::scheduleSRSGreedy(forest, mixers),
                           0, out);
      checkScheduledForest(forest, oms, 0, out);
      checkSrsContract(forest, srs, mms, out);
      // The capped SRS may return nullopt only when SRS really stores
      // more, and must otherwise return SRS's own schedule: at the case's
      // cap, and at SRS's own storage, which it must never claim to exceed.
      const unsigned srsStorage = sched::countStorage(forest, srs);
      for (const unsigned cap : {c.storageCap, srsStorage}) {
        ++out.checksRun;
        const std::optional<sched::Schedule> capped =
            sched::scheduleSRS(forest, mixers, cap);
        if (!capped.has_value() && srsStorage <= cap) {
          out.fail("srs-bound", "capped SRS proves storage > " +
                                    std::to_string(cap) + ", SRS stores " +
                                    std::to_string(srsStorage));
        } else if (capped.has_value() && (capped->cycles != srs.cycles ||
                                          capped->mixers != srs.mixers)) {
          out.fail("srs-bound", "capped SRS at cap " + std::to_string(cap) +
                                    " differs from the uncapped schedule");
        }
      }
      // Differential: a unit MixerBank must reduce exactly to the paper's
      // unit-cycle model, so the heterogeneous scheduler and OMS (both
      // longest-chain list schedulers) must complete at the same cycle.
      const sched::MixerBank bank = sched::uniformBank(mixers);
      const sched::Schedule het = sched::scheduleHeterogeneous(forest, bank);
      ++out.checksRun;
      try {
        sched::validateHeterogeneous(forest, het, bank);
      } catch (const std::logic_error& e) {
        out.fail("het-oms", std::string("invalid unit-bank schedule: ") +
                                e.what());
      }
      ++out.checksRun;
      if (het.completionTime != oms.completionTime) {
        out.fail("het-oms",
                 "unit MixerBank completes at " +
                     std::to_string(het.completionTime) + ", OMS at " +
                     std::to_string(oms.completionTime));
      }
      if (c.storageCap > 0) {
        try {
          const sched::Schedule capped =
              sched::scheduleStorageCapped(forest, mixers, c.storageCap);
          checkScheduledForest(forest, capped, c.storageCap, out);
        } catch (const InfeasibleError&) {
          // A too-tight cap is a legal answer, not a finding.
        }
      }
      if (forest.taskCount() <= 64) {
        sched::GaOptions ga;
        ga.seed = c.faultSeed;
        ga.population = 8;
        ga.generations = 6;
        checkScheduledForest(forest, sched::scheduleGA(forest, mixers, ga), 0,
                             out);
      }
    }

    if (inScope("stream") && c.storageCap > 0) {
      engine::StreamingRequest request;
      request.algorithm = c.algorithm;
      request.scheme = c.scheme;
      request.demand = c.demand;
      request.storageCap = c.storageCap;
      request.mixers = mixers;
      request.jobs = 1;
      try {
        const engine::StreamingPlan serial =
            engine::planStreaming(engine, request);
        checkStreamingPlan(engine, request, serial, out);
        // Round-trip: toJson -> dump -> parse -> fromJson -> toJson must
        // reproduce the original bytes (journal resume depends on it).
        ++out.checksRun;
        const std::string dumped = engine::toJson(serial).dump();
        if (engine::toJson(
                engine::streamingPlanFromJson(report::Json::parse(dumped)))
                .dump() != dumped) {
          out.fail("serialize-roundtrip",
                   "StreamingPlan JSON round-trip is not lossless");
        }
        const engine::StreamingPlan optimized =
            engine::planStreamingOptimized(engine, request);
        engine::StreamingRequest parallelRequest = request;
        parallelRequest.jobs = 4;
        const engine::StreamingPlan threaded =
            engine::planStreamingOptimized(engine, parallelRequest);
        ++out.checksRun;
        if (engine::toJson(optimized).dump() !=
            engine::toJson(threaded).dump()) {
          out.fail("jobs-identical",
                   "planStreamingOptimized JSON differs between --jobs 1 "
                   "and 4");
        }
        checkStreamingPlan(engine, request, optimized, out);
        ++out.checksRun;
        if (optimized.totalCycles > serial.totalCycles) {
          out.fail("stream-optimized",
                   "optimized plan takes " +
                       std::to_string(optimized.totalCycles) +
                       " cycles, plain planStreaming " +
                       std::to_string(serial.totalCycles));
        }
      } catch (const InfeasibleError&) {
        // Cap below any feasible pass: a legal outcome.
      }
    }

    if (inScope("server") && c.storageCap > 0) {
      // Differential: the serving layer must be a transparent cache over
      // the library — cold response == warm (cached) response == the
      // direct planStreaming dump, byte for byte, with the cache keyed by
      // the reduced ratio.
      server::PlanService service{server::ServiceOptions{}};
      report::Json line = report::Json::object();
      line.set("op", std::string("plan"))
          .set("ratio", ratio.toString())
          .set("demand", c.demand)
          .set("storage", std::uint64_t{c.storageCap})
          .set("mixers", std::uint64_t{mixers})
          .set("algo", std::string(mixgraph::algorithmName(c.algorithm)))
          .set("scheme", std::string(engine::schemeName(c.scheme)));
      const std::string request = line.dump();
      const report::Json cold = report::Json::parse(service.handle(request));
      const report::Json warm = report::Json::parse(service.handle(request));
      ++out.checksRun;
      if (cold.at("ok").asBool() != warm.at("ok").asBool()) {
        out.fail("server-cache",
                 "cold and warm responses disagree on feasibility");
      } else if (cold.at("ok").asBool()) {
        if (cold.at("source").asString() != "planned" ||
            warm.at("source").asString() != "cache") {
          out.fail("server-cache",
                   "expected planned-then-cache, got " +
                       cold.at("source").asString() + " then " +
                       warm.at("source").asString());
        }
        ++out.checksRun;
        if (cold.at("plan").dump() != warm.at("plan").dump()) {
          out.fail("server-cache",
                   "cache hit is not byte-identical to the cold plan");
        }
        const engine::MdstEngine reducedEngine(ratio.reduced());
        engine::StreamingRequest direct;
        direct.algorithm = c.algorithm;
        direct.scheme = c.scheme;
        direct.demand = c.demand;
        direct.storageCap = c.storageCap;
        direct.mixers = mixers;
        direct.jobs = 1;
        ++out.checksRun;
        if (cold.at("plan").dump() !=
            engine::toJson(engine::planStreaming(reducedEngine, direct))
                .dump()) {
          out.fail("server-engine",
                   "served plan differs from the direct planStreaming dump");
        }
      }
      // Infeasible either way is legal — the cap can be below any pass.
    }

    if (inScope("crash") && c.storageCap > 0) {
      // Differential: a journaled run killed at a pass boundary and resumed
      // must be byte-identical to its uninterrupted twin; a journal the
      // filesystem tore (truncation) silently repairs to the same bytes;
      // a journal something *damaged* (bit flip inside a committed frame)
      // is detected as a typed CorruptJournalError — never a wrong answer.
      journal::StreamRunRequest run;
      run.streaming.algorithm = c.algorithm;
      run.streaming.scheme = c.scheme;
      run.streaming.demand = c.demand;
      run.streaming.storageCap = c.storageCap;
      run.streaming.mixers = mixers;
      run.streaming.jobs = 1;
      run.inject = !c.faultSpec.empty();
      if (run.inject) run.faults = fault::FaultSpec::parse(c.faultSpec);
      run.faultSeed = c.faultSeed;
      try {
        engine::PassCache refCache;
        const journal::StreamRunResult ref =
            journal::runStream(engine, run, refCache);
        const std::string refBytes = runBytes(ref);
        const std::uint64_t passCount = ref.plan.passes.size();
        if (passCount > 0) {
          const std::string dir = freshCrashDir();
          const DirCleanup cleanup{dir};
          journal::StreamRunOptions crashOptions;
          crashOptions.journalDir = dir;
          crashOptions.snapshotEvery = 1 + static_cast<unsigned>(c.faultSeed % 3);
          crashOptions.stopAfterPass = 1 + c.faultSeed % passCount;
          engine::PassCache cache;
          const journal::StreamRunResult crashed =
              journal::runStream(engine, run, cache, crashOptions);
          ++out.checksRun;
          if (!crashed.partial) {
            out.fail("crash-resume", "stopAfterPass " +
                                         std::to_string(crashOptions.stopAfterPass) +
                                         " did not cut the run short");
          }
          // Freeze the crashed on-disk image so every sweep below starts
          // from the same wreckage.
          const std::string snapPath = dir + "/snapshot.json";
          const std::string logPath = dir + "/journal.log";
          const std::string snapBytes =
              journal::readFileIfExists(snapPath).value_or(std::string());
          const std::string logBytes =
              journal::readFileIfExists(logPath).value_or(std::string());
          std::string detail;

          ++out.checksRun;
          if (attemptResume(engine, run, dir, refBytes, &detail) !=
              ResumeOutcome::kIdentical) {
            out.fail("crash-resume",
                     "resume after crash at pass " +
                         std::to_string(crashOptions.stopAfterPass) + "/" +
                         std::to_string(passCount) + ": " + detail);
          }

          // Torn tails: any truncation of the log must silently repair and
          // still reproduce the reference bytes (a truncated *snapshot*
          // can only mean damage — publication is atomic — so that case
          // lands in the corruption sweep below).
          std::set<std::size_t> cuts;
          if (!logBytes.empty()) {
            cuts.insert(logBytes.size() - 1);
            cuts.insert(logBytes.size() / 2);
            cuts.insert(0);
          }
          for (const std::size_t cut : cuts) {
            writeRaw(snapPath, snapBytes);
            writeRaw(logPath, logBytes.substr(0, cut));
            ++out.checksRun;
            if (attemptResume(engine, run, dir, refBytes, &detail) !=
                ResumeOutcome::kIdentical) {
              out.fail("crash-truncate",
                       "resume after log truncated to " + std::to_string(cut) +
                           " of " + std::to_string(logBytes.size()) +
                           " bytes: " + detail);
            }
          }

          // Snapshot truncation = torn atomic publish = corruption.
          for (const std::size_t cut :
               {snapBytes.size() / 2, snapBytes.size() - 1}) {
            writeRaw(snapPath, snapBytes.substr(0, cut));
            writeRaw(logPath, logBytes);
            ++out.checksRun;
            if (attemptResume(engine, run, dir, refBytes, &detail) !=
                ResumeOutcome::kCorrupt) {
              out.fail("crash-corrupt-detect",
                       "snapshot truncated to " + std::to_string(cut) +
                           " bytes was not detected as corruption: " + detail);
            }
          }

          // Bit flip inside the (single-frame) snapshot: the CRC must trip.
          {
            const std::size_t pos =
                (c.faultSeed * 2654435761ull) % snapBytes.size();
            std::string damaged = snapBytes;
            damaged[pos] = static_cast<char>(
                static_cast<unsigned char>(damaged[pos]) ^
                (1u << (c.faultSeed % 8)));
            writeRaw(snapPath, damaged);
            writeRaw(logPath, logBytes);
            ++out.checksRun;
            if (attemptResume(engine, run, dir, refBytes, &detail) !=
                ResumeOutcome::kCorrupt) {
              out.fail("crash-corrupt-detect",
                       "snapshot bit flip at byte " + std::to_string(pos) +
                           " was not detected as corruption: " + detail);
            }
          }

          // Bit flip in the log: either the CRC trips (corrupt) or the flip
          // turned the final frame's length field into a longer promise —
          // a torn tail, repaired away, passes redone, bytes identical.
          if (!logBytes.empty()) {
            const std::size_t pos =
                (c.faultSeed * 2654435761ull + 7919) % logBytes.size();
            std::string damaged = logBytes;
            damaged[pos] = static_cast<char>(
                static_cast<unsigned char>(damaged[pos]) ^
                (1u << ((c.faultSeed + 3) % 8)));
            writeRaw(snapPath, snapBytes);
            writeRaw(logPath, damaged);
            ++out.checksRun;
            const ResumeOutcome outcome =
                attemptResume(engine, run, dir, refBytes, &detail);
            if (outcome != ResumeOutcome::kCorrupt &&
                outcome != ResumeOutcome::kIdentical) {
              out.fail("crash-corrupt-detect",
                       "log bit flip at byte " + std::to_string(pos) +
                           " was neither detected nor repaired: " + detail);
            }
          }
        }
      } catch (const InfeasibleError&) {
        // Cap below any feasible pass: a legal outcome.
      }
    }

    if (inScope("fleet") && c.storageCap > 0) {
      // Fleet oracles: placement is deterministic under --jobs, every
      // admitted pass executes exactly once, chip busy time partitions into
      // user service, and a mid-run chip kill never changes the plans —
      // only the placement log.
      fleet::UserStream primary;
      primary.ratio = ratio;
      primary.request.algorithm = c.algorithm;
      primary.request.scheme = c.scheme;
      primary.request.demand = std::min<std::uint64_t>(c.demand, 12);
      primary.request.storageCap = c.storageCap;
      primary.request.mixers = mixers;
      primary.weight = 2.0;
      fleet::UserStream light = primary;
      light.ratio = Ratio(std::vector<std::uint64_t>{1, 3});
      light.request.demand = 1 + c.demand % 8;
      light.weight = 1.0;
      fleet::UserStream tail = light;
      tail.request.demand = 1 + c.faultSeed % 6;
      const std::vector<fleet::UserStream> users{primary, light, tail};

      fleet::DispatcherOptions options;
      // Every chip can host every user (effective mixers >= the request's,
      // storage >= the cap that bounds any plan), so a single kill degrades
      // nothing — migration is the only legal response.
      options.chips = {{mixers, c.storageCap, 0},
                       {mixers + 1, c.storageCap + 2, 1},
                       {mixers + 2, c.storageCap + 1, 0}};
      static const char* kPolicies[] = {"fifo", "rr", "wfq"};
      options.policy = kPolicies[c.demand % 3];
      options.weights = {2.0, 1.0, 1.0};
      options.quantum = (c.faultSeed % 2 == 0) ? 0.0 : 16.0;
      options.jobs = 1;
      try {
        const fleet::FleetResult serial = fleet::dispatchFleet(users, options);
        fleet::DispatcherOptions threadedOptions = options;
        threadedOptions.jobs = 2;
        const fleet::FleetResult threaded =
            fleet::dispatchFleet(users, threadedOptions);
        ++out.checksRun;
        if (serial.toJson(true).dump() != threaded.toJson(true).dump()) {
          out.fail("fleet-jobs-identical",
                   "fleet dispatch JSON differs between --jobs 1 and 2");
        }
        // Exactly-once: each (user, passIndex) completes once, and the
        // completed count matches the plans' pass counts.
        std::set<std::pair<unsigned, std::uint64_t>> completed;
        std::uint64_t expectedPasses = 0;
        for (const fleet::UserReport& user : serial.users) {
          expectedPasses += user.plan.passes.size();
        }
        ++out.checksRun;
        bool duplicated = false;
        for (const fleet::PassRecord& record : serial.log) {
          if (!record.completed) continue;
          if (!completed.insert({record.user, record.passIndex}).second) {
            out.fail("fleet-exactly-once",
                     "pass (" + std::to_string(record.user) + ", " +
                         std::to_string(record.passIndex) +
                         ") completed more than once");
            duplicated = true;
            break;
          }
        }
        if (!duplicated && completed.size() != expectedPasses) {
          out.fail("fleet-exactly-once",
                   std::to_string(completed.size()) + " of " +
                       std::to_string(expectedPasses) +
                       " admitted passes completed");
        }
        // Conservation: completed chip time is exactly delivered service.
        std::uint64_t busy = 0;
        std::uint64_t service = 0;
        for (const fleet::ChipReport& chip : serial.chips) {
          busy += chip.busyCycles;
        }
        for (const fleet::UserReport& user : serial.users) {
          service += user.serviceCycles;
        }
        ++out.checksRun;
        if (busy != service) {
          out.fail("fleet-conservation",
                   "chip busy cycles (" + std::to_string(busy) +
                       ") != user service cycles (" +
                       std::to_string(service) + ")");
        }
        // Kill-invariance: fail one chip mid-run; the migrated run must be
        // clean (no degradation, at least one migration when the kill cuts
        // a busy chip) and its plans byte-identical to the no-kill run.
        if (serial.makespan >= 2) {
          fleet::DispatcherOptions killOptions = options;
          killOptions.kill.active = true;
          killOptions.kill.chip = static_cast<unsigned>(c.faultSeed % 3);
          killOptions.kill.cycle = serial.makespan / 2;
          const fleet::FleetResult killed =
              fleet::dispatchFleet(users, killOptions);
          ++out.checksRun;
          if (killed.degraded) {
            out.fail("fleet-migrate",
                     "kill of one chip in a fully-capable fleet degraded "
                     "the run: " +
                         killed.degradationReason);
          }
          ++out.checksRun;
          if (serial.plansJson().dump() != killed.plansJson().dump()) {
            out.fail("fleet-kill-invariant",
                     "per-user plans changed under a mid-run chip kill");
          }
        }
      } catch (const InfeasibleError&) {
        // Cap below any feasible pass: a legal outcome.
      }
    }

    if (inScope("fault")) {
      engine::RecoveryOptions options;
      options.seed = c.faultSeed;
      options.storageCap = c.storageCap;
      if (!c.faultSpec.empty()) {
        options.faults = fault::FaultSpec::parse(c.faultSpec);
      }
      const engine::RecoveryEngine recovery(options);
      const engine::RecoveryReport first = recovery.run(forest, srs);
      ++out.checksRun;
      if (first.delivered > first.demand ||
          first.shortfall != first.demand - first.delivered) {
        out.fail("recovery", "delivered/shortfall do not partition demand");
      }
      ++out.checksRun;
      if (first.roundsUsed != first.rounds.size() ||
          first.roundsUsed > first.retryBudget) {
        out.fail("recovery", "round accounting inconsistent");
      }
      // Round-trip: the recovery report must survive serialization exactly
      // (the journal stores per-pass reports as JSON records).
      ++out.checksRun;
      const std::string dumpedReport = engine::toJson(first).dump();
      if (engine::toJson(
              engine::recoveryReportFromJson(report::Json::parse(dumpedReport)))
              .dump() != dumpedReport) {
        out.fail("serialize-roundtrip",
                 "RecoveryReport JSON round-trip is not lossless");
      }
      if (c.faultSpec.empty()) {
        // Differential: a fault-free replay must reproduce the schedule
        // exactly — full delivery, no repairs, same completion cycle.
        ++out.checksRun;
        if (first.delivered != forest.demand() || !first.rounds.empty() ||
            !first.faults.empty() ||
            first.completionCycle != srs.completionTime) {
          out.fail("replay",
                   "fault-free recovery replay diverges from the schedule "
                   "(delivered " +
                       std::to_string(first.delivered) + "/" +
                       std::to_string(forest.demand()) + ", completion " +
                       std::to_string(first.completionCycle) + " vs " +
                       std::to_string(srs.completionTime) + ", " +
                       std::to_string(first.rounds.size()) + " rounds)");
        }
      } else {
        // Differential: one seed, two runs, byte-identical reports.
        const engine::RecoveryReport second = recovery.run(forest, srs);
        ++out.checksRun;
        if (engine::toJson(first).dump() != engine::toJson(second).dump()) {
          out.fail("recovery-determinism",
                   "two runs with one seed produced different reports");
        }
      }
    }
  } catch (const InfeasibleError& e) {
    ++out.checksRun;
    out.fail("exception", std::string("unguarded InfeasibleError: ") +
                              e.what());
  } catch (const std::exception& e) {
    ++out.checksRun;
    out.fail("exception", e.what());
  }
  return out;
}

FuzzCase Fuzzer::shrink(
    const FuzzCase& c, const std::function<bool(const FuzzCase&)>& stillFails,
    unsigned* stepsOut) {
  FuzzCase best = c;
  unsigned steps = 0;
  bool improved = true;
  while (improved && steps < 200) {
    improved = false;
    std::vector<FuzzCase> candidates;
    const auto propose = [&](FuzzCase v) {
      if (v.cost() < best.cost()) candidates.push_back(std::move(v));
    };
    for (std::uint64_t d :
         {std::uint64_t{1}, std::uint64_t{2}, best.demand / 2,
          best.demand - 1}) {
      if (d >= 1 && d < best.demand) {
        FuzzCase v = best;
        v.demand = d;
        propose(std::move(v));
      }
    }
    const std::uint64_t sum = std::accumulate(
        best.ratioParts.begin(), best.ratioParts.end(), std::uint64_t{0});
    if (best.ratioParts.size() > 2) {
      for (std::size_t i = 0; i + 1 < best.ratioParts.size(); ++i) {
        FuzzCase v = best;  // merge part i into its neighbour (sum preserved)
        v.ratioParts[i + 1] += v.ratioParts[i];
        v.ratioParts.erase(v.ratioParts.begin() +
                           static_cast<std::ptrdiff_t>(i));
        propose(std::move(v));
      }
    }
    if (!(best.ratioParts.size() == 2 && best.ratioParts[0] == 1)) {
      FuzzCase v = best;
      v.ratioParts = {1, sum - 1};
      propose(std::move(v));
    }
    if (sum >= 8) {
      FuzzCase v = best;  // drop one accuracy level
      v.ratioParts = {1, sum / 2 - 1};
      propose(std::move(v));
    }
    for (unsigned m : {1u, best.mixers / 2, best.mixers - 1}) {
      if (m >= 1 && m < best.mixers) {
        FuzzCase v = best;
        v.mixers = m;
        propose(std::move(v));
      }
    }
    for (unsigned cap : {0u, best.storageCap / 2}) {
      if (cap < best.storageCap) {
        FuzzCase v = best;
        v.storageCap = cap;
        propose(std::move(v));
      }
    }
    if (!best.faultSpec.empty()) {
      FuzzCase v = best;
      v.faultSpec.clear();
      propose(std::move(v));
    }
    if (best.algorithm != mixgraph::Algorithm::MM) {
      FuzzCase v = best;
      v.algorithm = mixgraph::Algorithm::MM;
      propose(std::move(v));
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const FuzzCase& a, const FuzzCase& b) {
                return a.cost() < b.cost();
              });
    for (FuzzCase& candidate : candidates) {
      ++steps;
      if (steps >= 200) break;
      if (stillFails(candidate)) {
        best = std::move(candidate);
        improved = true;
        break;
      }
    }
  }
  if (stepsOut != nullptr) *stepsOut = steps;
  return best;
}

FuzzReport Fuzzer::run() const {
  static const std::set<std::string> kScopes = {
      "all", "forest", "sched", "stream", "fault", "server", "crash",
      "fleet"};
  if (kScopes.find(options_.scope) == kScopes.end()) {
    throw std::invalid_argument(
        "Fuzzer: unknown scope \"" + options_.scope +
        "\" (all|forest|sched|stream|fault|server|crash|fleet)");
  }
  FuzzReport report;
  std::mt19937_64 rng(options_.seed);
  const auto start = std::chrono::steady_clock::now();
  std::set<std::uint64_t> shapes;
  std::vector<FuzzCase> corpus;
  for (std::uint64_t i = 0; i < options_.iterations; ++i) {
    if (options_.timeBudgetSeconds > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() >= options_.timeBudgetSeconds) {
        report.timedOut = true;
        break;
      }
    }
    FuzzCase c = (!corpus.empty() && rng() % 4 == 0)
                     ? mutate(corpus[rng() % corpus.size()], rng)
                     : generate(rng);
    const auto caseStart = std::chrono::steady_clock::now();
    const CheckResult result = runCase(c);
    const auto caseNanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - caseStart)
            .count());
    obs::count("check.fuzz.cases");
    obs::count("check.fuzz.oracle_checks", result.checksRun);
    if (obs::MetricsRegistry* m = obs::metrics()) {
      m->histogram("check.fuzz.case_nanos",
                   {100'000, 1'000'000, 10'000'000, 100'000'000})
          .observe(caseNanos);
    }
    ++report.casesRun;
    report.checksRun += result.checksRun;
    if (shapes.insert(shapeSignature(c)).second && corpus.size() < 64) {
      corpus.push_back(c);
    }
    if (!result.ok()) {
      obs::count("check.fuzz.failures");
      FuzzFinding finding;
      finding.original = c;
      finding.iteration = i;
      const std::set<std::string> names = oracleNames(result.failures);
      const auto stillFails = [this, &names](const FuzzCase& candidate) {
        const CheckResult r = runCase(candidate);
        const std::set<std::string> got = oracleNames(r.failures);
        return std::any_of(names.begin(), names.end(),
                           [&got](const std::string& n) {
                             return got.find(n) != got.end();
                           });
      };
      finding.reproducer = shrink(c, stillFails, &finding.shrinkSteps);
      finding.failures = runCase(finding.reproducer).failures;
      {
        std::string oracles;
        for (const std::string& n : oracleNames(finding.failures)) {
          if (!oracles.empty()) oracles += ",";
          oracles += n;
        }
        obs::LogLine(obs::LogLevel::kError, "check.fuzz.finding")
            .num("iteration", finding.iteration)
            .num("shrink_steps", finding.shrinkSteps)
            .str("oracles", oracles);
      }
      report.findings.push_back(std::move(finding));
    }
  }
  report.distinctShapes = shapes.size();
  return report;
}

std::string renderReport(const FuzzReport& report) {
  std::string out = "fuzz: " + std::to_string(report.casesRun) + " cases, " +
                    std::to_string(report.checksRun) + " oracle checks, " +
                    std::to_string(report.distinctShapes) +
                    " distinct forest shapes" +
                    (report.timedOut ? " (time budget hit)" : "") + "\n";
  if (report.ok()) {
    out += "fuzz: all invariants held\n";
    return out;
  }
  out += "fuzz: " + std::to_string(report.findings.size()) + " finding(s)\n";
  for (const FuzzFinding& f : report.findings) {
    out += "--- finding at iteration " + std::to_string(f.iteration) +
           " (shrunk in " + std::to_string(f.shrinkSteps) + " steps)\n";
    for (const std::string& failure : f.failures) {
      out += "    " + failure + "\n";
    }
    out += "  reproduce: " + f.reproducer.toCli() + "\n";
    out += "  seed json: " + f.reproducer.toJson().dump() + "\n";
  }
  return out;
}

}  // namespace dmf::check
