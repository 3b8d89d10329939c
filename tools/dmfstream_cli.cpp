// dmfstream — command-line front end for the droplet-streaming engine.
//
//   dmfstream plan   --ratio 2:1:1:1:1:1:9 --demand 20 [--mixers N]
//                    [--algo MM|RMA|MTCS|RSM] [--scheme MMS|SRS|OMS|GA]
//                    [--ga-pop N] [--ga-gens N] [--ga-seed S]
//                    [--gantt] [--csv]
//   dmfstream stream --ratio R --demand D --storage Q [--mixers N] [--algo A]
//                    [--inject SPEC --fault-seed N --retry-budget K]
//                    [--journal DIR [--resume]]
//   dmfstream dilute --sample a/2^d --demand D [--mixers N]
//   dmfstream chip   --ratio R --demand D [--mixers N] [--simulate] [--pins]
//                    [--wear] [--anneal]
//   dmfstream corpus [--sum L] [--min-fluids N] [--max-fluids N]
//   dmfstream fuzz   [--iters N] [--seed S] [--time-budget SECONDS]
//                    [--scope all|forest|sched|stream|fault|server|crash|fleet]
//                    [--replay JSON]
//   dmfstream fleet  --users "ratio=R,demand=D,storage=Q[,weight=W];..."
//                    [--fleet N | --chips "mixers=M,storage=Q[,dead=D];..."]
//                    [--policy fifo|rr|wfq] [--weights W1,W2,...]
//                    [--quantum Q] [--jobs N] [--kill chip=C,cycle=X]
//                    [--journal DIR] [--json [--placement] | --plans-only]
//   dmfstream serve  [--port P] [--cache-size N] [--cache-dir DIR]
//                    [--journal DIR] [--jobs N] [--drive FILE]
//                    [--policy P --weights W1,... --quantum Q]
//   dmfstream stats  (--from FILE | --port P) [--format prometheus|json]
//
// Any command also accepts --trace FILE (Chrome trace-event JSON, loadable
// in Perfetto / chrome://tracing), --metrics FILE (metrics snapshot), and
// --log-level debug|info|warn|error|off / --log-file FILE (structured
// JSON-lines logging; serve defaults to info on stderr, everything else
// to off). Any other option is an error (exit 1).
//
// Exit codes: 0 success, 1 usage error, 2 infeasible request
// (dmf::InfeasibleError — e.g. a storage cap too tight for any pass),
// 3 internal error (an invariant the library itself broke), 4 fuzz findings,
// 5 corrupt journal (a --journal/--resume or serve --journal directory whose
// committed records fail their CRC — detected, never silently repaired).
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/error_model.h"
#include "check/fuzzer.h"
#include "dmf/errors.h"
#include "dmf/parse.h"
#include "chip/contamination.h"
#include "chip/executor.h"
#include "chip/pcr_layout.h"
#include "chip/pin_mapper.h"
#include "chip/placer.h"
#include "chip/reliability.h"
#include "chip/router.h"
#include "chip/simulation.h"
#include "engine/baseline.h"
#include "engine/mdst.h"
#include "engine/multi_target.h"
#include "engine/pass_cache.h"
#include "engine/recovery.h"
#include "engine/serialize.h"
#include "engine/streaming.h"
#include "fleet/dispatcher.h"
#include "fleet/policy.h"
#include "journal/journal.h"
#include "journal/stream_runner.h"
#include "mixgraph/builders.h"
#include "obs/log.h"
#include "obs/prometheus.h"
#include "obs/scope.h"
#include "report/table.h"
#include "sched/ga_scheduler.h"
#include "sched/gantt.h"
#include "sched/schedulers.h"
#include "server/service.h"
#include "server/socket_server.h"
#include "workload/ratio_corpus.h"

namespace {

using namespace dmf;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;

  [[nodiscard]] bool has(const std::string& flag) const {
    for (const std::string& f : flags) {
      if (f == flag) return true;
    }
    return false;
  }
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    auto it = options.find(key);
    if (it == options.end()) {
      // A value-taking option passed bare ("--demand" at the end of the
      // line) must not silently fall back to a default.
      if (has(key)) {
        throw std::invalid_argument("--" + key + ": missing value");
      }
      return std::nullopt;
    }
    return it->second;
  }
  /// The option's value as a checked T (an unsigned integer type or
  /// double; dmf/parse.h), or `fallback` when the option is absent.
  template <typename T>
  [[nodiscard]] T number(const std::string& key, T fallback) const {
    const auto text = get(key);
    if (!text.has_value()) return fallback;
    if constexpr (std::is_floating_point_v<T>) {
      return readFinite(*text, "--" + key);
    } else {
      return readUnsigned<T>(*text, "--" + key);
    }
  }
};

int usage() {
  std::cerr <<
      R"(usage: dmfstream <command> [options]

commands:
  plan    schedule a droplet demand        --ratio a1:..:aN --demand D
          options: --mixers N (default: Mlb) --algo MM|RMA|MTCS|RSM
                   --scheme MMS|SRS|OMS|GA  --gantt  --csv  --json
                   --split-error EPS (worst-case CF error analysis)
                   GA tuning: --ga-pop N (population, default 32)
                   --ga-gens N (generations, default 60) --ga-seed S
  stream  multi-pass plan under a storage cap
          --ratio R --demand D --storage Q [--mixers N] [--algo A]
          [--optimize]  (search all pass sizes for minimum total cycles)
          [--jobs N]    (parallel --optimize candidate sweep; 0 = all
          cores; the default search is serial)
          [--json]      (machine-readable plan, identical for every --jobs)
          [--stats]     (pass-cache hit/miss and per-stage timings)
          fault injection + demand-driven recovery:
          [--inject split=P,eps=E,loss=P,dispense=P,electrode=P]
          [--fault-seed N (default 1; pass p uses seed N+p)]
          [--retry-budget K (repair rounds per pass, default 4)]
          [--checkpoint-every L] [--detect-latency L]
          crash-restart journal (DESIGN.md §16):
          [--journal DIR]  (journal plan + completed passes to DIR)
          [--resume]       (continue from DIR's journal; the finished
          output is byte-identical to an uninterrupted run)
          [--snapshot-every N (snapshot cadence in passes, default 8)]
          [--crash-after-pass N (test hook: hard-exit 86 after pass N
          is journaled, leaving the journal as a kill would)]
  multi   shared multi-target preparation
          --targets R1;R2;... --demands D1,D2,... [--mixers N]
          [--json]      (machine-readable shared-vs-separate comparison)
          [--stats]     (planning wall time, shared vs separate split)
  dilute  two-fluid dilution stream        --sample a/2^d --demand D
  chip    execute on a synthesized biochip --ratio R --demand D
          options: --simulate (timed routing) --pins --wear --anneal
                   --contamination (residue/wash analysis)
  corpus  describe the evaluation ratio corpus [--sum L]
          [--min-fluids N] [--max-fluids N]
  fuzz    differential-oracle fuzzing of the whole pipeline
          [--iters N (default 200)] [--seed S (default 1; deterministic)]
          [--time-budget SECONDS (0 = run all iterations)]
          [--scope all|forest|sched|stream|fault|server|crash|fleet]
          [--replay JSON]  (re-run one shrunken reproducer seed)
          exit 0 when every invariant held, 4 with findings (each printed
          as a ready-to-paste --replay invocation plus its JSON seed)
  fleet   multi-tenant dispatch of several users' streams over a fleet of
          simulated chips (DESIGN.md §17)
          --users "ratio=R,demand=D,storage=Q[,weight=W][,mixers=N]
                   [,algo=A][,scheme=S][,optimize];..."  (one entry per user)
          [--fleet N (default 4: deterministic heterogeneous chips)]
          [--chips "mixers=M,storage=Q[,dead=D];..." (explicit fleet)]
          [--policy fifo|rr|wfq (default fifo)]
          [--weights W1,W2,... (override per-user weights)]
          [--quantum Q (wfq service quantum in cycles)]
          [--jobs N (planning fan-out; output identical for every N)]
          [--kill chip=C,cycle=X (fail chip C mid-run; aborted passes
          migrate via journal-checkpoint replay)]
          [--journal DIR (durable per-user pass journals)]
          [--json (full result) --placement (include the placement log)]
          [--plans-only (just the per-user plans — byte-identical with
          and without --kill)]
  serve   plan-as-a-service daemon: line-delimited JSON over a local
          TCP socket (127.0.0.1), with a canonical plan cache
          [--port P (default 0 = ephemeral; bound port goes to stderr)]
          [--cache-size N (in-memory plans kept, default 256)]
          [--cache-dir DIR (persistent cache tier; survives restarts)]
          [--journal DIR (write-ahead log of admitted plan requests;
          unacknowledged ones replay on restart — pair with --cache-dir
          so replays resolve from the disk tier)]
          [--jobs N (concurrent plan computations; 0 = all cores;
          responses are byte-identical for every N)]
          [--drive FILE (send FILE's request lines, print responses to
          stdout, then exit — for tests and scripting)]
          [--policy fifo|rr|wfq (order in which cache misses waiting for
          a --jobs slot are granted; default fifo = arrival order; each
          connection is one user)]
          [--weights W1,... (user-slot weights; connection ids fold onto
          them, default 16 equal slots) --quantum Q (wfq service quantum)]
          requests: {"op":"plan","ratio":"2:1:1:1:1:1:9","demand":20,
          "storage":4} plus optional algo/scheme/mixers/optimize; other
          ops: ping, stats, shutdown
  stats   render a metrics snapshot in Prometheus text exposition format
          (counters as _total, histograms as cumulative _bucket series
          plus derived p50/p95/p99 gauges)
          --from FILE  (a --metrics snapshot written by any command)
          --port P     (scrape a live `dmfstream serve` daemon's stats op)
          [--format prometheus|json (default prometheus)]

global options (any command):
  --trace FILE    write a Chrome trace-event JSON (open in Perfetto or
                  chrome://tracing); spans cover forest build, scheduling,
                  storage counting, streaming passes, worker tasks, and
                  chip-executor batches; every span carries trace/span/
                  parent ids, so one server request reads as one tree
  --metrics FILE  write a JSON snapshot of all counters, gauges, and
                  histograms collected during the run
  --log-level L   structured JSON-lines logging threshold:
                  debug|info|warn|error|off (serve defaults to info,
                  every other command to off)
  --log-file F    log sink (default stderr); one JSON object per line
)";
  return 1;
}

/// The options each command reads, beside the global ones usage() lists.
/// dispatch() rejects any other before the command runs, so a misspelled
/// option fails instead of silently taking its default.
const std::map<std::string, std::set<std::string>>& commandOptions() {
  static const std::map<std::string, std::set<std::string>> table = {
      {"plan",
       {"ratio", "demand", "mixers", "algo", "scheme", "gantt", "csv", "json",
        "split-error", "ga-pop", "ga-gens", "ga-seed"}},
      {"stream",
       {"ratio", "demand", "storage", "mixers", "algo", "optimize", "jobs",
        "json", "stats", "inject", "fault-seed", "retry-budget",
        "checkpoint-every", "detect-latency", "journal", "resume",
        "snapshot-every", "crash-after-pass"}},
      {"multi", {"targets", "demands", "mixers", "json", "stats"}},
      {"dilute",
       {"sample", "demand", "mixers", "algo", "scheme", "gantt", "csv", "json",
        "split-error", "ga-pop", "ga-gens", "ga-seed"}},
      {"chip",
       {"ratio", "demand", "mixers", "algo", "simulate", "pins", "wear",
        "anneal", "contamination"}},
      {"corpus", {"sum", "min-fluids", "max-fluids"}},
      {"fuzz", {"iters", "seed", "time-budget", "scope", "replay"}},
      {"fleet",
       {"users", "fleet", "chips", "policy", "weights", "quantum", "jobs",
        "kill", "journal", "json", "placement", "plans-only"}},
      {"serve",
       {"port", "cache-size", "cache-dir", "journal", "jobs", "drive",
        "policy", "weights", "quantum"}},
      {"stats", {"from", "port", "format"}},
  };
  return table;
}

void requireKnownOptions(const Args& args,
                         const std::set<std::string>& accepted) {
  static const std::set<std::string> global = {"trace", "metrics",
                                               "log-level", "log-file"};
  const auto check = [&](const std::string& key) {
    if (accepted.count(key) == 0 && global.count(key) == 0) {
      throw std::invalid_argument("unknown option --" + key + " for " +
                                  args.command);
    }
  };
  for (const auto& [key, value] : args.options) check(key);
  for (const std::string& flag : args.flags) check(flag);
}

Args parse(int argc, char** argv) {
  Args args;
  if (argc < 2) return args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + token + "'");
    }
    token = token.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[token] = argv[++i];
    } else {
      args.flags.push_back(token);
    }
  }
  return args;
}

Ratio requireRatio(const Args& args) {
  const auto text = args.get("ratio");
  if (!text.has_value()) {
    throw std::invalid_argument("--ratio is required (e.g. 2:1:1:1:1:1:9)");
  }
  auto ratio = Ratio::parse(*text);
  if (!ratio.has_value()) {
    throw std::invalid_argument("--ratio: malformed '" + *text + "'");
  }
  return *ratio;
}

mixgraph::Algorithm parseAlgo(const Args& args) {
  try {
    return server::parseAlgorithm(args.get("algo").value_or("MM"));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("--algo: ") + e.what());
  }
}

sched::Schedule makeSchedule(const forest::TaskForest& forest,
                             const std::string& scheme, unsigned mixers,
                             const Args& args) {
  if (scheme == "MMS") return sched::scheduleMMS(forest, mixers);
  if (scheme == "SRS") return sched::scheduleSRS(forest, mixers);
  if (scheme == "OMS") return sched::scheduleOMS(forest, mixers);
  if (scheme == "GA") {
    sched::GaOptions options;
    options.population = args.number<unsigned>("ga-pop", options.population);
    options.generations = args.number<unsigned>("ga-gens", options.generations);
    options.seed = args.number<std::uint64_t>("ga-seed", options.seed);
    return sched::scheduleGA(forest, mixers, options);
  }
  throw std::invalid_argument("--scheme: unknown scheme '" + scheme + "'");
}

int cmdPlan(const Args& args, const Ratio& ratio) {
  engine::MdstEngine engine(ratio);
  const std::uint64_t demand = args.number<std::uint64_t>("demand", 2);
  const auto mixers = args.number<unsigned>("mixers", engine.defaultMixers());
  const std::string scheme = args.get("scheme").value_or("SRS");

  const forest::TaskForest forest = engine.buildForest(parseAlgo(args), demand);
  const sched::Schedule schedule = makeSchedule(forest, scheme, mixers, args);
  sched::validateOrThrow(forest, schedule);
  const unsigned storage = sched::countStorage(forest, schedule);

  report::Table table({"metric", "value"});
  table.addRow({"ratio", ratio.toString()});
  table.addRow({"accuracy d", std::to_string(ratio.accuracy())});
  table.addRow({"demand D", std::to_string(demand)});
  table.addRow({"scheme", scheme});
  table.addRow({"mixers Mc", std::to_string(mixers)});
  table.addRow({"component trees |F|",
                std::to_string(forest.stats().componentTrees)});
  table.addRow({"mix-splits Tms", std::to_string(forest.stats().mixSplits)});
  table.addRow({"completion Tc", std::to_string(schedule.completionTime)});
  table.addRow({"storage units q", std::to_string(storage)});
  table.addRow({"input droplets I", std::to_string(forest.stats().inputTotal)});
  table.addRow({"waste droplets W", std::to_string(forest.stats().waste)});
  if (args.has("json")) {
    std::cout << engine::toJson(forest, schedule).dump(2);
    return 0;
  }
  if (args.get("split-error").has_value()) {
    const double eps = args.number<double>("split-error", 0.0);
    const analysis::NodeError err = analysis::targetError(
        engine.baseGraph(parseAlgo(args)), analysis::ErrorOptions{eps, 0.0});
    table.addRow({"worst CF error @eps=" + *args.get("split-error"),
                  report::fixed(err.worstConcentration, 5)});
    table.addRow({"quantization error",
                  report::fixed(analysis::quantizationError(
                                    engine.baseGraph(parseAlgo(args))),
                                5)});
  }
  std::cout << (args.has("csv") ? table.toCsv() : table.render());
  if (args.has("gantt")) {
    std::cout << "\n" << sched::renderGantt(forest, schedule);
  }
  return 0;
}

/// The SRS refinement counters of the active obs session (DESIGN.md §15).
report::Json srsRefinementJson() {
  obs::MetricsRegistry* m = obs::metrics();
  auto value = [m](const char* name) {
    return m == nullptr ? std::uint64_t{0} : m->counter(name).value();
  };
  report::Json out = report::Json::object();
  out.set("capsScanned", value("sched.srs.caps_scanned"))
      .set("cappedRuns", value("sched.srs.capped_runs"))
      .set("candidatesAdopted", value("sched.srs.candidates_adopted"));
  return out;
}

int cmdStream(const Args& args, const Ratio& ratio) {
  engine::MdstEngine engine(ratio);
  journal::StreamRunRequest run;
  run.streaming.algorithm = parseAlgo(args);
  run.streaming.demand = args.number<std::uint64_t>("demand", 2);
  run.streaming.storageCap = args.number<unsigned>("storage", 5);
  run.streaming.mixers = args.number<unsigned>("mixers", 0);
  run.streaming.jobs = args.number<unsigned>("jobs", 1);
  run.optimize = args.has("optimize");

  // --inject replays every pass against the seeded fault model with
  // demand-driven repair. Pass p uses seed (--fault-seed + p); the whole
  // replay is serial, so the output is identical for every --jobs value —
  // and, because every pass is independently seeded, identical whether the
  // run was interrupted and resumed or ran straight through.
  if (args.get("inject").has_value()) {
    run.inject = true;
    run.faults = fault::FaultSpec::parse(*args.get("inject"));
    run.faultSeed = args.number<std::uint64_t>("fault-seed", 1);
    run.retryBudget = args.number<unsigned>("retry-budget", run.retryBudget);
    run.checkpointEvery = args.number<unsigned>("checkpoint-every", 1);
    run.detectLatency = args.number<unsigned>("detect-latency", 0);
  }

  journal::StreamRunOptions journalOptions;
  journalOptions.journalDir = args.get("journal").value_or("");
  journalOptions.resume = args.has("resume");
  journalOptions.snapshotEvery =
      args.number<unsigned>("snapshot-every", journalOptions.snapshotEvery);
  journalOptions.stopAfterPass =
      args.number<std::uint64_t>("crash-after-pass", 0);

  // --stats also reports the SRS refinement counters, which live in the obs
  // registry: without a --trace/--metrics session, collect them in a
  // metrics-only one.
  obs::Session statsSession;
  statsSession.traceEnabled = false;
  std::optional<obs::Scope> statsScope;
  if (args.has("stats") && !obs::enabled()) statsScope.emplace(statsSession);

  engine::PassCache cache;
  const journal::StreamRunResult result =
      journal::runStream(engine, run, cache, journalOptions);
  if (result.partial) {
    // The crash hook simulates a hard kill: no flushes, no destructors —
    // only what the journal already fsync'd survives, which is the point.
    std::cerr << "crash hook: exiting after " << journalOptions.stopAfterPass
              << " journaled pass(es)\n";
    std::_Exit(86);
  }
  const engine::StreamingPlan& plan = result.plan;
  const std::vector<engine::RecoveryReport>& recovery = result.recovery;

  if (args.has("json")) {
    report::Json out = engine::toJson(plan);
    if (!recovery.empty()) {
      report::Json runs = report::Json::array();
      for (const engine::RecoveryReport& r : recovery) {
        runs.push(engine::toJson(r));
      }
      out.set("recovery", std::move(runs));
    }
    if (args.has("stats")) {
      // Stats are nondeterministic (wall times; the parallel --optimize
      // sweep shifts the hit/bound-reject split), so they only join the JSON
      // on explicit request — the default plan JSON is byte-identical for
      // every --jobs.
      out.set("passCache", engine::toJson(cache.stats()));
      out.set("srsRefinement", srsRefinementJson());
    }
    std::cout << out.dump(2);
    return 0;
  }

  report::Table table({"pass", "demand", "cycles", "storage", "waste",
                       "input"});
  for (std::size_t p = 0; p < plan.passes.size(); ++p) {
    const engine::StreamingPass& pass = plan.passes[p];
    table.addRow({std::to_string(p + 1), std::to_string(pass.demand),
                  std::to_string(pass.cycles),
                  std::to_string(pass.storageUnits),
                  std::to_string(pass.waste),
                  std::to_string(pass.inputDroplets)});
  }
  std::cout << table.render() << "total: " << plan.passes.size()
            << " passes, " << plan.totalCycles << " cycles, "
            << plan.totalWaste << " waste, " << plan.totalInput
            << " input droplets (storage cap " << run.streaming.storageCap
            << ", peak " << plan.storageUnits << ")\n";
  if (!recovery.empty()) {
    report::Table faultTable({"pass", "delivered", "shortfall", "faults",
                              "repairs", "extra mix-splits", "cycles"});
    std::uint64_t delivered = 0;
    std::uint64_t shortfall = 0;
    std::uint64_t faults = 0;
    std::uint64_t extraMixSplits = 0;
    bool degraded = false;
    for (std::size_t p = 0; p < recovery.size(); ++p) {
      const engine::RecoveryReport& r = recovery[p];
      faultTable.addRow(
          {std::to_string(p + 1),
           std::to_string(r.delivered) + "/" + std::to_string(r.demand),
           std::to_string(r.shortfall), std::to_string(r.faults.size()),
           std::to_string(r.roundsUsed), std::to_string(r.extraMixSplits),
           std::to_string(r.completionCycle)});
      delivered += r.delivered;
      shortfall += r.shortfall;
      faults += r.faults.size();
      extraMixSplits += r.extraMixSplits;
      degraded = degraded || r.degraded;
    }
    std::cout << "\nfault injection (--inject "
              << *args.get("inject") << ", seed "
              << run.faultSeed << "):\n"
              << faultTable.render() << "recovered " << delivered << "/"
              << (delivered + shortfall) << " targets, " << faults
              << " faults, " << extraMixSplits << " extra mix-splits";
    if (degraded) {
      std::cout << " — DEGRADED";
      for (const engine::RecoveryReport& r : recovery) {
        if (r.degraded) {
          std::cout << " (" << r.degradationReason << ")";
          break;
        }
      }
    }
    std::cout << "\n";
  }
  if (args.has("stats")) {
    const engine::PassCacheStats stats = cache.stats();
    std::cout << "pass cache: " << stats.hits << " hits, " << stats.misses
              << " misses, " << stats.boundRejects
              << " bound rejects; stage times (ms): forest "
              << report::fixed(static_cast<double>(stats.buildNanos) / 1e6, 2)
              << ", schedule "
              << report::fixed(
                     static_cast<double>(stats.scheduleNanos) / 1e6, 2)
              << ", storage count "
              << report::fixed(
                     static_cast<double>(stats.storageNanos) / 1e6, 2)
              << "\n";
    const report::Json srs = srsRefinementJson();
    std::cout << "srs refinement: " << srs.at("capsScanned").asUint()
              << " caps scanned, " << srs.at("cappedRuns").asUint()
              << " capped runs, " << srs.at("candidatesAdopted").asUint()
              << " candidates adopted\n";
  }
  return 0;
}

int cmdDilute(const Args& args) {
  const auto text = args.get("sample");
  if (!text.has_value()) {
    throw std::invalid_argument("--sample is required (e.g. 5/2^4)");
  }
  const auto slash = text->find("/2^");
  if (slash == std::string::npos) {
    throw std::invalid_argument("--sample: expected a/2^d, got '" + *text +
                                "'");
  }
  const auto numerator =
      readUnsigned<std::uint64_t>(text->substr(0, slash), "--sample a");
  const auto accuracy = readUnsigned<unsigned>(text->substr(slash + 3),
                                               "--sample d");
  const mixgraph::MixingGraph graph =
      mixgraph::buildDilution(numerator, accuracy);
  Args planArgs = args;
  planArgs.options["ratio"] = graph.ratio().toString();
  return cmdPlan(planArgs, graph.ratio());
}

int cmdChip(const Args& args, const Ratio& ratio) {
  engine::MdstEngine engine(ratio);
  const std::uint64_t demand = args.number<std::uint64_t>("demand", 2);
  const auto mixers = args.number<unsigned>("mixers", engine.defaultMixers());
  const forest::TaskForest forest =
      engine.buildForest(parseAlgo(args), demand);
  const sched::Schedule schedule = sched::scheduleSRS(forest, mixers);
  const unsigned storage = sched::countStorage(forest, schedule);

  chip::Layout layout = chip::synthesizeLayout(
      ratio.fluidCount(), mixers, std::max(storage, 1u));
  chip::Router router(layout);
  chip::ChipExecutor executor(layout, router);
  chip::ExecutionTrace trace = executor.run(forest, schedule);

  if (args.has("anneal")) {
    const chip::FlowMatrix flow =
        chip::flowFromTrace(trace, layout.moduleCount());
    layout = chip::annealPlacement(layout, flow);
    chip::Router annealedRouter(layout);
    chip::ChipExecutor annealedExecutor(layout, annealedRouter);
    trace = annealedExecutor.run(forest, schedule);
  }

  std::cout << "layout (" << layout.width() << "x" << layout.height()
            << "):\n"
            << layout.render() << "\nBFS-priced transport cost: "
            << trace.totalCost << " electrode actuations\n";

  if (args.has("simulate") || args.has("pins") || args.has("contamination")) {
    const chip::SimulationResult sim = chip::simulateTrace(layout, trace);
    std::cout << "timed simulation: " << sim.totalActuations
              << " actuations over " << sim.totalSteps
              << " routing steps (longest phase " << sim.maxPhaseMakespan
              << ")\n";
    if (args.has("contamination")) {
      const chip::ContaminationReport report =
          chip::analyzeContamination(layout, sim);
      std::cout << "contamination: " << report.sharedCells
                << " shared cells, " << report.contaminatedReuses
                << " dirty reuses, ~" << report.washDroplets
                << " wash droplets needed\n"
                << chip::renderContamination(layout, sim);
    }
    if (args.has("pins")) {
      const chip::ActuationMatrix matrix(layout, sim);
      const chip::PinAssignment pins = chip::assignPins(matrix);
      std::cout << "broadcast addressing: " << pins.pinCount()
                << " control pins for "
                << matrix.electrodeCount() - pins.idleElectrodes
                << " constrained electrodes (plus " << pins.idleElectrodes
                << " idle)\n";
    }
  }
  if (args.has("wear")) {
    const chip::WearReport wear = chip::analyzeWear(trace);
    std::cout << "wear: peak " << wear.peak << " actuations, imbalance "
              << report::fixed(wear.imbalance, 2) << ", ~"
              << wear.workloadsToBudget
              << " workloads to the dielectric budget\n"
              << chip::renderHeatMap(trace);
  }
  return 0;
}

int cmdMulti(const Args& args) {
  const auto targetsText = args.get("targets");
  const auto demandsText = args.get("demands");
  if (!targetsText.has_value() || !demandsText.has_value()) {
    throw std::invalid_argument(
        "multi needs --targets R1;R2;... and --demands D1,D2,...");
  }
  std::vector<engine::TargetDemand> targets;
  const auto ratios = splitList(*targetsText, ';', "--targets");
  const auto demands = splitList(*demandsText, ',', "--demands");
  if (ratios.size() != demands.size() || ratios.empty()) {
    throw std::invalid_argument(
        "multi: --targets and --demands must list the same number of items");
  }
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    const auto ratio = Ratio::parse(ratios[i]);
    if (!ratio.has_value()) {
      throw std::invalid_argument("multi: malformed ratio '" + ratios[i] +
                                  "'");
    }
    targets.push_back(
        {*ratio, readUnsigned<std::uint64_t>(demands[i], "--demands")});
  }
  const auto planStart = std::chrono::steady_clock::now();
  const engine::MultiTargetResult r = engine::runMultiTarget(
      targets, engine::Scheme::kSRS, args.number<unsigned>("mixers", 0));
  const auto planNanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - planStart)
          .count());
  if (args.has("json")) {
    report::Json out = engine::toJson(r);
    if (args.has("stats")) {
      // Wall time is run-to-run nondeterministic, so it only joins the JSON
      // on explicit request — the default output is byte-stable.
      out.set("planNanos", report::Json::number(planNanos));
    }
    std::cout << out.dump(2);
    return 0;
  }
  report::Table table({"metric", "shared forest", "separate engines"});
  table.addRow({"completion Tc", std::to_string(r.completionTime),
                std::to_string(r.separateCompletionTime)});
  table.addRow({"storage q", std::to_string(r.storageUnits),
                std::to_string(r.separateStorageUnits)});
  table.addRow({"input droplets I", std::to_string(r.inputDroplets),
                std::to_string(r.separateInputDroplets)});
  table.addRow({"waste W", std::to_string(r.waste),
                std::to_string(r.separateWaste)});
  std::cout << table.render() << "(" << targets.size()
            << " targets on " << r.mixers << " mixers)\n";
  if (args.has("stats")) {
    std::cout << "planned in "
              << report::fixed(static_cast<double>(planNanos) / 1e6, 2)
              << " ms";
    if (obs::MetricsRegistry* m = obs::metrics()) {
      std::cout
          << " (shared forest "
          << report::fixed(static_cast<double>(
                               m->counter("engine.multi_target.shared_nanos")
                                   .value()) /
                               1e6,
                           2)
          << " ms, separate baseline "
          << report::fixed(static_cast<double>(
                               m->counter("engine.multi_target.separate_nanos")
                                   .value()) /
                               1e6,
                           2)
          << " ms)";
    }
    std::cout << "\n";
  }
  return 0;
}

int cmdFuzz(const Args& args) {
  check::FuzzOptions options;
  options.seed = args.number<std::uint64_t>("seed", 1);
  options.iterations = args.number<std::uint64_t>("iters", 200);
  options.timeBudgetSeconds = args.number<double>("time-budget", 0.0);
  options.scope = args.get("scope").value_or("all");
  const check::Fuzzer fuzzer(options);

  if (const auto seedJson = args.get("replay"); seedJson.has_value()) {
    const check::FuzzCase c =
        check::FuzzCase::fromJson(report::Json::parse(*seedJson));
    const check::CheckResult result = fuzzer.runCase(c);
    std::cout << "replay: " << c.toJson().dump() << "\n"
              << "replay: " << result.checksRun << " oracle checks\n";
    if (result.ok()) {
      std::cout << "replay: all invariants held\n";
      return 0;
    }
    std::cout << result.summary();
    return 4;
  }

  const check::FuzzReport report = fuzzer.run();
  std::cout << check::renderReport(report);
  return report.ok() ? 0 : 4;
}

// Multi-tenant fleet dispatch (DESIGN.md §17): plan every user's stream,
// then shard the passes across N simulated chips under an arbitration
// policy. Output is byte-identical for every --jobs value; the per-user
// plans (--plans-only) are additionally byte-identical across a --kill.
int cmdFleet(const Args& args) {
  const auto usersSpec = args.get("users");
  if (!usersSpec.has_value()) {
    throw std::invalid_argument(
        "fleet needs --users \"ratio=...,demand=...,storage=...;...\"");
  }
  std::vector<fleet::UserStream> users = fleet::parseUsers(*usersSpec);

  fleet::DispatcherOptions options;
  if (const auto chips = args.get("chips"); chips.has_value()) {
    options.chips = fleet::parseChips(*chips);
  } else {
    options.chips = fleet::defaultFleet(args.number<unsigned>("fleet", 4));
  }
  options.policy = args.get("policy").value_or("fifo");
  if (const auto weights = args.get("weights"); weights.has_value()) {
    options.weights = fleet::parseWeights(*weights);
  }
  options.quantum = args.number<double>("quantum", 0.0);
  options.jobs = args.number<unsigned>("jobs", 1);
  options.journalDir = args.get("journal").value_or("");
  if (const auto kill = args.get("kill"); kill.has_value()) {
    options.kill = fleet::parseKill(*kill);
  }

  const fleet::FleetResult result = fleet::dispatchFleet(users, options);

  if (args.has("plans-only")) {
    std::cout << result.plansJson().dump(2) << "\n";
    return 0;
  }
  if (args.has("json")) {
    std::cout << result.toJson(args.has("placement")).dump(2) << "\n";
    return 0;
  }

  report::Table userTable(
      {"user", "weight", "passes", "service cycles", "migrated", "unplaced"});
  for (std::size_t u = 0; u < result.users.size(); ++u) {
    const fleet::UserReport& user = result.users[u];
    std::ostringstream weight;
    weight << user.weight;
    userTable.addRow({std::to_string(u), weight.str(),
                      std::to_string(user.passesExecuted),
                      std::to_string(user.serviceCycles),
                      std::to_string(user.migratedPasses),
                      std::to_string(user.unplacedPasses)});
  }
  report::Table chipTable(
      {"chip", "mixers", "storage", "busy cycles", "passes", "state"});
  for (std::size_t c = 0; c < result.chips.size(); ++c) {
    const fleet::ChipReport& chip = result.chips[c];
    chipTable.addRow(
        {std::to_string(c), std::to_string(chip.spec.effectiveMixers()),
         std::to_string(chip.spec.storageCap),
         std::to_string(chip.busyCycles), std::to_string(chip.passesCompleted),
         chip.failed ? "failed@" + std::to_string(chip.failedAtCycle) : "ok"});
  }
  std::cout << userTable.render() << "\n"
            << chipTable.render() << "\npolicy " << result.policy
            << ", makespan " << result.makespan << " cycles, migrations "
            << result.migrations << ", Jain index "
            << std::llround(result.jainIndex() * 1000.0) << "/1000\n";
  if (result.degraded) {
    std::cout << "degraded: " << result.degradationReason << "\n";
  }
  return 0;
}

// Self-pipe for SIGINT/SIGTERM: the handler only writes the signal number
// to a pipe; a watcher thread does the actual (non-async-signal-safe)
// graceful shutdown. File-scope because signal handlers take no closure.
int g_signalPipe[2] = {-1, -1};

extern "C" void onServeSignal(int signo) {
  const char byte = static_cast<char>(signo);
  // A full pipe or closed read end just drops the wakeup; the first byte
  // through is what triggers the drain.
  (void)!::write(g_signalPipe[1], &byte, 1);
}

int cmdServe(const Args& args) {
  const auto port = args.number<std::uint16_t>("port", 0);
  // The daemon always keeps a live metrics registry so `dmfstream stats
  // --port P` can scrape it. Without --trace/--metrics (no session from
  // main()) the session is metrics-only: counters are bounded, whereas
  // trace events would accumulate for the daemon's whole lifetime.
  std::unique_ptr<obs::Session> session;
  std::unique_ptr<obs::Scope> scope;
  if (!obs::enabled()) {
    session = std::make_unique<obs::Session>();
    session->traceEnabled = false;
    scope = std::make_unique<obs::Scope>(*session);
  }
  server::ServiceOptions options;
  options.cacheSize = args.number<std::size_t>("cache-size", 256);
  options.cacheDir = args.get("cache-dir").value_or("");
  options.journalDir = args.get("journal").value_or("");
  options.jobs = args.number<unsigned>("jobs", 1);
  // Admission arbitration with per-connection user identity (DESIGN.md §17).
  options.fleetPolicy = args.get("policy").value_or("fifo");
  if (const auto weights = args.get("weights"); weights.has_value()) {
    options.fleetWeights = fleet::parseWeights(*weights);
  }
  options.fleetQuantum = args.number<double>("quantum", 0.0);
  server::PlanService service(options);
  // Requests a previous daemon admitted but never finished replay before
  // the socket opens, so their plans are cached before any client retries.
  (void)service.replayJournal();
  server::SocketServer socket(service, server::SocketServerOptions{port});
  // The bound port goes to stderr: ephemeral ports differ run to run, and
  // stdout must stay byte-deterministic (the serve smoke test diffs it).
  std::cerr << "listening on 127.0.0.1:" << socket.port() << "\n";

  if (const auto drivePath = args.get("drive"); drivePath.has_value()) {
    std::ifstream in(*drivePath);
    if (!in) {
      throw std::invalid_argument("--drive: cannot read '" + *drivePath + "'");
    }
    std::thread serverThread([&socket] { socket.run(); });
    const bool ok = server::driveLines(socket.port(), in, std::cout);
    socket.stop();
    serverThread.join();
    if (!ok) {
      throw std::runtime_error("serve --drive: connection to 127.0.0.1:" +
                               std::to_string(socket.port()) + " failed");
    }
    return 0;
  }
  // Graceful SIGINT/SIGTERM: stop accepting, drain in-flight connections
  // (SocketServer::run joins them), then emit the shutdown summary. The
  // handler itself only pokes the self-pipe; the watcher thread runs the
  // shutdown, keeping the handler async-signal-safe.
  if (::pipe(g_signalPipe) != 0) {
    throw std::runtime_error("serve: cannot create signal pipe");
  }
  struct sigaction action {};
  action.sa_handler = onServeSignal;
  sigemptyset(&action.sa_mask);
  struct sigaction oldInt {}, oldTerm {};
  sigaction(SIGINT, &action, &oldInt);
  sigaction(SIGTERM, &action, &oldTerm);

  std::atomic<int> caughtSignal{0};
  std::thread watcher([&socket, &caughtSignal] {
    char byte = 0;
    while (::read(g_signalPipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    if (byte != 0) {  // 0 is the internal wakeup after a clean shutdown op
      caughtSignal.store(byte, std::memory_order_relaxed);
      socket.stop();
    }
  });

  socket.run();  // blocks until stop(), a {"op":"shutdown"} request, or a signal

  const char wake = 0;
  (void)!::write(g_signalPipe[1], &wake, 1);
  watcher.join();
  sigaction(SIGINT, &oldInt, nullptr);
  sigaction(SIGTERM, &oldTerm, nullptr);
  ::close(g_signalPipe[0]);
  ::close(g_signalPipe[1]);

  if (const int signo = caughtSignal.load(std::memory_order_relaxed)) {
    // The shutdown *op* logs its own summary in the service; the signal
    // path owns it here, after the drain, so the counters are final.
    obs::LogLine(obs::LogLevel::kInfo, "server.signal")
        .str("signal", signo == SIGTERM ? "SIGTERM" : "SIGINT");
    service.logShutdown();
  }
  return 0;
}

int cmdStats(const Args& args) {
  const std::string format = args.get("format").value_or("prometheus");
  if (format != "prometheus" && format != "json") {
    throw std::invalid_argument("--format: expected prometheus|json, got '" +
                                format + "'");
  }
  report::Json snapshot = report::Json::object();
  if (const auto from = args.get("from"); from.has_value()) {
    std::ifstream in(*from, std::ios::binary);
    if (!in) {
      throw std::invalid_argument("--from: cannot read '" + *from + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    snapshot = report::Json::parse(buffer.str());
  } else if (args.get("port").has_value()) {
    const auto port = args.number<std::uint16_t>("port", 0);
    if (port == 0) {
      throw std::invalid_argument("--port: must be 1..65535, got 0");
    }
    std::istringstream request("{\"op\":\"stats\"}\n");
    std::ostringstream response;
    if (!server::driveLines(port, request, response)) {
      throw std::runtime_error("stats: connection to 127.0.0.1:" +
                               std::to_string(port) + " failed");
    }
    std::string line = response.str();
    if (const auto newline = line.find('\n'); newline != std::string::npos) {
      line.resize(newline);
    }
    const report::Json reply = report::Json::parse(line);
    if (!reply.contains("ok") || !reply.at("ok").asBool()) {
      throw std::runtime_error("stats: daemon replied with an error: " + line);
    }
    if (!reply.contains("metrics")) {
      throw std::runtime_error(
          "stats: the daemon reported no metrics section");
    }
    snapshot = reply.at("metrics");
  } else {
    throw std::invalid_argument(
        "stats needs --from FILE (a --metrics snapshot) or --port P (a live "
        "serve daemon)");
  }
  if (format == "json") {
    std::cout << snapshot.dump(2) << "\n";
    return 0;
  }
  std::cout << obs::prometheusText(snapshot);
  return 0;
}

int cmdCorpus(const Args& args) {
  const std::uint64_t sum = args.number<std::uint64_t>("sum", 32);
  const auto minN = args.number<std::size_t>("min-fluids", 2);
  const auto maxN = args.number<std::size_t>("max-fluids", 12);
  const auto corpus = workload::partitionCorpus(sum, minN, maxN);
  report::Table table({"fluids N", "ratios"});
  std::map<std::size_t, std::size_t> byN;
  for (const Ratio& r : corpus) ++byN[r.fluidCount()];
  for (const auto& [n, count] : byN) {
    table.addRow({std::to_string(n), std::to_string(count)});
  }
  std::cout << table.render() << "total: " << corpus.size()
            << " target ratios with sum " << sum << "\n";
  return 0;
}

// Rejects output paths whose parent directory does not exist, before the
// command runs — a typo'd --trace path must not cost a full planning run.
void requireWritableParent(const std::string& key, const std::string& path) {
  namespace fs = std::filesystem;
  if (path.empty()) {
    throw std::invalid_argument("--" + key + ": empty path");
  }
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty() && !fs::is_directory(parent)) {
    throw std::invalid_argument("--" + key + ": directory '" +
                                parent.string() + "' does not exist");
  }
}

void writeTextFile(const std::string& key, const std::string& path,
                   const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content << "\n";
  if (!out) {
    throw std::invalid_argument("--" + key + ": cannot write '" + path + "'");
  }
}

int dispatch(const Args& args) {
  const auto accepted = commandOptions().find(args.command);
  if (accepted == commandOptions().end()) return usage();
  requireKnownOptions(args, accepted->second);
  if (args.command == "plan") return cmdPlan(args, requireRatio(args));
  if (args.command == "stream") return cmdStream(args, requireRatio(args));
  if (args.command == "multi") return cmdMulti(args);
  if (args.command == "dilute") return cmdDilute(args);
  if (args.command == "chip") return cmdChip(args, requireRatio(args));
  if (args.command == "corpus") return cmdCorpus(args);
  if (args.command == "fuzz") return cmdFuzz(args);
  if (args.command == "fleet") return cmdFleet(args);
  if (args.command == "serve") return cmdServe(args);
  if (args.command == "stats") return cmdStats(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    const std::optional<std::string> tracePath = args.get("trace");
    const std::optional<std::string> metricsPath = args.get("metrics");
    if (tracePath.has_value()) requireWritableParent("trace", *tracePath);
    if (metricsPath.has_value()) requireWritableParent("metrics", *metricsPath);

    // Structured logging: serve defaults to info (its shutdown summary and
    // repair splices matter operationally); every other command defaults to
    // off, keeping the disabled path near-free and stdout untouched (logs
    // go to stderr or --log-file).
    const std::string defaultLevel =
        args.command == "serve" ? "info" : "off";
    obs::LogLevel logLevel;
    try {
      logLevel = obs::parseLogLevel(args.get("log-level").value_or(defaultLevel));
    } catch (const std::exception& e) {
      throw std::invalid_argument(std::string("--log-level: ") + e.what());
    }
    const std::optional<std::string> logPath = args.get("log-file");
    if (logPath.has_value()) requireWritableParent("log-file", *logPath);
    std::unique_ptr<obs::Logger> logger;
    std::unique_ptr<obs::LogScope> logScope;
    if (logLevel != obs::LogLevel::kOff) {
      obs::Logger::Options logOptions;
      logOptions.level = logLevel;
      logOptions.path = logPath.value_or("");
      logger = std::make_unique<obs::Logger>(logOptions);
      logScope = std::make_unique<obs::LogScope>(*logger);
    }

    // Observability is off (and near-free) unless one of the sinks was
    // requested; the planner's output is byte-identical either way.
    std::unique_ptr<obs::Session> session;
    std::unique_ptr<obs::Scope> scope;
    if (tracePath.has_value() || metricsPath.has_value()) {
      session = std::make_unique<obs::Session>();
      scope = std::make_unique<obs::Scope>(*session);
    }

    const int rc = dispatch(args);

    if (rc == 0 && session != nullptr) {
      if (tracePath.has_value()) {
        writeTextFile("trace", *tracePath, session->trace.toJson().dump(2));
      }
      if (metricsPath.has_value()) {
        writeTextFile("metrics", *metricsPath,
                      session->metrics.snapshot().dump(2));
      }
    }
    return rc;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const dmf::InfeasibleError& e) {
    // A well-formed request the hardware budget cannot satisfy — the one
    // documented "try different parameters" outcome (exit 2).
    std::cerr << "infeasible: " << e.what() << "\n";
    return 2;
  } catch (const dmf::journal::CorruptJournalError& e) {
    // A journal whose *committed* records are damaged (CRC mismatch, bad
    // snapshot). Distinct from a torn tail, which is repaired silently —
    // this one needs a human (or a fresh --journal run without --resume).
    std::cerr << "corrupt journal: " << e.what() << "\n";
    return 5;
  } catch (const std::exception& e) {
    // Anything else (logic_error and friends) is a bug in the library, not
    // in the request; keep it distinguishable for scripts and CI.
    std::cerr << "internal error: " << e.what() << "\n";
    return 3;
  }
}
