#include "fleet/dispatcher.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "dmf/errors.h"
#include "dmf/parse.h"
#include "engine/pass_cache.h"
#include "journal/journal.h"
#include "obs/scope.h"
#include "runtime/parallel_for.h"
#include "sched/plan_scratch.h"

namespace dmf::fleet {

namespace {

mixgraph::Algorithm parseAlgorithmName(const std::string& name) {
  if (name == "MM" || name == "mm") return mixgraph::Algorithm::MM;
  if (name == "RMA" || name == "rma") return mixgraph::Algorithm::RMA;
  if (name == "MTCS" || name == "mtcs") return mixgraph::Algorithm::MTCS;
  if (name == "RSM" || name == "rsm") return mixgraph::Algorithm::RSM;
  throw std::invalid_argument("parseUsers: unknown algorithm '" + name + "'");
}

engine::Scheme parseSchemeName(const std::string& name) {
  if (name == "MMS" || name == "mms") return engine::Scheme::kMMS;
  if (name == "SRS" || name == "srs") return engine::Scheme::kSRS;
  if (name == "OMS" || name == "oms") return engine::Scheme::kOMS;
  throw std::invalid_argument("parseUsers: unknown scheme '" + name + "'");
}

/// True when the chip can host the item at all.
bool capable(const ChipSpec& chip, const WorkItem& item) {
  return chip.effectiveMixers() >= item.minMixers &&
         chip.storageCap >= item.minStorage;
}

/// Per-user journal: the checkpoint a migration replays. Always keeps the
/// framed byte image in memory; mirrors appends into a durable RecordLog
/// when the run is journaled to disk.
struct UserJournal {
  std::string bytes;
  std::unique_ptr<journal::RecordLog> log;

  void append(const std::string& payload) {
    bytes += journal::frameRecord(payload);
    if (log) log->append(payload);
  }

  /// Replays the checkpoint and returns the number of completed passes it
  /// records. Disk-backed journals replay from disk (torn tails repaired),
  /// so the migration path is the same one crash recovery exercises.
  [[nodiscard]] std::uint64_t replayCompleted(unsigned user) {
    const journal::ReplayResult replayed =
        log ? log->replayAndRepair()
            : journal::replayRecords(
                  bytes, "fleet user " + std::to_string(user) + " journal");
    return replayed.records.size();
  }
};

report::Json planJson(const engine::StreamingPlan& plan) {
  report::Json json = report::Json::object();
  json.set("perPassDemand", plan.perPassDemand);
  report::Json passes = report::Json::array();
  for (const engine::StreamingPass& pass : plan.passes) {
    report::Json p = report::Json::object();
    p.set("demand", pass.demand);
    p.set("cycles", static_cast<std::uint64_t>(pass.cycles));
    p.set("storageUnits", static_cast<std::uint64_t>(pass.storageUnits));
    p.set("waste", pass.waste);
    p.set("inputDroplets", pass.inputDroplets);
    p.set("mixSplits", pass.mixSplits);
    passes.push(std::move(p));
  }
  json.set("passes", std::move(passes));
  json.set("totalCycles", plan.totalCycles);
  json.set("totalWaste", plan.totalWaste);
  json.set("totalInput", plan.totalInput);
  json.set("storageUnits", static_cast<std::uint64_t>(plan.storageUnits));
  json.set("mixers", static_cast<std::uint64_t>(plan.mixers));
  return json;
}

}  // namespace

std::vector<ChipSpec> parseChips(const std::string& spec) {
  std::vector<ChipSpec> chips;
  for (const std::string& entry : splitList(spec, ';', "parseChips")) {
    ChipSpec chip;
    for (const std::string& field : splitList(entry, ',', "parseChips")) {
      const auto [key, value] = splitField(field);
      const std::string what = "parseChips: " + key;
      if (key == "mixers") {
        chip.mixers = readUnsigned<unsigned>(value, what);
      } else if (key == "storage") {
        chip.storageCap = readUnsigned<unsigned>(value, what);
      } else if (key == "dead") {
        chip.deadMixers = readUnsigned<unsigned>(value, what);
      } else {
        throw std::invalid_argument("parseChips: unknown field '" + key + "'");
      }
    }
    if (chip.mixers == 0) {
      throw std::invalid_argument("parseChips: chip needs mixers >= 1");
    }
    chips.push_back(chip);
  }
  if (chips.empty()) {
    throw std::invalid_argument("parseChips: empty chip list");
  }
  return chips;
}

std::vector<ChipSpec> defaultFleet(unsigned count) {
  if (count == 0) {
    throw std::invalid_argument("defaultFleet: need at least one chip");
  }
  std::vector<ChipSpec> chips;
  chips.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    ChipSpec chip;
    chip.mixers = 3 + (i * 2) % 5;          // 3..7, varying
    chip.storageCap = 6 + (i * 3) % 7;      // 6..12, varying
    chip.deadMixers = (i % 3 == 2) ? 1 : 0; // every third chip degraded
    chips.push_back(chip);
  }
  return chips;
}

std::vector<UserStream> parseUsers(const std::string& spec) {
  std::vector<UserStream> users;
  // '|' is an alternate user separator: ';' is a list separator in CMake and
  // a command separator in most shells, so scripts can pass "a|b|c" unquoted.
  std::string normalized = spec;
  std::replace(normalized.begin(), normalized.end(), '|', ';');
  for (const std::string& entry : splitList(normalized, ';', "parseUsers")) {
    UserStream user;
    user.request.demand = 16;
    user.request.storageCap = 3;
    bool haveRatio = false;
    for (const std::string& field : splitList(entry, ',', "parseUsers")) {
      const auto [key, value] = splitField(field);
      const std::string what = "parseUsers: " + key;
      if (key == "ratio") {
        haveRatio = true;
        auto ratio = Ratio::parse(value);
        if (!ratio.has_value()) {
          throw std::invalid_argument("parseUsers: malformed ratio '" + value +
                                      "'");
        }
        user.ratio = *ratio;
      } else if (key == "demand") {
        user.request.demand = readUnsigned<std::uint64_t>(value, what);
      } else if (key == "storage") {
        user.request.storageCap = readUnsigned<unsigned>(value, what);
      } else if (key == "mixers") {
        user.request.mixers = readUnsigned<unsigned>(value, what);
      } else if (key == "weight") {
        user.weight = readFinite(value, what);
        if (!(user.weight > 0.0)) {
          throw std::invalid_argument("parseUsers: weight must be > 0");
        }
      } else if (key == "algo") {
        user.request.algorithm = parseAlgorithmName(value);
      } else if (key == "scheme") {
        user.request.scheme = parseSchemeName(value);
      } else if (key == "optimize") {
        user.optimize = true;
      } else {
        throw std::invalid_argument("parseUsers: unknown field '" + key + "'");
      }
    }
    if (!haveRatio) {
      throw std::invalid_argument("parseUsers: entry '" + entry +
                                  "' is missing ratio=");
    }
    users.push_back(std::move(user));
  }
  if (users.empty()) {
    throw std::invalid_argument("parseUsers: empty user list");
  }
  return users;
}

KillSpec parseKill(const std::string& spec) {
  KillSpec kill;
  kill.active = true;
  bool haveChip = false;
  bool haveCycle = false;
  for (const std::string& field : splitList(spec, ',', "parseKill")) {
    const auto [key, value] = splitField(field);
    const std::string what = "parseKill: " + key;
    if (key == "chip") {
      kill.chip = readUnsigned<unsigned>(value, what);
      haveChip = true;
    } else if (key == "cycle") {
      kill.cycle = readUnsigned<std::uint64_t>(value, what);
      haveCycle = true;
    } else {
      throw std::invalid_argument("parseKill: unknown field '" + key + "'");
    }
  }
  if (!haveChip || !haveCycle) {
    throw std::invalid_argument("parseKill: need both chip= and cycle=");
  }
  return kill;
}

double FleetResult::jainIndex() const {
  double sum = 0.0;
  double sumSquares = 0.0;
  for (const UserReport& user : users) {
    const double x = static_cast<double>(user.serviceCycles) / user.weight;
    sum += x;
    sumSquares += x * x;
  }
  if (sumSquares == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(users.size()) * sumSquares);
}

std::vector<double> FleetResult::serviceShares(std::uint64_t upToCycle) const {
  std::vector<double> service(users.size(), 0.0);
  double total = 0.0;
  for (const PassRecord& record : log) {
    const std::uint64_t end = std::min(record.endCycle, upToCycle);
    if (record.startCycle >= end) continue;
    const double span = static_cast<double>(end - record.startCycle);
    service[record.user] += span;
    total += span;
  }
  if (total > 0.0) {
    for (double& share : service) share /= total;
  }
  return service;
}

report::Json FleetResult::plansJson() const {
  report::Json json = report::Json::object();
  report::Json list = report::Json::array();
  for (std::size_t u = 0; u < users.size(); ++u) {
    report::Json entry = report::Json::object();
    entry.set("user", static_cast<std::uint64_t>(u));
    entry.set("plan", planJson(users[u].plan));
    list.push(std::move(entry));
  }
  json.set("users", std::move(list));
  return json;
}

report::Json FleetResult::toJson(bool includePlacement) const {
  report::Json json = report::Json::object();
  json.set("policy", policy);

  report::Json chipList = report::Json::array();
  for (std::size_t c = 0; c < chips.size(); ++c) {
    const ChipReport& chip = chips[c];
    report::Json entry = report::Json::object();
    entry.set("chip", static_cast<std::uint64_t>(c));
    entry.set("mixers", static_cast<std::uint64_t>(chip.spec.mixers));
    entry.set("storage", static_cast<std::uint64_t>(chip.spec.storageCap));
    entry.set("dead", static_cast<std::uint64_t>(chip.spec.deadMixers));
    entry.set("busyCycles", chip.busyCycles);
    entry.set("passesCompleted", chip.passesCompleted);
    entry.set("abortedCycles", chip.abortedCycles);
    entry.set("failed", report::Json::boolean(chip.failed));
    entry.set("failedAtCycle", chip.failedAtCycle);
    chipList.push(std::move(entry));
  }
  json.set("chips", std::move(chipList));

  report::Json userList = report::Json::array();
  for (std::size_t u = 0; u < users.size(); ++u) {
    const UserReport& user = users[u];
    report::Json entry = report::Json::object();
    entry.set("user", static_cast<std::uint64_t>(u));
    entry.set("weight", user.weight);
    entry.set("serviceCycles", user.serviceCycles);
    entry.set("passesExecuted", user.passesExecuted);
    entry.set("migratedPasses", user.migratedPasses);
    entry.set("unplacedPasses", user.unplacedPasses);
    entry.set("plan", planJson(user.plan));
    userList.push(std::move(entry));
  }
  json.set("users", std::move(userList));

  report::Json summary = report::Json::object();
  summary.set("makespan", makespan);
  summary.set("migrations", migrations);
  summary.set("degraded", report::Json::boolean(degraded));
  if (degraded) summary.set("degradationReason", degradationReason);
  summary.set("jainPermille",
              static_cast<std::uint64_t>(std::llround(jainIndex() * 1000.0)));
  json.set("summary", std::move(summary));

  if (includePlacement) {
    report::Json placement = report::Json::array();
    for (const PassRecord& record : log) {
      report::Json entry = report::Json::object();
      entry.set("user", static_cast<std::uint64_t>(record.user));
      entry.set("pass", record.passIndex);
      entry.set("chip", static_cast<std::uint64_t>(record.chip));
      entry.set("start", record.startCycle);
      entry.set("end", record.endCycle);
      entry.set("attempt", static_cast<std::uint64_t>(record.attempt));
      entry.set("completed", report::Json::boolean(record.completed));
      placement.push(std::move(entry));
    }
    json.set("placement", std::move(placement));
  }
  return json;
}

FleetResult dispatchFleet(const std::vector<UserStream>& users,
                          const DispatcherOptions& options) {
  if (users.empty()) {
    throw std::invalid_argument("dispatchFleet: need at least one user");
  }
  if (options.chips.empty()) {
    throw std::invalid_argument("dispatchFleet: need at least one chip");
  }
  if (!options.weights.empty() && options.weights.size() != users.size()) {
    throw std::invalid_argument(
        "dispatchFleet: " + std::to_string(options.weights.size()) +
        " weights for " + std::to_string(users.size()) + " users");
  }
  const auto started = std::chrono::steady_clock::now();

  FleetResult result;
  result.policy = options.policy;
  result.chips.resize(options.chips.size());
  for (std::size_t c = 0; c < options.chips.size(); ++c) {
    result.chips[c].spec = options.chips[c];
  }
  result.users.resize(users.size());
  for (std::size_t u = 0; u < users.size(); ++u) {
    result.users[u].weight =
        options.weights.empty() ? users[u].weight : options.weights[u];
    if (!(result.users[u].weight > 0.0)) {
      throw std::invalid_argument("dispatchFleet: weights must be > 0");
    }
  }

  // Phase 1 — plan every user's stream. One result slot per user, fanned
  // out over `jobs` threads: byte-identical for every job count. Each
  // participant plans its users on one scratch, owned by this call.
  std::vector<sched::PlanScratch> scratch(
      runtime::participantCount(options.jobs, users.size()));
  runtime::parallelFor(
      options.jobs, users.size(), [&](std::uint64_t u, unsigned p) {
        engine::MdstEngine engine(users[u].ratio);
        engine::PassCache cache;
        engine::StreamingRequest request = users[u].request;
        request.jobs = 1;  // the fleet loop already provides the parallelism
        result.users[u].plan =
            users[u].optimize
                ? planStreamingOptimized(engine, request, cache, scratch[p])
                : planStreaming(engine, request, cache, scratch[p]);
      });

  // Admission: every pass of every user, in (user, passIndex) order.
  const std::unique_ptr<ArbitrationPolicy> policy = makePolicy(options.policy);
  policy->setUsers(static_cast<unsigned>(users.size()));
  {
    std::vector<double> weights(users.size());
    for (std::size_t u = 0; u < users.size(); ++u) {
      weights[u] = result.users[u].weight;
    }
    policy->setWeights(weights);
  }
  policy->setQuantum(options.quantum);

  std::uint64_t admission = 0;
  for (std::size_t u = 0; u < users.size(); ++u) {
    const engine::StreamingPlan& plan = result.users[u].plan;
    bool feasible = false;
    for (const ChipSpec& chip : options.chips) {
      if (chip.effectiveMixers() >= plan.mixers &&
          chip.storageCap >= plan.storageUnits) {
        feasible = true;
        break;
      }
    }
    if (!feasible) {
      throw InfeasibleError(
          "dispatchFleet: user " + std::to_string(u) + " needs " +
          std::to_string(plan.mixers) + " mixers / " +
          std::to_string(plan.storageUnits) +
          " storage units but no chip in the fleet provides them");
    }
    for (std::size_t p = 0; p < plan.passes.size(); ++p) {
      WorkItem item;
      item.user = static_cast<unsigned>(u);
      item.admission = admission++;
      item.passIndex = p;
      item.cost = std::max<std::uint64_t>(1, plan.passes[p].cycles);
      item.minMixers = plan.mixers;
      item.minStorage = plan.passes[p].storageUnits;
      policy->enqueue(item);
    }
  }

  // Per-user journals (the migration checkpoints).
  std::vector<UserJournal> journals(users.size());
  if (!options.journalDir.empty()) {
    journal::ensureJournalDir(options.journalDir);
    for (std::size_t u = 0; u < users.size(); ++u) {
      journals[u].log = std::make_unique<journal::RecordLog>(
          options.journalDir + "/user" + std::to_string(u) + ".log");
      // A fresh dispatch owns its checkpoint; stale records from an
      // earlier run would make the replayed count contradict this run.
      journals[u].log->reset();
    }
  }

  // Phase 2 — the serial virtual-time dispatch loop.
  std::vector<std::uint64_t> freeAt(options.chips.size(), 0);
  const KillSpec& kill = options.kill;

  const auto failChip = [&](unsigned chip, std::uint64_t atCycle) {
    ChipReport& report = result.chips[chip];
    if (!report.failed) {
      report.failed = true;
      report.failedAtCycle = atCycle;
    }
  };

  while (!policy->empty()) {
    // The decision instant: the earliest any alive chip frees up.
    std::uint64_t now = 0;
    bool anyAlive = false;
    for (std::size_t c = 0; c < freeAt.size(); ++c) {
      if (result.chips[c].failed) continue;
      if (!anyAlive || freeAt[c] < now) now = freeAt[c];
      anyAlive = true;
    }
    if (!anyAlive) {
      result.degraded = true;
      result.degradationReason = "all chips failed with work pending";
      break;
    }

    const std::optional<unsigned> picked =
        policy->pickUser(static_cast<double>(now));
    if (!picked.has_value()) break;
    const std::optional<WorkItem> popped = policy->pop(*picked);
    if (!popped.has_value()) continue;
    const WorkItem item = *popped;

    // Placement: earliest-free alive capable chip, ties to the lowest id.
    // A chip whose next start would land on or after its scripted death is
    // dead for scheduling purposes — fail it the moment that is observed.
    std::optional<unsigned> best;
    for (unsigned c = 0; c < result.chips.size(); ++c) {
      if (result.chips[c].failed) continue;
      if (kill.active && c == kill.chip && freeAt[c] >= kill.cycle) {
        failChip(c, kill.cycle);
        continue;
      }
      if (!capable(result.chips[c].spec, item)) continue;
      if (!best.has_value() || freeAt[c] < freeAt[*best]) best = c;
    }
    if (!best.has_value()) {
      result.users[item.user].unplacedPasses += 1;
      result.degraded = true;
      result.degradationReason =
          "no capable alive chip for user " + std::to_string(item.user);
      continue;
    }

    const unsigned chip = *best;
    const std::uint64_t start = freeAt[chip];
    const std::uint64_t end = start + item.cost;

    if (kill.active && chip == kill.chip && end > kill.cycle) {
      // The chip dies mid-pass: abort, then migrate via journal replay.
      result.log.push_back(PassRecord{item.user, item.passIndex, chip, start,
                                      kill.cycle, item.attempt, false});
      result.chips[chip].abortedCycles += kill.cycle - start;
      freeAt[chip] = kill.cycle;
      failChip(chip, kill.cycle);

      const std::uint64_t checkpointed =
          journals[item.user].replayCompleted(item.user);
      if (checkpointed != result.users[item.user].passesExecuted) {
        throw journal::CorruptJournalError(
            "fleet migration: user " + std::to_string(item.user) +
            " checkpoint records " + std::to_string(checkpointed) +
            " completed passes, dispatcher saw " +
            std::to_string(result.users[item.user].passesExecuted));
      }
      WorkItem retry = item;
      retry.attempt += 1;
      policy->enqueue(retry);
      result.users[item.user].migratedPasses += 1;
      result.migrations += 1;
      obs::count("fleet.passes.migrated");
      continue;
    }

    result.log.push_back(PassRecord{item.user, item.passIndex, chip, start,
                                    end, item.attempt, true});
    freeAt[chip] = end;
    result.chips[chip].busyCycles += item.cost;
    result.chips[chip].passesCompleted += 1;
    result.users[item.user].serviceCycles += item.cost;
    result.users[item.user].passesExecuted += 1;
    result.makespan = std::max(result.makespan, end);
    journals[item.user].append(
        "pass user=" + std::to_string(item.user) +
        " idx=" + std::to_string(item.passIndex) +
        " chip=" + std::to_string(chip) + " start=" + std::to_string(start) +
        " end=" + std::to_string(end));
    obs::count("fleet.passes.dispatched");
  }

  // Observability (metrics only — never behaviour).
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - started)
                           .count();
    metrics->histogram("fleet.dispatch_nanos",
                       {1000, 10000, 100000, 1000000, 10000000, 100000000})
        .observe(static_cast<std::uint64_t>(nanos));
    metrics->gauge("fleet.makespan_cycles").set(result.makespan);
    metrics->gauge("fleet.jain_permille")
        .set(static_cast<std::uint64_t>(
            std::llround(result.jainIndex() * 1000.0)));
    auto& busy = metrics->histogram("fleet.chip.busy_cycles",
                                    {64, 256, 1024, 4096, 16384, 65536});
    for (std::size_t c = 0; c < result.chips.size(); ++c) {
      busy.observe(result.chips[c].busyCycles);
      metrics->gauge("fleet.chip." + std::to_string(c) + ".busy_cycles")
          .set(result.chips[c].busyCycles);
    }
    for (std::size_t u = 0; u < result.users.size(); ++u) {
      metrics->gauge("fleet.user." + std::to_string(u) + ".service_cycles")
          .set(result.users[u].serviceCycles);
    }
  }
  return result;
}

}  // namespace dmf::fleet
