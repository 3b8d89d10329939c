#include "engine/serialize.h"

namespace dmf::engine {

using report::Json;

Json toJson(const MdstResult& result) {
  Json out = Json::object();
  out.set("completionTime", Json::number(std::uint64_t{result.completionTime}))
      .set("storageUnits", Json::number(std::uint64_t{result.storageUnits}))
      .set("mixSplits", Json::number(result.mixSplits))
      .set("waste", Json::number(result.waste))
      .set("inputDroplets", Json::number(result.inputDroplets))
      .set("componentTrees", Json::number(result.componentTrees))
      .set("mixers", Json::number(std::uint64_t{result.mixers}));
  Json perFluid = Json::array();
  for (std::uint64_t n : result.inputPerFluid) {
    perFluid.push(Json::number(n));
  }
  out.set("inputPerFluid", std::move(perFluid));
  return out;
}

Json toJson(const forest::TaskForest& forest,
            const sched::Schedule& schedule) {
  Json out = Json::object();
  out.set("ratio", Json::string(forest.graph().ratio().toString()))
      .set("demand", Json::number(forest.demand()))
      .set("scheme", Json::string(schedule.scheme))
      .set("mixers", Json::number(std::uint64_t{schedule.mixerCount}))
      .set("completionTime",
           Json::number(std::uint64_t{schedule.completionTime}));
  Json tasks = Json::array();
  for (forest::TaskId id = 0; id < forest.taskCount(); ++id) {
    const forest::Task t = forest.task(id);
    Json task = Json::object();
    task.set("id", Json::number(std::uint64_t{id}))
        .set("label", Json::string(forest.taskLabel(id)))
        .set("tree", Json::number(std::uint64_t{t.tree}))
        .set("level", Json::number(std::uint64_t{t.level}))
        .set("cycle", Json::number(std::uint64_t{schedule.cycles[id]}))
        .set("mixer", Json::number(std::uint64_t{schedule.mixers[id]}));
    Json outputs = Json::array();
    for (const forest::OutputDroplet& drop : t.out) {
      Json droplet = Json::object();
      switch (drop.fate) {
        case forest::DropletFate::kConsumed:
          droplet.set("fate", Json::string("consumed"))
              .set("consumer", Json::number(std::uint64_t{drop.consumer}));
          break;
        case forest::DropletFate::kTarget:
          droplet.set("fate", Json::string("target"));
          break;
        case forest::DropletFate::kWaste:
          droplet.set("fate", Json::string("waste"));
          break;
      }
      outputs.push(std::move(droplet));
    }
    task.set("outputs", std::move(outputs));
    tasks.push(std::move(task));
  }
  out.set("tasks", std::move(tasks));
  return out;
}

Json toJson(const StreamingPlan& plan) {
  Json out = Json::object();
  out.set("perPassDemand", Json::number(plan.perPassDemand))
      .set("totalCycles", Json::number(plan.totalCycles))
      .set("totalWaste", Json::number(plan.totalWaste))
      .set("totalInput", Json::number(plan.totalInput))
      .set("peakStorage", Json::number(std::uint64_t{plan.storageUnits}))
      .set("mixers", Json::number(std::uint64_t{plan.mixers}));
  Json passes = Json::array();
  for (const StreamingPass& pass : plan.passes) {
    Json p = Json::object();
    p.set("demand", Json::number(pass.demand))
        .set("cycles", Json::number(std::uint64_t{pass.cycles}))
        .set("storage", Json::number(std::uint64_t{pass.storageUnits}))
        .set("waste", Json::number(pass.waste))
        .set("input", Json::number(pass.inputDroplets))
        .set("mixSplits", Json::number(pass.mixSplits));
    passes.push(std::move(p));
  }
  out.set("passes", std::move(passes));
  return out;
}

Json toJson(const MultiTargetResult& result) {
  Json shared = Json::object();
  shared.set("completionTime",
             Json::number(std::uint64_t{result.completionTime}))
      .set("storageUnits", Json::number(std::uint64_t{result.storageUnits}))
      .set("mixSplits", Json::number(result.mixSplits))
      .set("waste", Json::number(result.waste))
      .set("inputDroplets", Json::number(result.inputDroplets));
  Json separate = Json::object();
  separate
      .set("completionTime",
           Json::number(std::uint64_t{result.separateCompletionTime}))
      .set("storageUnits",
           Json::number(std::uint64_t{result.separateStorageUnits}))
      .set("waste", Json::number(result.separateWaste))
      .set("inputDroplets", Json::number(result.separateInputDroplets));
  Json out = Json::object();
  out.set("mixers", Json::number(std::uint64_t{result.mixers}))
      .set("shared", std::move(shared))
      .set("separate", std::move(separate));
  return out;
}

Json toJson(const PassCacheStats& stats) {
  Json out = Json::object();
  out.set("hits", stats.hits)
      .set("misses", stats.misses)
      .set("evaluations", stats.evaluations())
      .set("boundRejects", stats.boundRejects);
  Json timings = Json::object();
  timings.set("forestBuildNanos", stats.buildNanos)
      .set("scheduleNanos", stats.scheduleNanos)
      .set("storageCountNanos", stats.storageNanos)
      .set("totalNanos", stats.totalNanos());
  out.set("stageTimings", std::move(timings));
  return out;
}

Json toJson(const RecoveryReport& report) {
  Json out = Json::object();
  out.set("demand", Json::number(report.demand))
      .set("delivered", Json::number(report.delivered))
      .set("shortfall", Json::number(report.shortfall))
      .set("escapedErrors", Json::number(report.escapedErrors))
      .set("discarded", Json::number(report.discarded))
      .set("faultsInjected", Json::number(std::uint64_t{report.faults.size()}))
      .set("baseCompletion", Json::number(std::uint64_t{report.baseCompletion}))
      .set("completionCycle",
           Json::number(std::uint64_t{report.completionCycle}))
      .set("retryBudget", Json::number(std::uint64_t{report.retryBudget}))
      .set("roundsUsed", Json::number(std::uint64_t{report.roundsUsed}))
      .set("extraMixSplits", Json::number(report.extraMixSplits))
      .set("extraInputDroplets", Json::number(report.extraInputDroplets))
      .set("extraActuations", Json::number(report.extraActuations))
      .set("mixersLost", Json::number(std::uint64_t{report.mixersLost}))
      .set("storageLost", Json::number(std::uint64_t{report.storageLost}))
      .set("degraded", Json::boolean(report.degraded))
      .set("degradationReason", Json::string(report.degradationReason));
  Json faults = Json::array();
  for (const fault::FaultEvent& e : report.faults) {
    Json f = Json::object();
    f.set("kind", Json::string(std::string(fault::faultKindName(e.kind))))
        .set("cycle", Json::number(std::uint64_t{e.cycle}))
        .set("detail", Json::string(e.detail));
    if (e.magnitude > 0.0) f.set("magnitude", Json::number(e.magnitude));
    faults.push(std::move(f));
  }
  out.set("faults", std::move(faults));
  Json rounds = Json::array();
  for (const RepairRound& r : report.rounds) {
    Json round = Json::object();
    round.set("cycle", Json::number(std::uint64_t{r.cycle}))
        .set("span", Json::number(std::uint64_t{r.span}))
        .set("mixSplits", Json::number(r.mixSplits))
        .set("inputDroplets", Json::number(r.inputDroplets))
        .set("actuations", Json::number(r.actuations));
    Json needs = Json::array();
    for (const forest::NodeDemand& need : r.needs) {
      Json n = Json::object();
      n.set("node", Json::number(std::uint64_t{need.node}))
          .set("count", Json::number(need.count));
      needs.push(std::move(n));
    }
    round.set("needs", std::move(needs));
    rounds.push(std::move(round));
  }
  out.set("rounds", std::move(rounds));
  Json dead = Json::array();
  for (const chip::Cell& c : report.deadCells) {
    Json cell = Json::array();
    cell.push(Json::number(std::uint64_t{static_cast<unsigned>(c.x)}));
    cell.push(Json::number(std::uint64_t{static_cast<unsigned>(c.y)}));
    dead.push(std::move(cell));
  }
  out.set("deadCells", std::move(dead));
  return out;
}

namespace {

/// at()-style access that reports *which* field is malformed — journal
/// snapshots are hand-inspectable and a precise error beats out_of_range.
const Json& require(const Json& json, const std::string& key) {
  if (!json.isObject() || !json.contains(key)) {
    throw std::invalid_argument("serialize: missing field '" + key + "'");
  }
  return json.at(key);
}

std::uint64_t requireUint(const Json& json, const std::string& key) {
  const Json& value = require(json, key);
  if (!value.isNumber()) {
    throw std::invalid_argument("serialize: field '" + key +
                                "' is not a number");
  }
  return value.asUint();
}

fault::FaultKind faultKindFromName(const std::string& name) {
  if (name == "split") return fault::FaultKind::kSplitImbalance;
  if (name == "loss") return fault::FaultKind::kDropletLoss;
  if (name == "dispense") return fault::FaultKind::kDispenseFail;
  if (name == "electrode") return fault::FaultKind::kElectrodeDead;
  throw std::invalid_argument("serialize: unknown fault kind '" + name + "'");
}

}  // namespace

StreamingPlan streamingPlanFromJson(const Json& json) {
  StreamingPlan plan;
  plan.perPassDemand = requireUint(json, "perPassDemand");
  plan.totalCycles = requireUint(json, "totalCycles");
  plan.totalWaste = requireUint(json, "totalWaste");
  plan.totalInput = requireUint(json, "totalInput");
  plan.storageUnits = static_cast<unsigned>(requireUint(json, "peakStorage"));
  plan.mixers = static_cast<unsigned>(requireUint(json, "mixers"));
  const Json& passes = require(json, "passes");
  if (!passes.isArray()) {
    throw std::invalid_argument("serialize: 'passes' is not an array");
  }
  plan.passes.reserve(passes.size());
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Json& p = passes.at(i);
    StreamingPass pass;
    pass.demand = requireUint(p, "demand");
    pass.cycles = static_cast<unsigned>(requireUint(p, "cycles"));
    pass.storageUnits = static_cast<unsigned>(requireUint(p, "storage"));
    pass.waste = requireUint(p, "waste");
    pass.inputDroplets = requireUint(p, "input");
    pass.mixSplits = requireUint(p, "mixSplits");
    plan.passes.push_back(pass);
  }
  return plan;
}

RecoveryReport recoveryReportFromJson(const Json& json) {
  RecoveryReport report;
  report.demand = requireUint(json, "demand");
  report.delivered = requireUint(json, "delivered");
  report.shortfall = requireUint(json, "shortfall");
  report.escapedErrors = requireUint(json, "escapedErrors");
  report.discarded = requireUint(json, "discarded");
  report.baseCompletion =
      static_cast<unsigned>(requireUint(json, "baseCompletion"));
  report.completionCycle =
      static_cast<unsigned>(requireUint(json, "completionCycle"));
  report.retryBudget = static_cast<unsigned>(requireUint(json, "retryBudget"));
  report.roundsUsed = static_cast<unsigned>(requireUint(json, "roundsUsed"));
  report.extraMixSplits = requireUint(json, "extraMixSplits");
  report.extraInputDroplets = requireUint(json, "extraInputDroplets");
  report.extraActuations = requireUint(json, "extraActuations");
  report.mixersLost = static_cast<unsigned>(requireUint(json, "mixersLost"));
  report.storageLost = static_cast<unsigned>(requireUint(json, "storageLost"));
  report.degraded = require(json, "degraded").asBool();
  report.degradationReason = require(json, "degradationReason").asString();
  const Json& faults = require(json, "faults");
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Json& f = faults.at(i);
    fault::FaultEvent event;
    event.kind = faultKindFromName(require(f, "kind").asString());
    event.cycle = static_cast<unsigned>(requireUint(f, "cycle"));
    event.detail = require(f, "detail").asString();
    // "magnitude" is emitted only when positive; absence restores the 0.0
    // default, so the omission round-trips too.
    if (f.contains("magnitude")) event.magnitude = f.at("magnitude").asDouble();
    report.faults.push_back(std::move(event));
  }
  const Json& rounds = require(json, "rounds");
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Json& r = rounds.at(i);
    RepairRound round;
    round.cycle = static_cast<unsigned>(requireUint(r, "cycle"));
    round.span = static_cast<unsigned>(requireUint(r, "span"));
    round.mixSplits = requireUint(r, "mixSplits");
    round.inputDroplets = requireUint(r, "inputDroplets");
    round.actuations = requireUint(r, "actuations");
    const Json& needs = require(r, "needs");
    for (std::size_t j = 0; j < needs.size(); ++j) {
      const Json& n = needs.at(j);
      forest::NodeDemand need;
      need.node = static_cast<mixgraph::NodeId>(requireUint(n, "node"));
      need.count = requireUint(n, "count");
      round.needs.push_back(need);
    }
    report.rounds.push_back(std::move(round));
  }
  const Json& dead = require(json, "deadCells");
  for (std::size_t i = 0; i < dead.size(); ++i) {
    const Json& cell = dead.at(i);
    if (!cell.isArray() || cell.size() != 2) {
      throw std::invalid_argument("serialize: malformed deadCells entry");
    }
    report.deadCells.push_back(
        chip::Cell{static_cast<int>(cell.at(0).asUint()),
                   static_cast<int>(cell.at(1).asUint())});
  }
  return report;
}

}  // namespace dmf::engine
