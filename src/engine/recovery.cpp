#include "engine/recovery.h"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>

#include "analysis/error_model.h"
#include "chip/executor.h"
#include "chip/router.h"
#include "obs/log.h"
#include "obs/scope.h"
#include "sched/schedulers.h"

namespace dmf::engine {
namespace {

constexpr std::uint32_t kNone = 0xFFFFFFFFu;

/// Where one operand droplet of a runtime task comes from.
enum class OperandKind : std::uint8_t {
  kDispense,     ///< reservoir dispense (leaf child)
  kDroplet,      ///< output droplet of another runtime task
  kAwaitRepair,  ///< droplet was lost/discarded; waiting for a replacement
};

struct Operand {
  OperandKind kind = OperandKind::kDispense;
  /// Producing runtime task (kDroplet) and its output slot.
  std::uint32_t producer = kNone;
  int slot = 0;
  /// Graph node the droplet realizes (repair matching key).
  mixgraph::NodeId node = mixgraph::kNoNode;
};

enum class DropStatus : std::uint8_t {
  kPending,    ///< not produced yet
  kLive,       ///< produced, awaiting consumption
  kConsumed,   ///< used as an operand
  kEmitted,    ///< delivered as a target droplet
  kWasted,     ///< discarded to waste by plan
  kLost,       ///< stuck in transport (fault)
  kDiscarded,  ///< flagged at a checkpoint and thrown away
};

struct RtDroplet {
  DropStatus status = DropStatus::kPending;
  /// Accumulated fault-induced CF deviation (worst fluid, first order).
  double cfErr = 0.0;
  /// Cycle the droplet's lineage first faulted; 0 = clean.
  unsigned faultCycle = 0;
  /// Already examined (and possibly cleared) by a checkpoint.
  bool flagged = false;
  mixgraph::NodeId node = mixgraph::kNoNode;
  forest::DropletFate fate = forest::DropletFate::kWaste;
  /// Consuming runtime task and operand slot when fate == kConsumed.
  std::uint32_t consumer = kNone;
  int consumerSlot = 0;
};

/// One mix-split instance in flight (base schedule or spliced repair).
struct RtTask {
  const forest::TaskForest* forest = nullptr;
  forest::TaskId id = forest::kNoTask;
  /// Absolute cycle the task is planned at (repair cycles are offset by the
  /// splice point); it never runs earlier, may run later.
  unsigned planned = 0;
  unsigned round = 0;
  bool done = false;
  Operand ops[2];
  RtDroplet out[2];
};

/// Per-node worst-fluid operand-CF spread |cf_i(l) - cf_i(r)| / 2 — the
/// first-order sensitivity of a node's output CF to a volumetric split
/// imbalance of its operands (see analysis/error_model.h).
std::vector<double> cfSpread(const mixgraph::MixingGraph& graph) {
  std::vector<double> spread(graph.nodeCount(), 0.0);
  for (mixgraph::NodeId v = 0; v < graph.nodeCount(); ++v) {
    const mixgraph::Node& n = graph.node(v);
    if (n.isLeaf()) continue;
    const dmf::MixtureValue& l = graph.node(n.left).value;
    const dmf::MixtureValue& r = graph.node(n.right).value;
    double worst = 0.0;
    for (std::size_t i = 0; i < l.fluidCount(); ++i) {
      const double d =
          l.concentration(i).toDouble() - r.concentration(i).toDouble();
      worst = std::max(worst, d < 0 ? -d : d);
    }
    spread[v] = worst / 2.0;
  }
  return spread;
}

/// Mutable state of one recovery run.
struct RunState {
  std::vector<RtTask> tasks;
  /// FIFO of operands awaiting a replacement droplet, per graph node.
  std::map<mixgraph::NodeId, std::deque<std::pair<std::uint32_t, int>>> waits;
  /// Needs flagged since the last repair round, per graph node.
  std::map<mixgraph::NodeId, std::uint64_t> repairNeed;
  /// Repair forests must outlive their runtime tasks.
  std::deque<forest::TaskForest> repairForests;
  std::uint64_t inputUsed = 0;
};

/// Appends the runtime tasks of one (forest, schedule) pair, planned at
/// `offset + assignment cycle`. Returns the index of the first new task.
std::uint32_t spliceTasks(RunState& state, const forest::TaskForest& forest,
                          const sched::Schedule& schedule, unsigned offset,
                          unsigned round) {
  const auto base = static_cast<std::uint32_t>(state.tasks.size());
  const mixgraph::MixingGraph& graph = forest.graph();
  for (forest::TaskId id = 0; id < forest.taskCount(); ++id) {
    const forest::Task t = forest.task(id);
    RtTask rt;
    rt.forest = &forest;
    rt.id = id;
    rt.planned = offset + schedule.cycles[id];
    rt.round = round;
    const mixgraph::Node& node = graph.node(t.node);
    const forest::TaskId deps[2] = {t.depLeft, t.depRight};
    const mixgraph::NodeId children[2] = {node.left, node.right};
    for (int s = 0; s < 2; ++s) {
      Operand& op = rt.ops[s];
      op.node = children[s];
      if (deps[s] == forest::kNoTask) {
        op.kind = OperandKind::kDispense;
      } else {
        op.kind = OperandKind::kDroplet;
        op.producer = base + deps[s];
        // The producer's slot feeding this task is resolved below, once all
        // tasks exist.
      }
    }
    for (int s = 0; s < 2; ++s) {
      RtDroplet& d = rt.out[s];
      d.node = t.node;
      d.fate = t.out[s].fate;
      if (d.fate == forest::DropletFate::kConsumed) {
        d.consumer = base + t.out[s].consumer;
        const forest::Task c = forest.task(t.out[s].consumer);
        d.consumerSlot = c.depLeft == id ? 0 : 1;
      }
    }
    state.tasks.push_back(rt);
  }
  // Second pass: point each kDroplet operand at the producer's output slot.
  for (std::uint32_t i = base; i < state.tasks.size(); ++i) {
    RtTask& rt = state.tasks[i];
    for (int s = 0; s < 2; ++s) {
      if (rt.ops[s].kind != OperandKind::kDroplet) continue;
      RtTask& prod = state.tasks[rt.ops[s].producer];
      const int slot = prod.out[0].consumer == i && prod.out[0].consumerSlot == s
                           ? 0
                           : 1;
      rt.ops[s].slot = slot;
    }
  }
  return base;
}

std::string taskTag(const RtTask& rt) {
  std::string tag = rt.forest->taskLabel(rt.id);
  if (rt.round > 0) tag += "/r" + std::to_string(rt.round);
  return tag;
}

}  // namespace

RecoveryEngine::RecoveryEngine(RecoveryOptions options)
    : options_(options) {
  if (options_.checkpoint.everyLevels == 0) {
    throw std::invalid_argument("recovery: checkpoint.everyLevels must be >= 1");
  }
  if (options_.retryBudget > 64) {
    throw std::invalid_argument("recovery: retryBudget must be <= 64");
  }
}

RecoveryReport RecoveryEngine::run(const forest::TaskForest& forest,
                                   const sched::Schedule& schedule) const {
  if (schedule.size() != forest.taskCount()) {
    throw std::invalid_argument(
        "recovery: schedule does not match the forest");
  }
  obs::Span span("recovery.run", "recovery");

  const mixgraph::MixingGraph& graph = forest.graph();
  const std::vector<double> spread = cfSpread(graph);
  // A sensed droplet whose CF deviates by more than the graph's
  // quantization error 1/2^(d+1) is flagged as erroneous.
  const double threshold = analysis::quantizationError(graph);
  fault::FaultInjector injector(options_.faults, options_.seed);
  const bool faulty = options_.faults.any();

  RecoveryReport report;
  report.demand = forest.demand();
  report.baseCompletion = schedule.completionTime;
  report.retryBudget = options_.retryBudget;

  RunState state;
  state.tasks.reserve(forest.taskCount());
  spliceTasks(state, forest, schedule, 0, 0);
  state.inputUsed = forest.stats().inputTotal;

  unsigned effectiveMixers = schedule.mixerCount;
  unsigned backoffMul = 1;
  bool budgetStopped = false;  // no further repair rounds will be spliced
  // Hard cycle limit: every repair round gets the base schedule's span
  // four times over, plus slack.
  const unsigned maxCycles =
      (4 * schedule.completionTime + 256) * (options_.retryBudget + 1);

  auto degrade = [&](const std::string& reason) {
    report.degraded = true;
    if (report.degradationReason.empty()) {
      report.degradationReason = reason;
      obs::LogLine(obs::LogLevel::kWarn, "recovery.degrade")
          .str("reason", reason);
    }
  };

  // Flags one repair need and (lazily) lets the next checkpoint splice it.
  auto flagNeed = [&](mixgraph::NodeId node) { ++state.repairNeed[node]; };

  std::vector<std::uint32_t> ready;
  unsigned cycle = 0;
  while (true) {
    ++cycle;
    if (cycle > maxCycles) {
      degrade("cycle limit reached (" + std::to_string(maxCycles) + ")");
      break;
    }

    // --- electrode deaths: one draw per cycle -------------------------------
    if (faulty && options_.faults.electrodeRate > 0.0 &&
        injector.electrodeDies()) {
      fault::FaultEvent ev;
      ev.kind = fault::FaultKind::kElectrodeDead;
      ev.cycle = cycle;
      if (options_.layout != nullptr) {
        const chip::Layout& layout = *options_.layout;
        const chip::Cell cell =
            injector.pickCell(layout.width(), layout.height());
        const bool fresh =
            std::find(report.deadCells.begin(), report.deadCells.end(),
                      cell) == report.deadCells.end();
        if (fresh) report.deadCells.push_back(cell);
        ev.detail = "cell (" + std::to_string(cell.x) + "," +
                    std::to_string(cell.y) + ") died";
        if (const auto mod = layout.moduleAt(cell); fresh && mod.has_value()) {
          const chip::Module& m = layout.module(*mod);
          // A dead electrode inside a module only disables the module once —
          // further deaths on its footprint change nothing.
          const bool firstHit = std::none_of(
              report.deadCells.begin(), report.deadCells.end() - 1,
              [&](const chip::Cell& c) { return m.contains(c); });
          if (firstHit && m.kind == chip::ModuleKind::kMixer) {
            ++report.mixersLost;
            effectiveMixers = effectiveMixers > 0 ? effectiveMixers - 1 : 0;
            ev.detail += " (mixer " + m.label + " lost)";
          } else if (firstHit && m.kind == chip::ModuleKind::kStorage) {
            ++report.storageLost;
            ev.detail += " (storage " + m.label + " lost)";
          }
        }
      } else {
        ev.detail = "electrode died (no layout: routing impact only)";
      }
      injector.record(std::move(ev));
      if (effectiveMixers == 0) {
        degrade("all mixers lost to electrode failures");
        break;
      }
    }

    // --- run ready tasks under the surviving mixer bank ---------------------
    ready.clear();
    for (std::uint32_t i = 0; i < state.tasks.size(); ++i) {
      const RtTask& rt = state.tasks[i];
      if (rt.done || rt.planned > cycle) continue;
      bool ok = true;
      for (const Operand& op : rt.ops) {
        if (op.kind == OperandKind::kAwaitRepair) ok = false;
        if (op.kind == OperandKind::kDroplet &&
            state.tasks[op.producer].out[op.slot].status != DropStatus::kLive) {
          ok = false;
        }
      }
      if (ok) ready.push_back(i);
    }
    std::sort(ready.begin(), ready.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const RtTask& ta = state.tasks[a];
                const RtTask& tb = state.tasks[b];
                if (ta.planned != tb.planned) return ta.planned < tb.planned;
                return a < b;
              });
    if (ready.size() > effectiveMixers) ready.resize(effectiveMixers);

    bool executedAny = false;
    for (const std::uint32_t idx : ready) {
      RtTask& rt = state.tasks[idx];
      // Operand delivery: dispenses may misfire, transported droplets may
      // get stuck. Either way the mixer slot is spent for this cycle and
      // the task retries next cycle.
      bool delivered = true;
      for (int s = 0; s < 2 && delivered; ++s) {
        Operand& op = rt.ops[s];
        if (op.kind == OperandKind::kDispense) {
          if (faulty && injector.dispenseFails()) {
            fault::FaultEvent ev;
            ev.kind = fault::FaultKind::kDispenseFail;
            ev.cycle = cycle;
            ev.task = idx;
            ev.detail = taskTag(rt) + " dispense misfired";
            injector.record(std::move(ev));
            delivered = false;
          }
        } else {
          RtDroplet& d = state.tasks[op.producer].out[op.slot];
          if (faulty && injector.dropletLost()) {
            d.status = DropStatus::kLost;
            d.faultCycle = cycle;
            fault::FaultEvent ev;
            ev.kind = fault::FaultKind::kDropletLoss;
            ev.cycle = cycle;
            ev.task = idx;
            ev.detail = taskTag(rt) + " operand droplet stuck in transport";
            injector.record(std::move(ev));
            op.kind = OperandKind::kAwaitRepair;
            state.waits[op.node].emplace_back(idx, s);
            delivered = false;
          }
        }
      }
      if (!delivered) continue;

      // Execute the mix-split: consume operands, propagate CF error.
      double err[2] = {0.0, 0.0};
      unsigned inheritedFault = 0;
      for (int s = 0; s < 2; ++s) {
        const Operand& op = rt.ops[s];
        if (op.kind != OperandKind::kDroplet) continue;
        RtDroplet& d = state.tasks[op.producer].out[op.slot];
        d.status = DropStatus::kConsumed;
        err[s] = d.cfErr;
        if (d.faultCycle != 0 &&
            (inheritedFault == 0 || d.faultCycle < inheritedFault)) {
          inheritedFault = d.faultCycle;
        }
      }
      const forest::Task ft = rt.forest->task(rt.id);
      double outErr = (err[0] + err[1]) / 2.0;
      unsigned faultCycle = inheritedFault;
      double eps = 0.0;
      if (faulty && injector.splitErrs(eps)) {
        outErr += spread[ft.node] * eps;
        if (faultCycle == 0) faultCycle = cycle;
        fault::FaultEvent ev;
        ev.kind = fault::FaultKind::kSplitImbalance;
        ev.cycle = cycle;
        ev.task = idx;
        ev.magnitude = eps;
        ev.detail = taskTag(rt) + " split imbalance";
        injector.record(std::move(ev));
      }
      for (int s = 0; s < 2; ++s) {
        RtDroplet& d = rt.out[s];
        d.cfErr = outErr;
        d.faultCycle = faultCycle;
        switch (d.fate) {
          case forest::DropletFate::kWaste:
            d.status = DropStatus::kWasted;
            break;
          case forest::DropletFate::kTarget:
            d.status = DropStatus::kEmitted;
            break;
          case forest::DropletFate::kConsumed:
            d.status = DropStatus::kLive;
            break;
        }
      }
      // A repair round's target droplet first replaces a waiting operand;
      // only a surplus one (a recalled bad target's re-make) is emitted.
      if (rt.round > 0) {
        for (int s = 0; s < 2; ++s) {
          RtDroplet& d = rt.out[s];
          if (d.status != DropStatus::kEmitted) continue;
          auto it = state.waits.find(d.node);
          if (it == state.waits.end() || it->second.empty()) continue;
          const auto [waiter, slot] = it->second.front();
          it->second.pop_front();
          Operand& op = state.tasks[waiter].ops[slot];
          op.kind = OperandKind::kDroplet;
          op.producer = idx;
          op.slot = s;
          d.status = DropStatus::kLive;
          d.fate = forest::DropletFate::kConsumed;
          d.consumer = waiter;
          d.consumerSlot = slot;
        }
      }
      rt.done = true;
      executedAny = true;
      report.completionCycle = cycle;
    }

    // --- checkpoint: sense, flag, and splice a repair round -----------------
    if (faulty && fault::isCheckpoint(cycle, options_.checkpoint, backoffMul)) {
      for (std::uint32_t i = 0; i < state.tasks.size(); ++i) {
        for (int s = 0; s < 2; ++s) {
          RtDroplet& d = state.tasks[i].out[s];
          if (d.flagged || d.faultCycle == 0) continue;
          if (d.status != DropStatus::kLive &&
              d.status != DropStatus::kEmitted &&
              d.status != DropStatus::kLost) {
            continue;
          }
          if (!fault::detectable(d.faultCycle, cycle, options_.checkpoint)) {
            continue;
          }
          d.flagged = true;
          if (d.status == DropStatus::kLost) {
            flagNeed(d.node);
            obs::count("recovery.losses_detected");
            continue;
          }
          if (d.cfErr <= threshold) continue;  // sensed, within tolerance
          // Corrupt: discard and demand a replacement droplet of its node.
          if (d.status == DropStatus::kLive &&
              d.consumer != kNone) {
            Operand& op = state.tasks[d.consumer].ops[d.consumerSlot];
            op.kind = OperandKind::kAwaitRepair;
            state.waits[op.node].emplace_back(d.consumer, d.consumerSlot);
          }
          d.status = DropStatus::kDiscarded;
          ++report.discarded;
          obs::count("recovery.droplets_discarded");
          flagNeed(d.node);
        }
      }

      if (!state.repairNeed.empty() && !budgetStopped) {
        if (report.roundsUsed >= options_.retryBudget) {
          budgetStopped = true;
          state.repairNeed.clear();
          degrade("retry budget exhausted (" +
                  std::to_string(options_.retryBudget) + " rounds)");
        } else {
          RepairRound round;
          round.cycle = cycle;
          for (const auto& [node, count] : state.repairNeed) {
            round.needs.push_back(forest::NodeDemand{node, count});
          }
          state.repairNeed.clear();
          state.repairForests.emplace_back(graph, round.needs);
          const forest::TaskForest& rf = state.repairForests.back();
          bool feasible = true;
          if (options_.inputBudget > 0 &&
              state.inputUsed + rf.stats().inputTotal > options_.inputBudget) {
            feasible = false;
            budgetStopped = true;
            degrade("input budget exhausted (" +
                    std::to_string(options_.inputBudget) + " droplets)");
          }
          sched::Schedule repairSchedule;
          if (feasible) {
            try {
              if (options_.storageCap > 0) {
                const unsigned cap =
                    options_.storageCap > report.storageLost
                        ? options_.storageCap - report.storageLost
                        : 0;
                repairSchedule =
                    sched::scheduleStorageCapped(rf, effectiveMixers, cap);
              } else {
                repairSchedule = sched::scheduleSRS(rf, effectiveMixers);
              }
            } catch (const std::exception& e) {
              feasible = false;
              budgetStopped = true;
              degrade(std::string("repair unschedulable: ") + e.what());
            }
          }
          if (feasible) {
            state.inputUsed += rf.stats().inputTotal;
            round.span = repairSchedule.completionTime;
            round.mixSplits = rf.stats().mixSplits;
            round.inputDroplets = rf.stats().inputTotal;
            if (options_.layout != nullptr) {
              try {
                chip::Router router(*options_.layout);
                chip::ChipExecutor executor(*options_.layout, router);
                round.actuations =
                    executor.run(rf, repairSchedule).totalCost;
              } catch (const std::exception&) {
                round.actuations = 0;  // accounting only; never fatal
              }
            }
            spliceTasks(state, rf, repairSchedule, cycle,
                        report.roundsUsed + 1);
            ++report.roundsUsed;
            report.extraMixSplits += round.mixSplits;
            report.extraInputDroplets += round.inputDroplets;
            report.extraActuations += round.actuations;
            obs::count("recovery.rounds");
            obs::count("recovery.repair_mixsplits", round.mixSplits);
            obs::LogLine(obs::LogLevel::kInfo, "recovery.splice")
                .num("cycle", cycle)
                .num("round", report.roundsUsed)
                .num("mix_splits", round.mixSplits)
                .num("input_droplets", round.inputDroplets)
                .num("span_cycles", round.span);
            if (backoffMul < (1u << 15)) backoffMul *= 2;
            report.rounds.push_back(std::move(round));
          } else {
            state.repairForests.pop_back();
          }
        }
      }
    }

    // --- termination --------------------------------------------------------
    bool anyRunnable = false;
    for (const RtTask& rt : state.tasks) {
      if (rt.done) continue;
      bool ok = true;
      for (const Operand& op : rt.ops) {
        if (op.kind == OperandKind::kAwaitRepair) ok = false;
        if (op.kind == OperandKind::kDroplet &&
            state.tasks[op.producer].out[op.slot].status !=
                DropStatus::kLive) {
          ok = false;
        }
      }
      if (ok) {
        anyRunnable = true;
        break;
      }
    }
    bool pendingFault = false;
    if (faulty && !budgetStopped &&
        report.roundsUsed <= options_.retryBudget) {
      for (const RtTask& rt : state.tasks) {
        for (const RtDroplet& d : rt.out) {
          if (!d.flagged && d.faultCycle != 0 &&
              (d.status == DropStatus::kLive ||
               d.status == DropStatus::kEmitted ||
               d.status == DropStatus::kLost)) {
            pendingFault = true;
            break;
          }
        }
        if (pendingFault) break;
      }
    }
    if (!executedAny && !anyRunnable && !pendingFault &&
        state.repairNeed.empty()) {
      break;
    }
  }

  // --- final accounting -----------------------------------------------------
  for (const RtTask& rt : state.tasks) {
    for (const RtDroplet& d : rt.out) {
      if (d.status != DropStatus::kEmitted) continue;
      ++report.delivered;
      if (d.cfErr > threshold) ++report.escapedErrors;
    }
  }
  if (report.delivered < report.demand) {
    report.shortfall = report.demand - report.delivered;
    degrade("demand shortfall");
  }
  report.faults = injector.events();
  if (report.completionCycle == 0) report.completionCycle = cycle;
  obs::gaugeSet("recovery.delivered", report.delivered);
  obs::gaugeSet("recovery.shortfall", report.shortfall);
  obs::gaugeSet("recovery.completion_cycle", report.completionCycle);
  return report;
}

std::string renderReport(const RecoveryReport& report) {
  std::ostringstream out;
  out << "recovery: " << report.delivered << "/" << report.demand
      << " targets delivered";
  if (report.shortfall > 0) out << " (shortfall " << report.shortfall << ")";
  out << "\n  faults injected: " << report.faults.size()
      << "  discarded: " << report.discarded
      << "  escaped: " << report.escapedErrors << "\n  repair rounds: "
      << report.roundsUsed << "/" << report.retryBudget
      << "  extra mix-splits: " << report.extraMixSplits
      << "  extra inputs: " << report.extraInputDroplets;
  if (report.extraActuations > 0) {
    out << "  extra actuations: " << report.extraActuations;
  }
  out << "\n  completion: cycle " << report.completionCycle << " (fault-free "
      << report.baseCompletion << ")";
  if (report.mixersLost > 0 || report.storageLost > 0) {
    out << "\n  hardware lost: " << report.mixersLost << " mixers, "
        << report.storageLost << " storage units";
  }
  if (report.degraded) {
    out << "\n  DEGRADED: " << report.degradationReason;
  }
  out << "\n";
  return out.str();
}

}  // namespace dmf::engine
