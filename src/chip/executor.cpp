#include "chip/executor.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "chip/error.h"
#include "obs/scope.h"

namespace dmf::chip {

using forest::DropletFate;
using forest::kNoTask;
using forest::TaskForest;
using forest::TaskId;

std::string_view moveKindTag(MoveKind kind) {
  switch (kind) {
    case MoveKind::kDispense:
      return "disp";
    case MoveKind::kHandOff:
      return "hand";
    case MoveKind::kPark:
      return "park";
    case MoveKind::kUnpark:
      return "fetch";
    case MoveKind::kToWaste:
      return "waste";
    case MoveKind::kToOutput:
      return "out";
  }
  throw std::invalid_argument("moveKindTag: unknown kind");
}

std::uint64_t ExecutionTrace::costOf(MoveKind kind) const {
  std::uint64_t total = 0;
  for (const Move& m : moves) {
    if (m.kind == kind) total += m.cost;
  }
  return total;
}

ChipExecutor::ChipExecutor(const Layout& layout, Router& router)
    : layout_(&layout), router_(&router) {
  mixers_ = layout.byKind(ModuleKind::kMixer);
  storage_ = layout.byKind(ModuleKind::kStorage);
  waste_ = layout.byKind(ModuleKind::kWaste);
  output_ = layout.byKind(ModuleKind::kOutput);
  if (mixers_.empty()) {
    throw std::invalid_argument("ChipExecutor: layout has no mixer");
  }
  if (waste_.empty()) {
    throw std::invalid_argument("ChipExecutor: layout has no waste module");
  }
  if (output_.empty()) {
    throw std::invalid_argument("ChipExecutor: layout has no output port");
  }
}

ExecutionTrace ChipExecutor::run(const TaskForest& forest,
                                 const sched::Schedule& schedule) const {
  if (schedule.mixerCount > mixers_.size()) {
    throw std::invalid_argument(
        "ChipExecutor: schedule uses " + std::to_string(schedule.mixerCount) +
        " mixers but the layout has " + std::to_string(mixers_.size()));
  }
  sched::validateOrThrow(forest, schedule);

  const obs::Span runSpan("chip.execute", "chip");
  ExecutionTrace trace;
  // Storage occupancy intervals [begin, end) per storage module.
  std::vector<std::vector<std::pair<unsigned, unsigned>>> occupied(
      storage_.size());

  auto mixerOf = [&](TaskId id) {
    return mixers_[schedule.mixers[id]];
  };
  auto cycleOf = [&](TaskId id) { return schedule.cycles[id]; };

  auto nearest = [&](ModuleId from, const std::vector<ModuleId>& pool) {
    ModuleId best = pool.front();
    unsigned bestCost = std::numeric_limits<unsigned>::max();
    for (ModuleId candidate : pool) {
      const unsigned c = router_->cost(from, candidate);
      if (c < bestCost) {
        bestCost = c;
        best = candidate;
      }
    }
    return best;
  };

  // --- operand arrivals (dispensing) --------------------------------------
  {
    const obs::Span dispenseSpan("chip.dispense_batch", "chip");
    for (TaskId id = 0; id < forest.taskCount(); ++id) {
      const forest::Task t = forest.task(id);
      const auto& node = forest.graph().node(t.node);
      const unsigned cycle = cycleOf(id);
      for (const auto& [dep, child] : {std::pair{t.depLeft, node.left},
                                       std::pair{t.depRight, node.right}}) {
        if (dep != kNoTask) continue;  // handled by the producer's droplet
        const std::size_t fluid = forest.graph().node(child).value.pureFluid();
        trace.moves.push_back(Move{MoveKind::kDispense, cycle,
                                   layout_->reservoirFor(fluid), mixerOf(id),
                                   0});
      }
    }
  }

  // --- output droplets -----------------------------------------------------
  obs::TraceRecorder* recorder = obs::tracer();
  std::uint64_t phaseStart = recorder != nullptr ? recorder->nowNanos() : 0;
  for (TaskId id = 0; id < forest.taskCount(); ++id) {
    const unsigned produced = cycleOf(id);
    const ModuleId from = mixerOf(id);
    const forest::Task task = forest.task(id);
    for (const auto& drop : task.out) {
      switch (drop.fate) {
        case DropletFate::kTarget:
          trace.moves.push_back(Move{MoveKind::kToOutput, produced + 1, from,
                                     nearest(from, output_), 0});
          break;
        case DropletFate::kWaste:
          trace.moves.push_back(Move{MoveKind::kToWaste, produced + 1, from,
                                     nearest(from, waste_), 0});
          break;
        case DropletFate::kConsumed: {
          const unsigned consumed = cycleOf(drop.consumer);
          const ModuleId to = mixerOf(drop.consumer);
          if (consumed == produced + 1) {
            trace.moves.push_back(
                Move{MoveKind::kHandOff, consumed, from, to, 0});
            break;
          }
          // Park in the free storage module with the smallest detour.
          const unsigned begin = produced + 1;
          const unsigned end = consumed;  // leaves storage at `consumed`
          std::size_t best = storage_.size();
          unsigned bestDetour = std::numeric_limits<unsigned>::max();
          for (std::size_t si = 0; si < storage_.size(); ++si) {
            const bool free = std::all_of(
                occupied[si].begin(), occupied[si].end(),
                [&](const std::pair<unsigned, unsigned>& iv) {
                  return end <= iv.first || iv.second <= begin;
                });
            if (!free) continue;
            const unsigned detour = router_->cost(from, storage_[si]) +
                                    router_->cost(storage_[si], to);
            if (detour < bestDetour) {
              bestDetour = detour;
              best = si;
            }
          }
          if (best == storage_.size()) {
            throw ChipError(
                "park", begin,
                "not enough storage modules to park a droplet (cycles " +
                    std::to_string(begin) + ".." + std::to_string(end - 1) +
                    ")",
                id);
          }
          occupied[best].push_back({begin, end});
          trace.moves.push_back(
              Move{MoveKind::kPark, begin, from, storage_[best], 0});
          trace.moves.push_back(
              Move{MoveKind::kUnpark, consumed, storage_[best], to, 0});
          break;
        }
      }
    }
  }

  if (recorder != nullptr) {
    recorder->completeEvent("chip.emit_batch", "chip", phaseStart,
                            recorder->nowNanos() - phaseStart);
    phaseStart = recorder->nowNanos();
  }

  // --- route every move, accumulate costs and the actuation heat-map ------
  trace.actuations.assign(
      static_cast<std::size_t>(layout_->height()),
      std::vector<unsigned>(static_cast<std::size_t>(layout_->width()), 0));
  for (Move& move : trace.moves) {
    const Route route = router_->route(move.from, move.to);
    move.cost = route.cost();
    trace.totalCost += move.cost;
    for (std::size_t i = 1; i < route.cells.size(); ++i) {
      const Cell& c = route.cells[i];
      unsigned& count =
          trace.actuations[static_cast<std::size_t>(c.y)]
                          [static_cast<std::size_t>(c.x)];
      ++count;
      trace.peakActuations = std::max(trace.peakActuations, count);
    }
  }
  std::sort(trace.moves.begin(), trace.moves.end(),
            [](const Move& a, const Move& b) { return a.cycle < b.cycle; });
  if (recorder != nullptr) {
    recorder->completeEvent("chip.route_batch", "chip", phaseStart,
                            recorder->nowNanos() - phaseStart);
  }

  // --- peak storage occupancy ---------------------------------------------
  unsigned horizon = schedule.completionTime + 2;
  std::vector<unsigned> used(horizon + 1, 0);
  for (const auto& intervals : occupied) {
    for (const auto& [begin, end] : intervals) {
      for (unsigned t = begin; t < end && t <= horizon; ++t) {
        ++used[t];
        trace.peakStorageUsed = std::max(trace.peakStorageUsed, used[t]);
      }
    }
  }

  if (obs::MetricsRegistry* m = obs::metrics()) {
    for (const Move& move : trace.moves) {
      m->counter(std::string("chip.moves.") +
                 std::string(moveKindTag(move.kind)))
          .add(1);
    }
    m->counter("chip.actuations").add(trace.totalCost);
    m->gauge("chip.storage_peak").accumulateMax(trace.peakStorageUsed);
    m->gauge("chip.peak_electrode_actuations")
        .accumulateMax(trace.peakActuations);
  }
  return trace;
}

}  // namespace dmf::chip
