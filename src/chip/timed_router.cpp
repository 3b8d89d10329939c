#include "chip/timed_router.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <optional>
#include <stdexcept>

#include "chip/error.h"
#include "obs/scope.h"

namespace dmf::chip {

namespace {

// Hard limit on steps per phase (A* horizon). A phase that cannot finish
// within the horizon fails.
constexpr unsigned kHorizon = 128;
// Number of priority rotations to try before giving up.
constexpr unsigned kRetries = 8;

int chebyshev(const Cell& a, const Cell& b) {
  const int dx = a.x > b.x ? a.x - b.x : b.x - a.x;
  const int dy = a.y > b.y ? a.y - b.y : b.y - a.y;
  return std::max(dx, dy);
}

// A droplet occupies its final position after arrival.
const Cell& positionAt(const Trajectory& traj, unsigned step) {
  const std::size_t index =
      std::min<std::size_t>(step, traj.positions.size() - 1);
  return traj.positions[index];
}

}  // namespace

unsigned Trajectory::arrivalStep() const {
  return positions.empty() ? 0u
                           : static_cast<unsigned>(positions.size() - 1);
}

unsigned Trajectory::actuations() const {
  unsigned count = 0;
  for (std::size_t i = 1; i < positions.size(); ++i) {
    if (!(positions[i] == positions[i - 1])) ++count;
  }
  return count;
}

TimedRouter::TimedRouter(const Layout& layout, TimedRouterOptions options)
    : layout_(&layout), options_(options) {}

PhaseResult TimedRouter::routePhase(std::vector<PhaseMove> moves) const {
  obs::Span span("chip.route_phase", "chip");
  if (obs::tracer() != nullptr) {
    span.arg("moves", std::to_string(moves.size()));
  }
  const Layout& layout = *layout_;
  for (const PhaseMove& m : moves) {
    for (const Cell& c : {m.from, m.to}) {
      if (c.x < 0 || c.y < 0 || c.x >= layout.width() ||
          c.y >= layout.height()) {
        throw std::invalid_argument("TimedRouter: endpoint off the array");
      }
    }
  }

  // Longest moves first; retries rotate the order.
  std::stable_sort(moves.begin(), moves.end(),
                   [](const PhaseMove& a, const PhaseMove& b) {
                     return manhattan(a.from, a.to) > manhattan(b.from, b.to);
                   });

  const auto w = static_cast<unsigned>(layout.width());
  const auto h = static_cast<unsigned>(layout.height());
  const std::size_t cells = static_cast<std::size_t>(w) * h;
  const std::size_t states = cells * (kHorizon + 1);

  // Phase-wide scratch, allocated once and reused by every move and retry.
  //
  // moduleGrid flattens Layout::moduleAt (a linear scan over modules) into
  // one lookup per probe: module id + 1, or 0 for a free cell.
  std::vector<std::uint32_t> moduleGrid(cells, 0);
  for (std::uint32_t id = 0; id < layout.moduleCount(); ++id) {
    const Module& m = layout.module(id);
    for (int y = m.origin.y; y < m.origin.y + m.height; ++y) {
      for (int x = m.origin.x; x < m.origin.x + m.width; ++x) {
        moduleGrid[static_cast<std::size_t>(y) * w +
                   static_cast<std::size_t>(x)] = id + 1;
      }
    }
  }
  auto cellIndex = [w](const Cell& c) {
    return static_cast<std::size_t>(c.y) * w + static_cast<std::size_t>(c.x);
  };

  // Per-step occupancy index over the committed trajectories: a droplet on
  // open cell `c` at step `s` sets occupied[s][c]. conflicts() then probes
  // the 3x3 neighbourhood at steps s-1/s/s+1 — O(1) per node expansion
  // instead of a scan over every committed trajectory. Steps run to
  // horizon+1 because the dynamic constraint looks one step past the last
  // expandable step.
  std::vector<std::uint8_t> occupied(cells * (kHorizon + 2), 0);
  auto commitOccupancy = [&](const Trajectory& traj) {
    for (unsigned s = 0; s <= kHorizon + 1; ++s) {
      const Cell& oc = positionAt(traj, s);
      if (moduleGrid[cellIndex(oc)] != 0) continue;
      occupied[s * cells + cellIndex(oc)] = 1;
    }
  };
  // Fluidic constraints apply on open cells only; module walls isolate
  // droplets physically.
  auto conflicts = [&](const Cell& c, unsigned step) {
    if (moduleGrid[cellIndex(c)] != 0) return false;
    for (unsigned s : {step == 0 ? step : step - 1, step, step + 1}) {
      const std::uint8_t* slab = occupied.data() + s * cells;
      const int y0 = c.y > 0 ? c.y - 1 : 0;
      const int y1 = c.y + 1 < static_cast<int>(h) ? c.y + 1 : c.y;
      const int x0 = c.x > 0 ? c.x - 1 : 0;
      const int x1 = c.x + 1 < static_cast<int>(w) ? c.x + 1 : c.x;
      for (int y = y0; y <= y1; ++y) {
        for (int x = x0; x <= x1; ++x) {
          if (slab[static_cast<std::size_t>(y) * w +
                   static_cast<std::size_t>(x)] != 0) {
            return true;
          }
        }
      }
    }
    return false;
  };

  // A* scratch shared across moves: `parent[s]` is meaningful only when
  // stamp[s] carries the current move's epoch, so starting the next move is
  // one counter bump, not an O(states) refill. The open list is a manual
  // binary heap over the same reused vector.
  std::vector<int> parent(states, -2);
  std::vector<std::uint32_t> stamp(states, 0);
  std::uint32_t epoch = 0;
  using Entry = std::pair<unsigned, std::size_t>;  // (f, state)
  std::vector<Entry> open;

  std::string lastError = "no moves";
  for (unsigned attempt = 0; attempt <= kRetries; ++attempt) {
    std::vector<Trajectory> done;
    done.reserve(moves.size());
    if (attempt > 0) {
      std::fill(occupied.begin(), occupied.end(), 0);
    }
    bool failed = false;
    for (const PhaseMove& move : moves) {
      std::optional<Trajectory> traj = std::nullopt;
      try {
        traj = [&]() -> Trajectory {
          // Space-time A* against the occupancy index.
          const std::uint32_t fromModule = moduleGrid[cellIndex(move.from)];
          const std::uint32_t toModule = moduleGrid[cellIndex(move.to)];
          auto passable = [&](const Cell& c) {
            if (c.x < 0 || c.y < 0 || c.x >= layout.width() ||
                c.y >= layout.height()) {
              return false;
            }
            const std::uint32_t occupant = moduleGrid[cellIndex(c)];
            return occupant == 0 || occupant == fromModule ||
                   occupant == toModule;
          };

          if (++epoch == 0) {  // stamp wrap: reset and start over at 1
            std::fill(stamp.begin(), stamp.end(), 0);
            epoch = 1;
          }
          auto encode = [&](const Cell& c, unsigned step) {
            return static_cast<std::size_t>(step) * cells + cellIndex(c);
          };
          open.clear();
          const std::size_t start = encode(move.from, 0);
          stamp[start] = epoch;
          parent[start] = -1;
          open.push_back(
              {static_cast<unsigned>(manhattan(move.from, move.to)), start});
          std::size_t goalState = states;
          while (!open.empty()) {
            std::pop_heap(open.begin(), open.end(), std::greater<>{});
            const auto [f, state] = open.back();
            open.pop_back();
            const unsigned step = static_cast<unsigned>(state / cells);
            const Cell c{static_cast<int>(state % w),
                         static_cast<int>((state / w) % h)};
            if (c == move.to) {
              goalState = state;
              break;
            }
            if (step == kHorizon) continue;
            const Cell next[5] = {{c.x, c.y},     {c.x + 1, c.y},
                                  {c.x - 1, c.y}, {c.x, c.y + 1},
                                  {c.x, c.y - 1}};
            for (const Cell& n : next) {
              if (!passable(n)) continue;
              const std::size_t ns = encode(n, step + 1);
              if (stamp[ns] == epoch) continue;
              if (conflicts(n, step + 1)) continue;
              stamp[ns] = epoch;
              parent[ns] = static_cast<int>(state);
              open.push_back({step + 1 +
                                  static_cast<unsigned>(manhattan(n, move.to)),
                              ns});
              std::push_heap(open.begin(), open.end(), std::greater<>{});
            }
          }
          if (goalState == states) {
            throw ChipError("route", kHorizon,
                            "droplet from (" + std::to_string(move.from.x) +
                                "," + std::to_string(move.from.y) +
                                ") found no interference-free path",
                            move.tag);
          }
          Trajectory traj2;
          traj2.tag = move.tag;
          for (std::size_t s = goalState;;) {
            traj2.positions.push_back(Cell{static_cast<int>(s % w),
                                           static_cast<int>((s / w) % h)});
            const int p = parent[s];
            if (p < 0) break;
            s = static_cast<std::size_t>(p);
          }
          std::reverse(traj2.positions.begin(), traj2.positions.end());
          return traj2;
        }();
      } catch (const std::runtime_error& e) {
        lastError = e.what();
        failed = true;
        break;
      }
      commitOccupancy(*traj);
      done.push_back(std::move(*traj));
    }
    if (!failed) {
      PhaseResult result;
      result.trajectories = std::move(done);
      for (const Trajectory& traj : result.trajectories) {
        result.makespan = std::max(result.makespan, traj.arrivalStep());
        result.totalActuations += traj.actuations();
      }
      if (options_.verifyInterference) {
        checkInterference(result.trajectories);
      }
      if (obs::MetricsRegistry* m = obs::metrics()) {
        // A stall is a step on which a droplet held its cell before arrival
        // (waiting out another droplet's reservation).
        std::uint64_t stalls = 0;
        for (const Trajectory& traj : result.trajectories) {
          const unsigned arrival = traj.arrivalStep();
          for (unsigned step = 1;
               step <= arrival && step < traj.positions.size(); ++step) {
            if (traj.positions[step] == traj.positions[step - 1]) ++stalls;
          }
        }
        m->counter("chip.router.stall_cycles").add(stalls);
        m->counter("chip.router.phases").add(1);
        m->counter("chip.router.droplets").add(result.trajectories.size());
        m->counter("chip.router.retries").add(attempt);
      }
      return result;
    }
    // Rotate priorities: the failing order's head goes to the back.
    if (!moves.empty()) {
      std::rotate(moves.begin(), moves.begin() + 1, moves.end());
    }
  }
  throw ChipError("route", ChipError::kNoStep,
                  "phase unroutable after " +
                      std::to_string(kRetries + 1) + " attempts (" +
                      lastError + ")");
}

void TimedRouter::checkInterference(
    const std::vector<Trajectory>& trajectories) const {
  unsigned makespan = 0;
  for (const Trajectory& t : trajectories) {
    makespan = std::max(makespan, t.arrivalStep());
  }
  for (std::size_t i = 0; i < trajectories.size(); ++i) {
    for (std::size_t j = i + 1; j < trajectories.size(); ++j) {
      for (unsigned step = 0; step <= makespan; ++step) {
        const Cell& a = positionAt(trajectories[i], step);
        if (layout_->moduleAt(a).has_value()) continue;
        // Static constraint at `step`, dynamic against step +/- 1.
        for (unsigned s : {step == 0 ? step : step - 1, step, step + 1}) {
          const Cell& b = positionAt(trajectories[j], s);
          if (layout_->moduleAt(b).has_value()) continue;
          if (chebyshev(a, b) <= 1) {
            throw std::logic_error(
                "TimedRouter: fluidic constraint violated between droplets " +
                std::to_string(trajectories[i].tag) + " and " +
                std::to_string(trajectories[j].tag) + " at step " +
                std::to_string(step));
          }
        }
      }
    }
  }
}

std::string renderPhase(const Layout& layout, const PhaseResult& result) {
  std::string out;
  for (unsigned step = 0; step <= result.makespan; ++step) {
    out += "step " + std::to_string(step) + ":\n";
    std::vector<std::string> grid(
        static_cast<std::size_t>(layout.height()),
        std::string(static_cast<std::size_t>(layout.width()), '.'));
    for (const Module& m : layout.modules()) {
      const char tag =
          static_cast<char>(std::tolower(moduleKindTag(m.kind)[0]));
      for (int y = m.origin.y; y < m.origin.y + m.height; ++y) {
        for (int x = m.origin.x; x < m.origin.x + m.width; ++x) {
          grid[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = tag;
        }
      }
    }
    for (std::size_t d = 0; d < result.trajectories.size(); ++d) {
      const Cell& c = positionAt(result.trajectories[d], step);
      grid[static_cast<std::size_t>(c.y)][static_cast<std::size_t>(c.x)] =
          static_cast<char>('A' + (d % 26));
    }
    for (const std::string& row : grid) {
      out += "  " + row + "\n";
    }
  }
  return out;
}

}  // namespace dmf::chip
