#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <stdexcept>

#include "check/oracles.h"
#include "dmf/errors.h"
#include "engine/serialize.h"
#include "fleet.h"
#include "runs.h"
#include "workload/random_ratios.h"
#include "workloads.h"

namespace perfbench {

namespace {

double processCpuMs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1000.0 +
           static_cast<double>(t.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double processPeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

dmf::engine::StreamingPlan planDirect(const dmf::fleet::UserStream& user) {
  const dmf::engine::MdstEngine engine(user.ratio);
  dmf::engine::StreamingRequest request = user.request;
  request.jobs = 1;
  return user.optimize ? dmf::engine::planStreamingOptimized(engine, request)
                       : dmf::engine::planStreaming(engine, request);
}

}  // namespace

FleetScenario makeFleetScenario(std::uint64_t seed, unsigned jobs) {
  FleetScenario scenario;
  dmf::fleet::UserStream heavy;
  heavy.ratio = dmf::Ratio{std::vector<std::uint64_t>{2, 1, 1, 1, 1, 1, 9}};
  heavy.request.demand = 256;
  heavy.request.storageCap = 3;
  heavy.weight = 8.0;
  scenario.users.push_back(heavy);

  // The 8 light users are the 8 shapes of (ratio sum 8 or 16) x (2 or 3
  // parts) x (cap 2 or 3), each with a demand from its own eighth of
  // [16, 48), so every seed dispatches the same mix; the seed picks the
  // ratios, the demands within their eighths and which shape gets which.
  std::mt19937_64 rng(streamSeed(seed, 3));
  std::vector<unsigned> demandSlots = {0, 1, 2, 3, 4, 5, 6, 7};
  std::shuffle(demandSlots.begin(), demandSlots.end(), rng);
  for (unsigned shape = 0; shape < 8; ++shape) {
    for (unsigned attempt = 0;; ++attempt) {
      if (attempt == 64) {
        throw std::logic_error("fleet_kill: no runnable light user of shape " +
                               std::to_string(shape));
      }
      dmf::fleet::UserStream light;
      const std::uint64_t sum = (shape & 1u) != 0 ? 16 : 8;
      const std::size_t parts = (shape & 2u) != 0 ? 3 : 2;
      light.ratio = dmf::workload::RandomRatioGenerator(sum, parts, rng()).next();
      light.request.demand = 16 + 4 * demandSlots[shape] + rng() % 4;
      light.request.storageCap = (shape & 4u) != 0 ? 3 : 2;
      light.weight = 1.0;
      try {
        (void)planDirect(light);
      } catch (const dmf::InfeasibleError&) {
        continue;  // a stream no chip could run: draw another ratio
      }
      scenario.users.push_back(light);
      break;
    }
  }

  scenario.options.chips = dmf::fleet::defaultFleet(4);
  scenario.options.policy = "wfq";
  scenario.options.jobs = jobs;
  scenario.unkilled = dmf::fleet::dispatchFleet(scenario.users, scenario.options);
  scenario.options.kill.active = true;
  scenario.options.kill.chip = 1;
  scenario.options.kill.cycle = scenario.unkilled.makespan / 2;
  for (const dmf::fleet::UserStream& user : scenario.users) {
    scenario.referencePlans.push_back(
        dmf::engine::toJson(planDirect(user)).dump());
  }
  return scenario;
}

bool checkFleetResult(const FleetScenario& scenario,
                      const dmf::fleet::FleetResult& fleet, RunResult& result) {
  bool ok = true;
  auto fail = [&](const std::string& what) {
    ok = false;
    result.mismatch("fleet_kill: " + what);
  };
  if (fleet.plansJson().dump() != scenario.unkilled.plansJson().dump()) {
    fail("plans differ with and without the kill");
  }
  if (fleet.users.size() != scenario.referencePlans.size()) {
    fail("user count");
    return false;
  }
  for (std::size_t u = 0; u < fleet.users.size(); ++u) {
    if (dmf::engine::toJson(fleet.users[u].plan).dump() !=
        scenario.referencePlans[u]) {
      fail("user " + std::to_string(u) + " plan differs from planStreaming");
    }
    const dmf::engine::MdstEngine engine(scenario.users[u].ratio);
    dmf::check::CheckResult check;
    dmf::check::checkStreamingPlan(engine, scenario.users[u].request,
                                   fleet.users[u].plan, check);
    for (const std::string& f : check.failures) fail(f);
  }
  std::uint64_t busy = 0;
  std::uint64_t service = 0;
  for (const auto& chip : fleet.chips) busy += chip.busyCycles;
  for (const auto& user : fleet.users) service += user.serviceCycles;
  if (busy != service) fail("chip busy cycles != user service cycles");
  if (fleet.degraded) fail("degraded: " + fleet.degradationReason);
  return ok;
}

RunResult runFleetKill(const RunOptions& options) {
  // Serial planning: with two planning threads a dispatch takes one of two
  // durations, depending on which thread picks up the heavy user, and its
  // median flips between them from run to run.
  constexpr unsigned kJobs = 1;
  RunResult result;
  // Set-up is the scenario (its per-user reference plans and the unkilled
  // dispatch) plus the first, cold dispatch. The dispatch speed flips every
  // second or so, so the set-ups are spread over the run, between the
  // measured dispatches, and setup_s is their mean.
  std::vector<double> setupTimes;
  FleetScenario scenario;
  dmf::fleet::FleetResult first;
  std::string firstJson;
  auto setUp = [&] {
    const auto t0 = Clock::now();
    scenario = makeFleetScenario(options.seed, kJobs);
    first = dmf::fleet::dispatchFleet(scenario.users, scenario.options);
    firstJson = first.toJson(true).dump();
    setupTimes.push_back(secondsBetween(t0, Clock::now()));
  };
  setUp();

  // Each dispatch lands in the window it ends in, with the CPU it took.
  const double window = windowSeconds(options.workload);
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::floor(options.seconds / window)));
  std::vector<Window> windows(count, Window{window, {}, 0.0});
  std::uint64_t completed = 0;
  std::uint64_t differing = 0;
  std::uint64_t errors = 0;
  const auto start = Clock::now();
  const auto deadline = after(start, options.seconds);
  while (Clock::now() < deadline) {
    if (Clock::now() >= after(start, options.seconds * static_cast<double>(
                                         setupTimes.size()) / kSetupRepeats)) {
      setUp();
      continue;
    }
    const auto t0 = Clock::now();
    const double cpu0 = processCpuMs();
    try {
      const dmf::fleet::FleetResult fleet =
          dmf::fleet::dispatchFleet(scenario.users, scenario.options);
      const std::string json = fleet.toJson(true).dump();
      const auto t1 = Clock::now();
      ++completed;
      if (json != firstJson) ++differing;
      const auto k = static_cast<std::size_t>(secondsBetween(start, t1) /
                                              window);
      if (k < count) {
        windows[k].latencyMs.push_back(msBetween(t0, t1));
        windows[k].cpuMs += processCpuMs() - cpu0;
      }
    } catch (const std::exception& e) {
      ++errors;
      if (errors == 1) result.notes.push_back(std::string("dispatch: ") + e.what());
    }
  }

  result.attempted = completed + errors;
  result.failed = errors + differing;
  if (differing > 0) {
    result.mismatch(std::to_string(differing) +
                    " dispatches differ from the first");
  }
  if (!checkFleetResult(scenario, first, result)) result.failed += 1;
  if (first.migrations == 0) {
    result.notes.push_back("note: the kill migrated no pass");
  }

  double setupSum = 0.0;
  for (const double s : setupTimes) setupSum += s;
  result.add("setup_s", setupSum / static_cast<double>(setupTimes.size()), "s");
  addWindowed(windows, result);
  result.add("peak_rss_mb", processPeakRssMb(), "MB");
  result.notes.push_back(
      "fleet: " + std::to_string(completed) + " dispatches, makespan " +
      std::to_string(first.makespan) + " cycles, migrations " +
      std::to_string(first.migrations) + ", placements " +
      std::to_string(first.log.size()));
  return result;
}

}  // namespace perfbench
