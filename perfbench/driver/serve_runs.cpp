// The three served workloads: load goes through the real daemon over
// loopback TCP, from this one generator process with at most 4 threads and
// 4 connections.
#include <poll.h>
#include <sys/prctl.h>

#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "daemon.h"
#include "load.h"
#include "reference.h"
#include "runs.h"
#include "workloads.h"

namespace perfbench {

void Tally::record(const Request& request, const std::string& response) {
  Seen& seen = byKey[request.key];
  if (seen.line.empty()) seen.line = request.line;
  for (auto& [bytes, count] : seen.responses) {
    if (bytes == response) {
      ++count;
      return;
    }
  }
  seen.responses.emplace_back(response, 1);
}

void Tally::merge(Tally&& other) {
  attempted += other.attempted;
  transportFailed += other.transportFailed;
  latencyMs.insert(latencyMs.end(), other.latencyMs.begin(),
                   other.latencyMs.end());
  doneAt.insert(doneAt.end(), other.doneAt.begin(), other.doneAt.end());
  lines.insert(lines.end(), std::make_move_iterator(other.lines.begin()),
               std::make_move_iterator(other.lines.end()));
  for (auto& [key, seen] : other.byKey) {
    Seen& mine = byKey[key];
    if (mine.line.empty()) mine.line = seen.line;
    for (auto& [bytes, count] : seen.responses) {
      bool found = false;
      for (auto& [have, n] : mine.responses) {
        if (have == bytes) {
          n += count;
          found = true;
          break;
        }
      }
      if (!found) mine.responses.emplace_back(std::move(bytes), count);
    }
  }
}

void checkTally(const Tally& tally, ReferenceSet& refs, RunResult& result) {
  for (const auto& [key, seen] : tally.byKey) refs.add(key, seen.line);
  refs.compute(4, result);
  std::uint64_t failed = tally.transportFailed;
  for (const auto& [key, seen] : tally.byKey) {
    const Expected& expected = refs.expected(key);
    for (const auto& [bytes, count] : seen.responses) {
      if (!refs.matches(key, bytes)) {
        failed += count;
        result.mismatch(key + " answered " + bytes.substr(0, 160));
      } else if (!expected.ok && expected.kind != "infeasible") {
        failed += count;
      }
    }
  }
  result.attempted += tally.attempted;
  result.failed += failed;
}

Tally runClosedLoop(const std::function<Exchange(unsigned lane)>& makeExchange,
                    unsigned lanes, Clock::time_point deadline,
                    RequestStream& stream, bool logLines) {
  std::vector<Tally> tallies(lanes);
  auto body = [&](unsigned lane) {
    Tally& tally = tallies[lane];
    const Exchange exchange = makeExchange(lane);
    std::string response;
    while (Clock::now() < deadline) {
      const Request request = stream.next();
      if (logLines) tally.lines.push_back(request.line);
      const auto sent = Clock::now();
      ++tally.attempted;
      if (!exchange(request.line, response)) {
        ++tally.transportFailed;
        break;
      }
      const auto done = Clock::now();
      tally.latencyMs.push_back(msBetween(sent, done));
      tally.doneAt.push_back(done);
      tally.record(request, response);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned lane = 1; lane < lanes; ++lane) threads.emplace_back(body, lane);
  body(0);
  for (std::thread& t : threads) t.join();
  Tally total;
  for (Tally& t : tallies) total.merge(std::move(t));
  return total;
}

std::vector<Window> windowsOf(const Tally& tally, Clock::time_point start,
                              double seconds,
                              const std::vector<double>& cpuAtBoundary) {
  const std::size_t n = cpuAtBoundary.empty() ? 0 : cpuAtBoundary.size() - 1;
  std::vector<Window> windows(n);
  for (std::size_t k = 0; k < n; ++k) {
    windows[k].seconds = seconds;
    windows[k].cpuMs = cpuAtBoundary[k + 1] - cpuAtBoundary[k];
  }
  for (std::size_t i = 0; i < tally.doneAt.size(); ++i) {
    const double at = secondsBetween(start, tally.doneAt[i]) / seconds;
    if (at >= 0.0 && at < static_cast<double>(n)) {
      windows[static_cast<std::size_t>(at)].latencyMs.push_back(tally.latencyMs[i]);
    }
  }
  return windows;
}

unsigned closedLanes(const std::string& workload) {
  return workload == "hot_serve" ? 1 : 2;
}

namespace {

void writeRequestLog(const RunOptions& options,
                     const std::vector<std::string>& lines) {
  if (options.requestsOut.empty()) return;
  std::ofstream out(options.requestsOut, std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
  if (!out) {
    throw std::runtime_error("cannot write " + options.requestsOut);
  }
}

/// Sends each warm-up request once, over up to 4 connections.
void warm(unsigned short port, const std::vector<Request>& requests) {
  const unsigned lanes = static_cast<unsigned>(
      std::min<std::size_t>(4, std::max<std::size_t>(1, requests.size())));
  std::vector<std::string> errors(lanes);
  auto body = [&](unsigned lane) {
    try {
      Connection conn(port);
      std::string response;
      for (std::size_t i = lane; i < requests.size(); i += lanes) {
        if (!conn.send(requests[i].line + "\n") || !conn.readLine(response) ||
            response.rfind("{\"ok\":true", 0) != 0) {
          errors[lane] = requests[i].line + " answered " + response.substr(0, 200);
          return;
        }
      }
    } catch (const std::exception& e) {
      errors[lane] = e.what();
    }
  };
  std::vector<std::thread> threads;
  for (unsigned lane = 1; lane < lanes; ++lane) threads.emplace_back(body, lane);
  body(0);
  for (std::thread& t : threads) t.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error("cache warm-up failed: " + error);
  }
}

/// The daemon of one served run. Set-up (spawn, first ping, warm-up) is
/// repeated kSetupRepeats times; the last daemon serves the measured run.
class ServedDaemon {
 public:
  ServedDaemon(const RunOptions& options, const RequestStream& stream,
               std::vector<double>& setupTimes,
               std::vector<std::string>& logLines) {
    for (unsigned r = 0; r < kSetupRepeats; ++r) {
      const auto start = Clock::now();
      auto daemon = std::make_unique<Daemon>(
          options.daemon,
          std::vector<std::string>{"--jobs", std::to_string(kDaemonJobs)},
          options.workDir + "/daemon.log");
      warm(daemon->port(), stream.warmup());
      setupTimes.push_back(secondsBetween(start, Clock::now()));
      daemon_ = std::move(daemon);
      if (r + 1 < kSetupRepeats) {
        daemon_->stop();
        daemon_.reset();
      }
    }
    for (const Request& request : stream.warmup()) {
      logLines.push_back(request.line);
    }
  }

  ServedDaemon(const ServedDaemon&) = delete;
  ServedDaemon& operator=(const ServedDaemon&) = delete;

  [[nodiscard]] Daemon& daemon() { return *daemon_; }

  /// The daemon's own counters (the `stats` op).
  [[nodiscard]] std::string stats() {
    Connection conn(daemon_->port());
    std::string reply;
    if (!conn.send("{\"op\":\"stats\"}\n") || !conn.readLine(reply)) {
      throw std::runtime_error("stats op failed");
    }
    return reply;
  }

  void stop(RunResult& result) {
    if (!daemon_->stop()) {
      result.notes.push_back("daemon did not exit cleanly");
    }
  }

 private:
  std::unique_ptr<Daemon> daemon_;
};

// ---------------------------------------------------------------------------
// Closed loop (cold_plan)

/// Exchanges over one TCP connection per lane.
std::function<Exchange(unsigned)> overTcp(unsigned short port) {
  return [port](unsigned) -> Exchange {
    std::shared_ptr<Connection> conn;
    try {
      conn = std::make_shared<Connection>(port);
    } catch (const std::exception&) {
      return [](const std::string&, std::string&) { return false; };
    }
    return [conn](const std::string& line, std::string& response) {
      return conn->send(line + "\n") && conn->readLine(response);
    };
  };
}

}  // namespace

RunResult runColdPlan(const RunOptions& options) {
  const unsigned lanes = closedLanes(options.workload);
  RunResult result;
  RequestStream stream(options.workload, options.seed);
  ReferenceSet refs;
  std::vector<std::string> logLines;
  std::vector<double> setupTimes;
  ServedDaemon served(options, stream, setupTimes, logLines);

  // The daemon's CPU is read at every window boundary, off the load threads.
  const double window = windowSeconds(options.workload);
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::floor(options.seconds / window)));
  const auto start = Clock::now();
  std::vector<double> cpuAtBoundary;
  std::jthread sampler([&] {
    for (std::size_t k = 0; k <= windows; ++k) {
      std::this_thread::sleep_until(
          after(start, static_cast<double>(k) * window));
      cpuAtBoundary.push_back(served.daemon().cpuMs());
    }
  });
  Tally tally = runClosedLoop(overTcp(served.daemon().port()), lanes,
                              after(start, options.seconds), stream,
                              !options.requestsOut.empty());
  sampler.join();
  const double rss = served.daemon().peakRssMb();
  result.daemonStats = served.stats();
  served.stop(result);

  logLines.insert(logLines.end(), tally.lines.begin(), tally.lines.end());
  writeRequestLog(options, logLines);

  checkTally(tally, refs, result);
  result.add("setup_s", median(setupTimes), "s");
  addWindowed(windowsOf(tally, start, window, cpuAtBoundary), result);
  result.add("peak_rss_mb", rss, "MB");
  result.notes.push_back("samples: " + std::to_string(tally.latencyMs.size()) +
                         " latencies over " + std::to_string(lanes) +
                         " connections in " + std::to_string(windows) +
                         " windows");
  return result;
}

namespace {

// ---------------------------------------------------------------------------
// Open loop (hot_serve)

struct Step {
  double rate = 0.0;
  double seconds = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::vector<double> latencyMs;
  std::vector<double> latenessMs;
  std::size_t backlogMid = 0;
  std::size_t backlogEnd = 0;

  [[nodiscard]] double p99() const { return quantile(latencyMs, 0.99); }
};

/// The open loop: Poisson arrivals split evenly over pipelined connections,
/// driven by one thread that multiplexes them, so the generator takes one
/// core and never contends with itself. Each request is timed from the
/// moment it was due, so a stall is charged to every request it delays.
class OpenLoop {
 public:
  OpenLoop(unsigned short port, const RunOptions& options, unsigned lanes)
      : rng_(streamSeed(options.seed, 7)),
        logLines_(!options.requestsOut.empty()) {
    for (unsigned lane = 0; lane < lanes; ++lane) {
      lanes_.push_back(Lane{std::make_unique<Connection>(port),
                            std::make_unique<RequestStream>(
                                options.workload, options.seed, lane),
                            {}, {}});
    }
  }

  /// Runs one step at `rate` for `seconds`; with `record` the responses go
  /// to the run's tally for the output check.
  Step run(double rate, double seconds, bool record) {
    // Sleep to the nanosecond: the default 50 us timer slack would make
    // every send that late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Step step;
    step.rate = rate;
    const std::size_t n = lanes_.size();
    std::exponential_distribution<double> gap(rate / static_cast<double>(n));
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
    const Clock::time_point end = after(start, seconds);
    const Clock::time_point mid = start + (end - start) / 2;
    const Clock::time_point drainDeadline = end + std::chrono::seconds(2);
    for (Lane& lane : lanes_) {
      lane.due = after(start, gap(rng_));
      lane.inflight.clear();
    }
    std::vector<pollfd> fds(n);
    std::vector<std::string> lines;
    std::string batch;
    bool sampledMid = false;
    bool sampledEnd = false;
    bool broken = false;
    for (;;) {
      const Clock::time_point now = Clock::now();
      std::size_t inflight = 0;
      Clock::time_point wake = drainDeadline;
      for (Lane& lane : lanes_) {
        batch.clear();
        while (lane.due <= now && lane.due < end) {
          const Request request = lane.stream->next();
          batch += request.line;
          batch += '\n';
          if (logLines_) sentLines_.push_back(request.line);
          step.latenessMs.push_back(msBetween(lane.due, now));
          lane.inflight.emplace_back(lane.due, request);
          ++step.sent;
          lane.due = after(lane.due, gap(rng_));
        }
        if (!batch.empty() && !lane.conn->send(batch)) broken = true;
        inflight += lane.inflight.size();
        if (lane.due < end) wake = std::min(wake, lane.due);
      }
      if (!sampledMid && now >= mid) {
        step.backlogMid = inflight;
        sampledMid = true;
      }
      if (!sampledEnd && now >= end) {
        step.backlogEnd = inflight;
        sampledEnd = true;
      }
      if (broken || now >= drainDeadline) break;
      if (inflight == 0 && wake == drainDeadline) break;  // all sent, all back

      const auto wait = std::max(Clock::duration::zero(), wake - Clock::now());
      const auto nanos =
          std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      timespec timeout{};
      timeout.tv_sec = static_cast<time_t>(nanos / 1'000'000'000);
      timeout.tv_nsec = static_cast<long>(nanos % 1'000'000'000);
      for (std::size_t i = 0; i < n; ++i) {
        fds[i] = pollfd{lanes_[i].conn->fd(), POLLIN, 0};
      }
      if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
      for (std::size_t i = 0; i < n; ++i) {
        if (fds[i].revents == 0) continue;
        Lane& lane = lanes_[i];
        lines.clear();
        if (!lane.conn->drainLines(lines)) broken = true;
        const Clock::time_point received = Clock::now();
        for (const std::string& line : lines) {
          if (lane.inflight.empty()) break;
          step.latencyMs.push_back(msBetween(lane.inflight.front().first, received));
          if (record) tally_.record(lane.inflight.front().second, line);
          ++step.ok;
          lane.inflight.pop_front();
        }
      }
    }
    for (Lane& lane : lanes_) step.failed += lane.inflight.size();
    step.seconds = secondsBetween(start, Clock::now());
    return step;
  }

  /// Closes the connections and hands over the recorded responses and,
  /// when logging, every request line sent.
  Tally finish() {
    lanes_.clear();
    tally_.lines = std::move(sentLines_);
    return std::move(tally_);
  }

 private:
  struct Lane {
    std::unique_ptr<Connection> conn;
    std::unique_ptr<RequestStream> stream;
    Clock::time_point due;
    std::deque<std::pair<Clock::time_point, Request>> inflight;
  };

  std::vector<Lane> lanes_;
  std::mt19937_64 rng_;
  bool logLines_ = false;
  std::vector<std::string> sentLines_;
  Tally tally_;
};

std::string describeStep(const char* phase, const Step& step) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << phase << " rate " << step.rate << "/s: sent " << step.sent
      << ", succeeded " << step.ok << ", failed " << step.failed << ", p50 "
      << quantile(step.latencyMs, 0.5) << " ms, p99 " << step.p99()
      << " ms, lateness p50 " << quantile(step.latenessMs, 0.5) << " ms max "
      << quantile(step.latenessMs, 1.0) << " ms, backlog " << step.backlogMid
      << "->" << step.backlogEnd;
  return out.str();
}

}  // namespace

RunResult runHotServe(const RunOptions& options) {
  // The offered rate sits well below the knee, so the figures describe the
  // service, not the queue. Each window is one open-loop step: it sends for
  // the window's length and then drains.
  constexpr double kRate = 10000.0;
  const double window = windowSeconds(options.workload);
  RunResult result;
  RequestStream stream(options.workload, options.seed);
  ReferenceSet refs;
  std::vector<std::string> logLines;
  std::vector<double> setupTimes;
  ServedDaemon served(options, stream, setupTimes, logLines);

  OpenLoop loop(served.daemon().port(), options, 4);
  (void)loop.run(kRate, 0.25, false);  // connection warm-up

  const auto count = static_cast<unsigned>(
      std::max(1.0, std::floor(options.seconds / window)));
  std::vector<Window> windows;
  std::uint64_t sent = 0;
  std::uint64_t unanswered = 0;
  for (unsigned w = 0; w < count; ++w) {
    const double cpu0 = served.daemon().cpuMs();
    Step step = loop.run(kRate, window, true);
    const double cpu1 = served.daemon().cpuMs();
    result.notes.push_back(describeStep("window", step));
    sent += step.sent;
    unanswered += step.failed;
    windows.push_back(Window{step.seconds, std::move(step.latencyMs), cpu1 - cpu0});
  }
  Tally tally = loop.finish();
  const double rss = served.daemon().peakRssMb();
  result.daemonStats = served.stats();
  served.stop(result);

  logLines.insert(logLines.end(), tally.lines.begin(), tally.lines.end());
  writeRequestLog(options, logLines);
  // Requests sent but never answered are failures too.
  tally.attempted += sent;
  tally.transportFailed += unanswered;
  checkTally(tally, refs, result);

  result.add("setup_s", median(setupTimes), "s");
  addWindowed(windows, result);
  result.add("peak_rss_mb", rss, "MB");
  return result;
}

}  // namespace perfbench
