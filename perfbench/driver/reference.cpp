#include "reference.h"

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "check/oracles.h"
#include "dmf/errors.h"
#include "engine/serialize.h"
#include "report/json.h"
#include "server/canonical.h"

namespace perfbench {

namespace {

constexpr const char* kPlanPrefix = "{\"ok\":true,\"source\":\"";

std::string errorResponse(const std::string& kind, const std::string& error) {
  dmf::report::Json out = dmf::report::Json::object();
  out.set("ok", dmf::report::Json::boolean(false))
      .set("kind", kind)
      .set("error", error);
  return out.dump();
}

}  // namespace

Expected computeExpected(const std::string& line,
                         std::vector<std::string>& failures) {
  const dmf::server::CanonicalRequest request = dmf::server::canonicalize(
      dmf::server::PlanRequest::fromJson(dmf::report::Json::parse(line)));
  Expected expected;
  try {
    const dmf::engine::MdstEngine engine(request.ratio);
    dmf::engine::StreamingRequest streaming;
    streaming.algorithm = request.algorithm;
    streaming.scheme = request.scheme;
    streaming.demand = request.demand;
    streaming.storageCap = request.storageCap;
    streaming.mixers = request.mixers;
    streaming.jobs = 1;
    const dmf::engine::StreamingPlan plan =
        request.optimize ? dmf::engine::planStreamingOptimized(engine, streaming)
                         : dmf::engine::planStreaming(engine, streaming);
    expected.ok = true;
    expected.bytes = dmf::engine::toJson(plan).dump();
    dmf::check::CheckResult check;
    dmf::check::checkStreamingPlan(engine, streaming, plan, check);
    for (const std::string& f : check.failures) {
      failures.push_back(request.key() + ": " + f);
    }
  } catch (const dmf::InfeasibleError& e) {
    expected.kind = "infeasible";
    expected.bytes = errorResponse(expected.kind, e.what());
  } catch (const std::invalid_argument& e) {
    expected.kind = "request";
    expected.bytes = errorResponse(expected.kind, e.what());
  } catch (const std::exception& e) {
    expected.kind = "internal";
    expected.bytes = errorResponse(expected.kind, e.what());
  }
  return expected;
}

void ReferenceSet::add(const std::string& key, const std::string& line) {
  lines_.emplace(key, line);
}

void ReferenceSet::compute(unsigned threads, RunResult& result) {
  std::vector<std::pair<std::string, std::string>> todo;
  for (const auto& [key, line] : lines_) {
    if (expected_.find(key) == expected_.end()) todo.emplace_back(key, line);
  }
  std::vector<Expected> out(todo.size());
  std::vector<std::string> failures;
  std::mutex failuresMutex;
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < todo.size(); i = next++) {
      std::vector<std::string> local;
      out[i] = computeExpected(todo[i].second, local);
      if (!local.empty()) {
        const std::lock_guard<std::mutex> lock(failuresMutex);
        failures.insert(failures.end(), local.begin(), local.end());
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  for (std::size_t i = 0; i < todo.size(); ++i) {
    expected_.emplace(todo[i].first, std::move(out[i]));
  }
  for (const std::string& f : failures) result.mismatch("oracle " + f);
}

std::string responseSource(const std::string& response) {
  const std::string prefix = kPlanPrefix;
  if (response.compare(0, prefix.size(), prefix) != 0) return "";
  const std::size_t end = response.find('"', prefix.size());
  if (end == std::string::npos) return "";
  return response.substr(prefix.size(), end - prefix.size());
}

bool ReferenceSet::matches(const std::string& key,
                           const std::string& response) const {
  const auto it = expected_.find(key);
  if (it == expected_.end()) return false;
  const Expected& expected = it->second;
  if (!expected.ok) return response == expected.bytes;
  const std::string source = responseSource(response);
  if (source != "cache" && source != "planned" && source != "coalesced") {
    return false;
  }
  // Rebuild the daemon's splice: prefix, source, escaped key, plan bytes.
  std::string want = kPlanPrefix;
  want += source;
  want += "\",\"key\":\"";
  want += dmf::report::jsonEscape(key);
  want += "\",\"plan\":";
  want += expected.bytes;
  want += "}";
  return response == want;
}

}  // namespace perfbench
