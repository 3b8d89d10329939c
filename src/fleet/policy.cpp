#include "fleet/policy.h"

#include <algorithm>
#include <stdexcept>

#include "dmf/parse.h"

namespace dmf::fleet {

namespace {

/// Inserts keeping ascending admission order. Items arrive in admission
/// order except for migrated passes, which re-enter with their original
/// (smaller) admission number and must precede later same-user work.
void insertByAdmission(std::deque<WorkItem>& queue, const WorkItem& item) {
  auto it = std::lower_bound(
      queue.begin(), queue.end(), item,
      [](const WorkItem& a, const WorkItem& b) {
        return a.admission < b.admission;
      });
  queue.insert(it, item);
}

void checkUser(unsigned user, std::size_t users, const char* who) {
  if (user >= users) {
    throw std::invalid_argument(std::string(who) + ": user " +
                                std::to_string(user) + " out of range (" +
                                std::to_string(users) + " users)");
  }
}

}  // namespace

void ArbitrationPolicy::setWeights(const std::vector<double>& weights) {
  for (double w : weights) {
    if (!(w > 0.0)) {
      throw std::invalid_argument("ArbitrationPolicy: weights must be > 0");
    }
  }
}

void ArbitrationPolicy::setQuantum(double quantum) {
  if (quantum < 0.0) {
    throw std::invalid_argument("ArbitrationPolicy: quantum must be >= 0");
  }
}

// --- FifoPolicy ------------------------------------------------------------

void FifoPolicy::setUsers(unsigned users) {
  users_ = users;
  queue_.clear();
}

void FifoPolicy::enqueue(const WorkItem& item) {
  checkUser(item.user, users_, "FifoPolicy::enqueue");
  insertByAdmission(queue_, item);
}

std::optional<unsigned> FifoPolicy::pickUser(double) {
  if (queue_.empty()) return std::nullopt;
  return queue_.front().user;
}

std::optional<WorkItem> FifoPolicy::pop(unsigned user) {
  checkUser(user, users_, "FifoPolicy::pop");
  auto it = std::find_if(queue_.begin(), queue_.end(),
                         [&](const WorkItem& w) { return w.user == user; });
  if (it == queue_.end()) return std::nullopt;
  WorkItem item = *it;
  queue_.erase(it);
  return item;
}

// --- RoundRobinPolicy ------------------------------------------------------

void RoundRobinPolicy::setUsers(unsigned users) {
  queues_.assign(users, {});
  cursor_ = 0;
}

void RoundRobinPolicy::enqueue(const WorkItem& item) {
  checkUser(item.user, queues_.size(), "RoundRobinPolicy::enqueue");
  insertByAdmission(queues_[item.user], item);
}

std::optional<unsigned> RoundRobinPolicy::pickUser(double) {
  const auto n = static_cast<unsigned>(queues_.size());
  for (unsigned step = 0; step < n; ++step) {
    const unsigned user = (cursor_ + step) % n;
    if (!queues_[user].empty()) return user;
  }
  return std::nullopt;
}

std::optional<WorkItem> RoundRobinPolicy::pop(unsigned user) {
  checkUser(user, queues_.size(), "RoundRobinPolicy::pop");
  auto& queue = queues_[user];
  if (queue.empty()) return std::nullopt;
  WorkItem item = queue.front();
  queue.pop_front();
  cursor_ = (user + 1) % static_cast<unsigned>(queues_.size());
  return item;
}

bool RoundRobinPolicy::empty() const {
  return std::all_of(queues_.begin(), queues_.end(),
                     [](const auto& q) { return q.empty(); });
}

std::size_t RoundRobinPolicy::pending() const {
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

// --- WeightedFairPolicy ----------------------------------------------------

void WeightedFairPolicy::setUsers(unsigned users) {
  queues_.assign(users, {});
  weights_.assign(users, 1.0);
  lastFinish_.assign(users, 0.0);
  vtime_ = 0.0;
  quantumLeft_ = 0.0;
  current_.reset();
}

void WeightedFairPolicy::setWeights(const std::vector<double>& weights) {
  ArbitrationPolicy::setWeights(weights);
  if (weights.size() != weights_.size()) {
    throw std::invalid_argument(
        "WeightedFairPolicy::setWeights: expected " +
        std::to_string(weights_.size()) + " weights, got " +
        std::to_string(weights.size()));
  }
  weights_ = weights;
}

void WeightedFairPolicy::enqueue(const WorkItem& item) {
  checkUser(item.user, queues_.size(), "WeightedFairPolicy::enqueue");
  insertByAdmission(queues_[item.user], item);
}

double WeightedFairPolicy::startTag(unsigned user) const {
  return std::max(vtime_, lastFinish_[user]);
}

std::optional<unsigned> WeightedFairPolicy::pickUser(double) {
  // Quantum batching: keep serving the current user while it has backlog
  // and quantum budget, like a deficit round.
  if (current_.has_value() && quantumLeft_ > 0.0 &&
      !queues_[*current_].empty()) {
    return current_;
  }
  std::optional<unsigned> best;
  double bestTag = 0.0;
  for (unsigned user = 0; user < queues_.size(); ++user) {
    if (queues_[user].empty()) continue;
    const double tag = startTag(user);
    if (!best.has_value() || tag < bestTag) {
      best = user;
      bestTag = tag;
    }
  }
  if (best.has_value()) {
    current_ = best;
    quantumLeft_ = quantum_;
  }
  return best;
}

std::optional<WorkItem> WeightedFairPolicy::pop(unsigned user) {
  checkUser(user, queues_.size(), "WeightedFairPolicy::pop");
  auto& queue = queues_[user];
  if (queue.empty()) return std::nullopt;
  WorkItem item = queue.front();
  queue.pop_front();
  const double start = startTag(user);
  lastFinish_[user] =
      start + static_cast<double>(item.cost) / weights_[user];
  vtime_ = start;
  quantumLeft_ -= static_cast<double>(item.cost);
  return item;
}

bool WeightedFairPolicy::empty() const {
  return std::all_of(queues_.begin(), queues_.end(),
                     [](const auto& q) { return q.empty(); });
}

std::size_t WeightedFairPolicy::pending() const {
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

// --- factory / parsing -----------------------------------------------------

std::unique_ptr<ArbitrationPolicy> makePolicy(const std::string& name) {
  if (name == "fifo") return std::make_unique<FifoPolicy>();
  if (name == "rr") return std::make_unique<RoundRobinPolicy>();
  if (name == "wfq") return std::make_unique<WeightedFairPolicy>();
  throw std::invalid_argument("unknown fleet policy '" + name +
                              "' (expected fifo, rr, or wfq)");
}

std::vector<double> parseWeights(const std::string& spec) {
  std::vector<double> weights;
  for (const std::string& item : splitList(spec, ',', "parseWeights")) {
    weights.push_back(readFinite(item, "parseWeights"));
    if (!(weights.back() > 0.0)) {
      throw std::invalid_argument("parseWeights: weights must be > 0, got '" +
                                  item + "'");
    }
  }
  if (weights.empty()) {
    throw std::invalid_argument("parseWeights: empty weight list");
  }
  return weights;
}

}  // namespace dmf::fleet
