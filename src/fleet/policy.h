// Pluggable per-user arbitration for the fleet dispatcher (DESIGN.md §17).
//
// The dispatcher admits every pass of every user's streaming plan as a
// WorkItem and asks the policy, one dispatch decision at a time, *whose*
// work runs next; the dispatcher then decides *where* (chip placement) and
// executes it. Three policies ship behind one interface:
//
//  * fifo — global admission order, no fairness;
//  * rr   — round-robin over backlogged users, one item per turn;
//  * wfq  — start-time fair queueing with optional service quanta: each
//    user's next item carries a virtual start tag max(v, lastFinish(u)),
//    finish = start + cost / weight, and the policy serves the smallest
//    start tag (ties to the lowest user id). A quantum > 0 keeps serving
//    the picked user until that much service is dispatched, batching
//    same-user work like a deficit round-robin scheduler.
//
// All three are strictly deterministic: decisions depend only on the
// admitted items and the configured weights/quantum, never on wall-clock
// time or thread interleaving, so fleet runs stay byte-identical across
// --jobs.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dmf::fleet {

/// One admitted unit of work: a single pass of one user's streaming plan.
struct WorkItem {
  unsigned user = 0;
  /// Global admission sequence number — the stable intra-user order key.
  /// A migrated pass re-enters with its original admission number, so it
  /// precedes later passes of the same user.
  std::uint64_t admission = 0;
  /// Index of the pass in the user's StreamingPlan.
  std::uint64_t passIndex = 0;
  /// Service cost in cycles (the pass completion time; always >= 1).
  std::uint64_t cost = 1;
  /// Placement requirements: mixers and storage the hosting chip must have.
  unsigned minMixers = 1;
  unsigned minStorage = 0;
  /// Execution attempt (1 on admission; bumped by each migration).
  unsigned attempt = 1;
};

/// The arbitration interface (shape follows the ssd-fairness scheduler:
/// enqueue / pick_user / pop plus set_users / set_weights / set_quantum).
class ArbitrationPolicy {
 public:
  virtual ~ArbitrationPolicy() = default;

  /// Declares the user population [0, users). Resets all queues.
  virtual void setUsers(unsigned users) = 0;
  /// Per-user weights (size must match setUsers; every weight > 0). The
  /// base classes ignore weights; wfq validates and applies them. Throws
  /// std::invalid_argument on a size mismatch or non-positive weight.
  virtual void setWeights(const std::vector<double>& weights);
  /// Service quantum in cost units; 0 disables batching. Only wfq uses it.
  virtual void setQuantum(double quantum);

  /// Admits one item. item.user must be < setUsers' count.
  virtual void enqueue(const WorkItem& item) = 0;
  /// The user whose work should run next, or nullopt when idle. `now` is
  /// the dispatcher's current virtual cycle (informational; the shipped
  /// policies are self-clocked and ignore it). Does not consume anything.
  [[nodiscard]] virtual std::optional<unsigned> pickUser(double now) = 0;
  /// Removes and returns the user's earliest pending item (by admission
  /// number), accounting its service. nullopt when the user has no backlog.
  [[nodiscard]] virtual std::optional<WorkItem> pop(unsigned user) = 0;

  [[nodiscard]] virtual bool empty() const = 0;
  /// Total items currently queued.
  [[nodiscard]] virtual std::size_t pending() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Global admission order, blind to users and weights.
class FifoPolicy final : public ArbitrationPolicy {
 public:
  void setUsers(unsigned users) override;
  void enqueue(const WorkItem& item) override;
  [[nodiscard]] std::optional<unsigned> pickUser(double now) override;
  [[nodiscard]] std::optional<WorkItem> pop(unsigned user) override;
  [[nodiscard]] bool empty() const override { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const override { return queue_.size(); }
  [[nodiscard]] const char* name() const override { return "fifo"; }

 private:
  unsigned users_ = 0;
  std::deque<WorkItem> queue_;  // ascending admission order
};

/// One item per backlogged user per turn, rotating in user-id order.
class RoundRobinPolicy final : public ArbitrationPolicy {
 public:
  void setUsers(unsigned users) override;
  void enqueue(const WorkItem& item) override;
  [[nodiscard]] std::optional<unsigned> pickUser(double now) override;
  [[nodiscard]] std::optional<WorkItem> pop(unsigned user) override;
  [[nodiscard]] bool empty() const override;
  [[nodiscard]] std::size_t pending() const override;
  [[nodiscard]] const char* name() const override { return "rr"; }

 private:
  std::vector<std::deque<WorkItem>> queues_;
  unsigned cursor_ = 0;
};

/// Start-time fair queueing with service quanta (see file comment).
class WeightedFairPolicy final : public ArbitrationPolicy {
 public:
  void setUsers(unsigned users) override;
  void setWeights(const std::vector<double>& weights) override;
  void setQuantum(double quantum) override {
    ArbitrationPolicy::setQuantum(quantum);
    quantum_ = quantum;
  }
  void enqueue(const WorkItem& item) override;
  [[nodiscard]] std::optional<unsigned> pickUser(double now) override;
  [[nodiscard]] std::optional<WorkItem> pop(unsigned user) override;
  [[nodiscard]] bool empty() const override;
  [[nodiscard]] std::size_t pending() const override;
  [[nodiscard]] const char* name() const override { return "wfq"; }

  /// The policy's virtual time (exposed for tests).
  [[nodiscard]] double virtualTime() const { return vtime_; }

 private:
  /// Virtual start tag of the user's head item: max(v, lastFinish(user)).
  [[nodiscard]] double startTag(unsigned user) const;

  std::vector<std::deque<WorkItem>> queues_;
  std::vector<double> weights_;
  std::vector<double> lastFinish_;
  double vtime_ = 0.0;
  double quantum_ = 0.0;
  double quantumLeft_ = 0.0;
  std::optional<unsigned> current_;
};

/// Factory for "fifo" | "rr" | "wfq". Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] std::unique_ptr<ArbitrationPolicy> makePolicy(
    const std::string& name);

/// Parses "8,1,1" into weights. Throws std::invalid_argument on an empty
/// list, an unparsable entry, or a non-positive weight.
[[nodiscard]] std::vector<double> parseWeights(const std::string& spec);

}  // namespace dmf::fleet
