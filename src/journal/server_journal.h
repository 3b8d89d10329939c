// Write-ahead log for the plan daemon (DESIGN.md §16): every admitted plan
// request is journaled before it is computed and acknowledged
// once the result reaches the plan cache. On restart, recoverPending()
// returns the logged-but-unacknowledged request lines so the daemon can
// replay them — and because every computed plan lands in the disk cache
// tier before its ack, replay is mostly cache hits, not recomputation.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "journal/journal.h"

namespace dmf::journal {

/// Thread-safe request WAL over one RecordLog (requests arrive on the
/// socket server's connection threads concurrently).
class ServerJournal {
 public:
  /// Opens (creating if needed) DIR/wal.log. Throws std::invalid_argument
  /// when the directory cannot be created (parent must exist).
  explicit ServerJournal(const std::string& dir);

  /// Journals one admitted request line, durably, and returns the token to
  /// acknowledge it with. Throws std::runtime_error on I/O failure.
  [[nodiscard]] std::uint64_t logRequest(const std::string& requestLine);

  /// Marks a logged request as completed (its plan is cached).
  void ack(std::uint64_t id);

  /// Replays the WAL: returns every logged-but-unacknowledged request line
  /// in admission order and truncates the log (replayed requests re-journal
  /// themselves through the normal admission path). A torn final record is
  /// silently dropped; mid-log corruption throws CorruptJournalError.
  [[nodiscard]] std::vector<std::string> recoverPending();

  [[nodiscard]] const std::string& path() const { return log_.path(); }

 private:
  std::mutex mutex_;
  RecordLog log_;
  std::uint64_t nextId_ = 1;
};

}  // namespace dmf::journal
