// Line-delimited JSON over a local TCP socket — the wire face of
// `dmfstream serve` (DESIGN.md §13).
//
// The server binds 127.0.0.1 only (plan serving is a local sidecar, not an
// internet endpoint), accepts any number of connections, and answers one
// response line per request line. All request handling goes through
// PlanService::handle, which never throws — a malformed line gets an error
// response and the connection stays up. A line longer than
// kMaxRequestLineBytes is the one exception: it gets a "request" error and
// the connection is closed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <list>
#include <mutex>
#include <string>
#include <thread>

namespace dmf::server {

class PlanService;

/// Longest request line a connection may send, newline excluded. The
/// server stops buffering past it, so one client cannot grow a connection's
/// memory without bound.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

struct SocketServerOptions {
  /// TCP port on 127.0.0.1; 0 = ephemeral (read the bound port back with
  /// port()).
  unsigned short port = 0;
};

class SocketServer {
 public:
  /// Binds and listens immediately. Throws std::runtime_error when the
  /// socket cannot be created or bound (port in use, no permission).
  SocketServer(PlanService& service, const SocketServerOptions& options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound port (resolves an ephemeral request).
  [[nodiscard]] unsigned short port() const { return port_; }

  /// Accept loop: blocks until stop() is called or a {"op":"shutdown"}
  /// request arrives. Hands each connection to a worker thread and joins
  /// every worker before returning.
  void run();

  /// Thread-safe: wakes the accept loop and begins draining.
  void stop();

 private:
  /// An accepted connection waiting for a worker.
  struct Accepted {
    int fd;
    unsigned user;
  };
  /// One worker thread. `done` (guarded by mutex_) is its last act, so a
  /// done worker joins without blocking.
  struct Worker {
    std::thread thread;
    bool done = false;
  };

  /// A worker serves queued connections one after another. It exits on
  /// stop(), or when a new connection retires it as a spare.
  void workerLoop(Worker& self);
  /// `user` is the connection's identity for fleet arbitration: the accept
  /// order index, stable for a connection's whole lifetime.
  void serveConnection(int fd, unsigned user);
  /// Joins every worker, each once its connection has closed.
  void joinWorkers();

  PlanService& service_;
  int listenFd_ = -1;
  unsigned short port_ = 0;
  std::atomic<unsigned> nextUser_{0};
  std::atomic<bool> stopping_{false};
  std::mutex mutex_;  ///< guards everything below
  std::condition_variable wake_;
  std::deque<Accepted> queue_;
  /// A list, so a running worker's `done` flag never moves.
  std::list<Worker> workers_;
  std::size_t idle_ = 0;      ///< workers not serving a connection
  std::size_t retiring_ = 0;  ///< idle workers asked to exit
};

/// Test/CI driver: connects to 127.0.0.1:port, sends every line of `in` as
/// one request, and writes each response line to `out`. Returns false on
/// connect/IO failure. Stops early (successfully) after a shutdown
/// response, mirroring what the server does.
bool driveLines(unsigned short port, std::istream& in, std::ostream& out);

}  // namespace dmf::server
