// The `dmfstream serve` daemon as a child process, and the line-delimited
// JSON connections the load generator opens to it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One TCP connection to 127.0.0.1:port speaking line-delimited JSON.
/// TCP_NODELAY is set so pipelined requests are not held back by Nagle, and
/// quick-ACK mode is re-armed before every read (see quickAck()).
class Connection {
 public:
  /// Connects immediately; throws std::runtime_error on failure.
  explicit Connection(unsigned short port);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  /// Sends bytes (a request line must end in '\n'). False on I/O error.
  bool send(const std::string& bytes);
  /// Blocks until one full response line arrives (without its '\n').
  /// False when the peer closed or an I/O error occurred.
  bool readLine(std::string& line);
  /// Non-blocking: reads whatever is available and appends every complete
  /// line to `lines`. False when the peer closed or an I/O error occurred.
  bool drainLines(std::vector<std::string>& lines);

 private:
  bool popLine(std::string& line);
  void quickAck();

  int fd_ = -1;
  std::string buffer_;
  std::size_t consumed_ = 0;
};

/// A spawned `dmfstream serve --port 0` process. The destructor kills and
/// reaps it if stop() was not reached, so no run leaves a daemon behind.
class Daemon {
 public:
  /// Spawns `binary serve --port 0 <args>` with its log in `logPath`, waits
  /// for the "listening on" line and for the first ping to be answered.
  /// Throws std::runtime_error when the daemon cannot be started.
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& logPath);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] unsigned short port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// CPU time of the daemon's live threads so far, in milliseconds.
  [[nodiscard]] double cpuMs() const;
  /// Peak resident set (VmHWM), in MiB.
  [[nodiscard]] double peakRssMb() const;

  /// Asks for a graceful shutdown and reaps the process; true when it exited
  /// with status 0.
  bool stop();

 private:
  void kill();

  pid_t pid_ = -1;
  int stderrFd_ = -1;
  unsigned short port_ = 0;
};

}  // namespace perfbench
