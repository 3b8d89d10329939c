#include "server/socket_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/log.h"
#include "obs/scope.h"
#include "server/service.h"

namespace dmf::server {

namespace {

void closeFd(int fd) {
  if (fd >= 0) ::close(fd);
}

/// Sends each write at once instead of holding it back until the previous
/// one is acknowledged: one request line or response is one write, and a
/// delayed acknowledgement would otherwise stall every round trip.
void setNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Writes the whole buffer, riding out EINTR and partial writes.
bool writeAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes `line` and its newline in one send.
bool writeLine(int fd, std::string& line) {
  line.push_back('\n');
  return writeAll(fd, line.data(), line.size());
}

}  // namespace

SocketServer::SocketServer(PlanService& service,
                           const SocketServerOptions& options)
    : service_(service) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    throw std::runtime_error("SocketServer: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    closeFd(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("SocketServer: cannot bind 127.0.0.1:" +
                             std::to_string(options.port) + ": " + reason);
  }
  if (::listen(listenFd_, SOMAXCONN) != 0) {
    const std::string reason = std::strerror(errno);
    closeFd(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("SocketServer: listen() failed: " + reason);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
}

SocketServer::~SocketServer() {
  stop();
  joinWorkers();
  closeFd(listenFd_);
  listenFd_ = -1;
}

void SocketServer::run() {
  for (;;) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // stop() shut the listen socket down (or it broke) — drain
    }
    if (stopping_.load(std::memory_order_acquire)) {
      closeFd(fd);
      break;
    }
    setNoDelay(fd);
    obs::count("server.connections");
    obs::LogLine(obs::LogLevel::kDebug, "server.connection.accept")
        .num("fd", static_cast<std::uint64_t>(fd));
    const unsigned user = nextUser_.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      // Reap retired workers: an unjoined thread keeps its stack mapped.
      for (auto it = workers_.begin(); it != workers_.end();) {
        if (it->done) {
          it->thread.join();
          it = workers_.erase(it);
        } else {
          ++it;
        }
      }
      queue_.push_back(Accepted{fd, user});
      if (idle_ < queue_.size()) {
        ++idle_;
        Worker& worker = workers_.emplace_back();
        worker.thread = std::thread([this, &worker] { workerLoop(worker); });
      }
      // A finished connection's worker waits here for the next connection
      // instead of exiting; the idle workers the queue does not need now
      // are spares and exit. So a client that reconnects per request reuses
      // one thread, the pool follows the latest burst of connections, and
      // no thread exits while no connection arrives. Planning scratch
      // belongs to each request, not to the thread, so a reused worker
      // carries nothing over from a large plan.
      retiring_ = idle_ - queue_.size();
    }
    wake_.notify_all();
  }
  stop();  // an accept that broke ends serving too
  joinWorkers();
}

void SocketServer::workerLoop(Worker& self) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] {
      return !queue_.empty() || retiring_ > 0 ||
             stopping_.load(std::memory_order_acquire);
    });
    --idle_;
    if (queue_.empty()) {  // retired, or stopping with nothing left
      if (retiring_ > 0) --retiring_;
      self.done = true;
      return;
    }
    const Accepted next = queue_.front();
    queue_.pop_front();
    lock.unlock();
    serveConnection(next.fd, next.user);
    lock.lock();
    ++idle_;
  }
}

void SocketServer::joinWorkers() {
  std::list<Worker> workers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    workers.swap(workers_);
  }
  for (Worker& worker : workers) {
    if (worker.thread.joinable()) worker.thread.join();
  }
}

void SocketServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Shutting down the listening socket pops accept() out with an error,
  // which is the loop's exit signal.
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
  // Taking the mutex orders the flag before any worker's next wait.
  { const std::lock_guard<std::mutex> lock(mutex_); }
  wake_.notify_all();
}

void SocketServer::serveConnection(int fd, unsigned user) {
  std::string line;  // the request line assembled so far
  char buffer[4096];
  bool shutdownRequested = false;
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed (or error): connection is done
    // Only the freshly received bytes are scanned for newlines, so a line
    // costs time linear in its length.
    const char* cursor = buffer;
    const char* const end = buffer + n;
    while (cursor != end) {
      const char* newline = static_cast<const char*>(
          std::memchr(cursor, '\n', static_cast<std::size_t>(end - cursor)));
      const char* const lineEnd = newline != nullptr ? newline : end;
      if (line.size() + static_cast<std::size_t>(lineEnd - cursor) >
          kMaxRequestLineBytes) {
        std::string response = PlanService::errorResponse(
            "request", "request line exceeds " +
                           std::to_string(kMaxRequestLineBytes) + " bytes");
        writeLine(fd, response);
        closeFd(fd);
        return;
      }
      line.append(cursor, lineEnd);
      if (newline == nullptr) break;
      cursor = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;  // blank lines are keepalive noise
      std::string response = service_.handle(line, &shutdownRequested, user);
      if (!writeLine(fd, response)) {
        closeFd(fd);
        return;
      }
      if (shutdownRequested) {
        closeFd(fd);
        stop();
        return;
      }
      line.clear();
    }
  }
  closeFd(fd);
}

bool driveLines(unsigned short port, std::istream& in, std::ostream& out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    closeFd(fd);
    return false;
  }
  setNoDelay(fd);
  std::string line;
  // Bytes received past the response line being read; the server answers
  // one line per request, so this is normally empty between requests.
  std::string received;
  char buffer[4096];
  bool ok = true;
  while (ok && std::getline(in, line)) {
    if (line.empty()) continue;
    if (!writeLine(fd, line)) {
      ok = false;
      break;
    }
    // Read exactly one response line per request, scanning only the bytes
    // each recv adds.
    std::size_t newline = received.find('\n');
    while (newline == std::string::npos) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ok = false;
        break;
      }
      const std::size_t scanned = received.size();
      received.append(buffer, static_cast<std::size_t>(n));
      newline = received.find('\n', scanned);
    }
    if (!ok) break;
    const std::string response = received.substr(0, newline);
    received.erase(0, newline + 1);
    out << response << '\n';
    // After a shutdown acknowledgement the server hangs up; remaining
    // driver lines (there should be none) would only see a dead socket.
    if (response.find("\"op\":\"shutdown\"") != std::string::npos) break;
  }
  closeFd(fd);
  return ok;
}

}  // namespace dmf::server
