#include "daemon.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

std::string errnoText(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection

Connection::Connection(unsigned short port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error(errnoText("socket"));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string message = errnoText("connect");
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(message);
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::send(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd p{fd_, POLLOUT, 0};
        ::poll(&p, 1, 100);
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Connection::popLine(std::string& line) {
  const std::size_t newline = buffer_.find('\n', consumed_);
  if (newline == std::string::npos) {
    // Compact once the consumed prefix dominates the buffer.
    if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
      buffer_.erase(0, consumed_);
      consumed_ = 0;
    }
    return false;
  }
  line.assign(buffer_, consumed_, newline - consumed_);
  consumed_ = newline + 1;
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  return true;
}

void Connection::quickAck() {
  // The daemon writes a response and its newline in two send() calls without
  // TCP_NODELAY, so Nagle holds the newline until this side ACKs the
  // response. Linux delays that ACK by up to 40 ms unless quick-ACK mode is
  // re-armed before each read; a client that does not re-arm it waits out
  // the timer on every closed-loop request.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

bool Connection::readLine(std::string& line) {
  char chunk[65536];
  while (!popLine(line)) {
    quickAck();
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd_, POLLIN, 0};
      ::poll(&p, 1, 100);
      continue;
    }
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

bool Connection::drainLines(std::vector<std::string>& lines) {
  char chunk[65536];
  for (;;) {
    quickAck();
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
  }
  std::string line;
  while (popLine(line)) lines.push_back(std::move(line));
  return true;
}

// ---------------------------------------------------------------------------
// Daemon

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               const std::string& logPath) {
  int pipeFds[2];
  if (::pipe2(pipeFds, O_CLOEXEC) != 0) {
    throw std::runtime_error(errnoText("pipe"));
  }
  std::vector<std::string> argv = {binary, "serve", "--port", "0",
                                   "--log-file", logPath};
  argv.insert(argv.end(), args.begin(), args.end());
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, pipeFds[1], 2);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipeFds[1]);
  stderrFd_ = pipeFds[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(stderrFd_);
    stderrFd_ = -1;
    throw std::runtime_error("posix_spawn " + binary + ": " +
                             std::strerror(rc));
  }

  // The bound port is the one line the daemon writes to stderr (logs go to
  // the log file), so the pipe never fills while it runs.
  std::string banner;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (banner.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{stderrFd_, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
      kill();
      throw std::runtime_error("daemon did not report its port");
    }
    char chunk[256];
    const ssize_t n = ::read(stderrFd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      kill();
      throw std::runtime_error("daemon exited before listening: " + banner);
    }
    banner.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string marker = "listening on 127.0.0.1:";
  const std::size_t at = banner.find(marker);
  if (at == std::string::npos) {
    kill();
    throw std::runtime_error("unexpected daemon banner: " + banner);
  }
  port_ = static_cast<unsigned short>(
      std::stoul(banner.substr(at + marker.size())));

  Connection probe(port_);
  std::string reply;
  if (!probe.send("{\"op\":\"ping\"}\n") || !probe.readLine(reply) ||
      reply != "{\"ok\":true,\"op\":\"ping\"}") {
    kill();
    throw std::runtime_error("daemon did not answer ping: " + reply);
  }
}

Daemon::~Daemon() { kill(); }

double Daemon::cpuMs() const {
  // The first field of each thread's schedstat is its time on a CPU in
  // nanoseconds; /proc/<pid>/stat counts in clock ticks (10 ms), too coarse
  // for a half-second window. Threads that have exited are not counted, and
  // the daemon's pool threads live as long as it does.
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  DIR* dir = ::opendir(tasks.c_str());
  if (dir == nullptr) return 0.0;
  double ns = 0.0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream in(tasks + "/" + entry->d_name + "/schedstat");
    double onCpu = 0.0;
    if (in >> onCpu) ns += onCpu;
  }
  ::closedir(dir);
  return ns / 1e6;
}

double Daemon::peakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  try {
    Connection c(port_);
    std::string reply;
    (void)c.send("{\"op\":\"shutdown\"}\n");
    (void)c.readLine(reply);
  } catch (const std::exception&) {
    ::kill(pid_, SIGTERM);
  }
  int status = 0;
  for (int i = 0; i < 1000; ++i) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      ::close(stderrFd_);
      stderrFd_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill();
  return false;
}

void Daemon::kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stderrFd_ >= 0) {
    ::close(stderrFd_);
    stderrFd_ = -1;
  }
}

}  // namespace perfbench
