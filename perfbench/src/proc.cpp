#include "proc.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// posix_spawn with stdout (and optionally stderr) redirected into pipes.
pid_t spawn(const std::vector<std::string>& argv, int* out_fd, int* err_fd) {
  int out_pipe[2] = {-1, -1};
  int err_pipe[2] = {-1, -1};
  if (out_fd != nullptr && ::pipe2(out_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  if (err_fd != nullptr && ::pipe2(err_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (out_fd != nullptr) {
    posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  }
  if (err_fd != nullptr) {
    posix_spawn_file_actions_adddup2(&fa, err_pipe[1], 2);
  } else {
    posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (out_fd != nullptr) {
    ::close(out_pipe[1]);
    *out_fd = out_pipe[0];
  }
  if (err_fd != nullptr) {
    ::close(err_pipe[1]);
    *err_fd = err_pipe[0];
  }
  if (rc != 0) {
    if (out_fd != nullptr) ::close(*out_fd);
    if (err_fd != nullptr) ::close(*err_fd);
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(rc));
  }
  return pid;
}

std::int64_t status_field(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) {
      return std::strtoll(line.c_str() + n, nullptr, 10);
    }
  }
  return 0;
}

} // namespace

ChildRun run_child(const std::vector<std::string>& argv, bool sample_threads) {
  ChildRun r;
  const Clock::time_point t0 = Clock::now();
  int out = -1;
  const pid_t pid = spawn(argv, &out, nullptr);
  char buf[65536];
  const std::string status_path = "/proc/" + std::to_string(pid) + "/status";
  if (sample_threads) ::fcntl(out, F_SETFL, O_NONBLOCK);
  for (;;) {
    const ssize_t n = ::read(out, buf, sizeof buf);
    if (n > 0) {
      r.out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    if (errno == EAGAIN && sample_threads) {
      r.threads_peak =
          std::max(r.threads_peak, status_field(status_path, "Threads:"));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    break;
  }
  ::close(out);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.wall_ms = ms_since(t0);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.cpu_ms = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
             (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
  r.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  r.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return r;
}

ProcSample read_proc(pid_t pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  {
    std::ifstream in(base + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line (11th and 12th after ")").
    const std::size_t close = stat.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(stat.substr(close + 2));
      std::string field;
      double utime = 0, stime = 0;
      for (int i = 1; i <= 13 && rest >> field; ++i) {
        if (i == 12) utime = std::strtod(field.c_str(), nullptr);
        if (i == 13) stime = std::strtod(field.c_str(), nullptr);
      }
      s.cpu_ms = (utime + stime) * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  s.threads = status_field(base + "/status", "Threads:");
  s.vmhwm_mb = static_cast<double>(status_field(base + "/status", "VmHWM:")) / 1024.0;
  if (DIR* d = ::opendir((base + "/task").c_str())) {
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.') continue;
      const std::string st = base + "/task/" + e->d_name + "/status";
      s.ctx_switches +=
          static_cast<std::uint64_t>(status_field(st, "voluntary_ctxt_switches:") +
                                     status_field(st, "nonvoluntary_ctxt_switches:"));
    }
    ::closedir(d);
  }
  return s;
}

void Daemon::start(const std::string& fraghls,
                   const std::vector<std::string>& args) {
  std::vector<std::string> argv = {fraghls, "--serve", "--serve-port", "0"};
  argv.insert(argv.end(), args.begin(), args.end());
  pid_ = spawn(argv, nullptr, &err_fd_);
  std::string text;
  char buf[512];
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    const ssize_t n = ::read(err_fd_, buf, sizeof buf);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = text.find("serving on 127.0.0.1:");
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port_ = static_cast<unsigned>(std::strtoul(text.c_str() + at + 21, nullptr, 10));
      return;
    }
    if (ms_since(t0) > 30000) break;
  }
  stop();
  throw std::runtime_error("daemon did not start: " + text);
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  if (port_ != 0) {
    try {
      Conn c(port_);
      std::string response;
      c.roundtrip("{\"kind\":\"shutdown\"}", response);
    } catch (const std::exception&) {
      // Unreachable daemon: fall through to the kill below.
    }
  }
  int status = 0;
  const Clock::time_point t0 = Clock::now();
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (ms_since(t0) > 5000) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (err_fd_ >= 0) ::close(err_fd_);
  err_fd_ = -1;
  pid_ = -1;
  port_ = 0;
}

Conn::Conn(unsigned port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect failed");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::roundtrip(const std::string& line, std::string& response) {
  std::string msg = line;
  msg += '\n';
  std::size_t sent = 0;
  while (sent < msg.size()) {
    const ssize_t w = ::send(fd_, msg.data() + sent, msg.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  char buf[65536];
  for (;;) {
    const std::size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      response.assign(pending_, 0, nl);
      pending_.erase(0, nl + 1);
      return true;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) return false;
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

} // namespace perfbench
