#pragma once
// Driving the program from outside: CLI children with their wait4 rusage,
// the serving daemon's lifecycle, TCP clients, and /proc sampling.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One finished CLI child.
struct ChildRun {
  int exit_code = -1;        ///< -1 when killed by a signal
  std::string out;           ///< its standard output
  double wall_ms = 0;        ///< spawn to reaped exit, all output read
  double cpu_ms = 0;         ///< user + system time (wait4 rusage)
  double maxrss_mb = 0;      ///< ru_maxrss
  std::uint64_t ctx_switches = 0;
  std::int64_t threads_peak = 0;  ///< only when sampled (see run_child)
};

/// Spawns argv (argv[0] a path), captures stdout, discards stderr, reaps it.
/// With `sample_threads` the child's /proc Threads count is polled while it
/// runs (costs CPU; used by the traced run only).
ChildRun run_child(const std::vector<std::string>& argv,
                   bool sample_threads = false);

/// What /proc says about a live process.
struct ProcSample {
  double cpu_ms = 0;            ///< utime + stime, all threads
  std::int64_t threads = 0;
  double vmhwm_mb = 0;
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary, all threads
};
ProcSample read_proc(pid_t pid);

/// A `fraghls --serve-port 0` daemon.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  /// Spawns the daemon with `args` after `--serve --serve-port 0` and waits for
  /// its "serving on" line. Throws std::runtime_error on failure.
  void start(const std::string& fraghls, const std::vector<std::string>& args);
  /// Sends a shutdown request, waits for exit (kills after a grace period).
  void stop();
  pid_t pid() const { return pid_; }
  unsigned port() const { return port_; }

private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  unsigned port_ = 0;
};

/// A blocking JSON-lines TCP connection to 127.0.0.1.
class Conn {
public:
  explicit Conn(unsigned port);
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn();
  /// Writes `line` + '\n' and reads one response line; false on a broken
  /// connection.
  bool roundtrip(const std::string& line, std::string& response);

private:
  int fd_ = -1;
  std::string pending_;
};

} // namespace perfbench
