#pragma once
// In-process reference results (uncached library calls), computed outside
// the timed window: the answers every response is diffed against, and the
// hardware properties behind the design_* metrics.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gen.hpp"

namespace perfbench {

/// What an uncached in-process run says a request should answer.
struct Reference {
  bool ok = false;
  /// The response body the program must send: for the daemon, the
  /// envelope's "result"/"diagnostics" member (explore bodies with their
  /// "cache" counters cut, the one documented exception); for the CLI, its
  /// whole --json standard output.
  std::string body;
  /// Hardware of every successful design a run (one) or sweep (one per
  /// latency) produces.
  struct Design {
    double exec_ns = 0;
    double area_gates = 0;
    double conventional_exec_ns = 0;  ///< same spec and latency, original flow
    unsigned fragments = 0;
  };
  std::vector<Design> designs;
};

/// Reference for `r` as the daemon (`cli == false`) or the CLI answers it.
Reference reference_for(const Request& r, const Spec& spec, bool cli);

/// Cuts the explore result's `,"cache":{...}` member (shared-cache counters,
/// which legitimately differ from an uncached run's).
std::string strip_cache(const std::string& body);

/// Splits a daemon envelope into (ok, body, first error-diagnostic stage).
struct Envelope {
  bool parsed = false;
  bool ok = false;
  std::string body;
  std::string stage;  ///< first Error diagnostic's stage, "" when none
};
Envelope parse_envelope(const std::string& line);

/// Runs `fn(i)` for i in [0, n) on `threads` threads.
template <typename Fn>
void parallel_for(std::size_t n, unsigned threads, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

struct Workload;

/// Resident bytes of an unbounded in-process ArtifactCache after the
/// workload's warm-up requests: the working set a daemon cache would hold.
double working_set_resident_bytes(const Workload& w);

} // namespace perfbench
