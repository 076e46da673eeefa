#pragma once
// The benchmark's workloads: which specs, which requests, in what order,
// against which configuration of the program. Pure functions of the seed.

#include <cstdint>
#include <string>
#include <vector>

#include "gen.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  bool serve = false;        ///< daemon (TCP) instead of one CLI process
  unsigned clients = 1;      ///< closed-loop clients (threads/connections)
  /// Daemon threads per sweep/explore request (--workers), 0 = its default
  /// (every core).
  unsigned batch_workers = 0;
  /// Daemon cache bound as a share of the working set's resident bytes,
  /// 0 = unbounded.
  double cache_share = 0;
  std::vector<Spec> specs;
  std::vector<Request> requests;  ///< distinct requests
  /// Requests sent once, in order, to warm the daemon (indices into
  /// `requests`); part of set-up.
  std::vector<std::size_t> warmup;
  std::uint64_t seed = 0;

  /// Index into `requests` of the i-th request of the stream. Extends the
  /// distinct-request table on demand (serve-churn's fresh specs), so the
  /// stream is unbounded but every prefix is a pure function of the seed.
  std::size_t at(std::size_t i);

  /// Prepares the stream's first `n` entries.
  void extend(std::size_t n);

  /// The i-th entry of an already prepared stream (safe to call from client
  /// threads while nothing extends it).
  std::size_t stream_at(std::size_t i) const { return stream_[i]; }

private:
  std::vector<std::size_t> stream_;
  std::uint64_t fresh_ = 0;  ///< fresh specs generated so far (churn)
  Rng rng_{0};
  std::vector<double> zipf_cdf_;  ///< serve-hot popularity by rank
  /// cold-synth: the permutation of the pool in progress; serve-hot: the
  /// request of each popularity rank.
  std::vector<std::size_t> ring_;
  std::size_t working_ = 0;  ///< serve-churn working-set requests
  void push_next();
  std::size_t fresh_request();

  friend Workload make_workload(const std::string&, std::uint64_t);
};

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds the named workload for `seed`; throws std::runtime_error on an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

} // namespace perfbench
