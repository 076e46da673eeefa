// perfbench — runs one workload of the benchmark against the fraghls binary
// and prints its metrics. Normally started by perfbench/run.py:
//
//   perfbench --workload serve-hot --seed 3 --seconds 30 --trace 0
//             --fraghls .bench_build/perfbench/fraghls --work .bench_work
//
// --trace 0 measures the end-to-end metrics: the program runs as a user runs
// it (one CLI process per request, or a TCP daemon with closed-loop
// clients), in short blocks with the calibration kernel timed between them.
// --trace 1 reports the per-layer metrics: a short probe of the real
// program plus an in-process replay of the same request stream with spans
// around the library's public calls (replay.cpp).
//
// Every response is checked; the last line of standard output is the JSON
// result. Exits 1 when any check failed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "calib.hpp"
#include "metrics.hpp"
#include "proc.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string fraghls;
  std::string work = ".bench_work";
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--fraghls") o.fraghls = v;
    else if (a == "--work") o.work = v;
    else throw std::runtime_error("unknown option " + a);
  }
  if (o.workload.empty() || o.fraghls.empty()) {
    throw std::runtime_error("--workload and --fraghls are required");
  }
  return o;
}

/// Per distinct request: the first response seen (normalized), against
/// which every repeat must be byte-identical.
class ResponseLedger {
public:
  /// Returns false when `normalized` differs from an earlier response to
  /// the same request.
  bool record(std::size_t request, const std::string& normalized) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto [it, fresh] = first_.emplace(request, normalized);
    return fresh || it->second == normalized;
  }
  std::map<std::size_t, std::string> snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

private:
  mutable std::mutex mu_;
  std::map<std::size_t, std::string> first_;
};

/// A daemon response with its per-request parts removed: the server-side
/// "ms" and, for explore, the shared-cache counters.
std::string normalize_envelope(const std::string& response, bool explore) {
  const std::size_t ms = response.rfind(",\"ms\":");
  std::string out = ms == std::string::npos ? response
                                            : response.substr(0, ms) + "}";
  return explore ? strip_cache(out) : out;
}

/// Everything one measured run observed.
struct Measured {
  /// One block of requests between two calibration samples.
  struct Block {
    double wall_ms = 0;
    double cpu_ms = 0;
    std::vector<double> latency_ms;
  };
  std::vector<Block> blocks;
  /// Calibration samples: [i] is taken just before block i, [i + 1] just
  /// after it.
  std::vector<double> cal_samples;
  /// Request timings, calibrated or raw (finalize).
  struct Timings {
    double p50 = 0, p99 = 0;
    double requests_per_s = 0;
    double cpu_ms_per_request = 0;
  };
  Timings cal_timings, raw_timings;
  std::size_t segments = 0;
  std::size_t beyond_p99 = 0;  ///< samples beyond p99, fewest of any segment
  Samples setup_cal;     ///< s, calibrated, per set-up
  Samples setup_raw;
  Samples transport;     ///< ms, client-observed minus envelope ms
  Samples spawn;         ///< ms, raw
  double wall_raw_ms = 0;
  double peak_rss_mb = 0;
  std::int64_t threads_peak = 0;
  std::uint64_t ctx_switches = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  ResponseLedger ledger;
  void problem(std::string p) {
    if (problems.size() < 20) problems.push_back(std::move(p));
  }

  /// Calibrates every block, then summarises the run. A block's
  /// calibration time is the median of the samples around it (its own two
  /// plus two on either side, about half a second of the run): a single
  /// kernel run is too noisy on its own, and contention epochs last longer.
  /// The run is cut into up to five consecutive segments of at least 1000
  /// requests (so each has ten samples beyond its p99); every timing is the
  /// median over the segments, so one slow stretch of the host moves it
  /// little.
  void finalize(const Calibration& cal) {
    std::vector<double> factors;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      Samples around;
      const std::size_t lo = i >= 2 ? i - 2 : 0;
      const std::size_t hi = std::min(cal_samples.size() - 1, i + 3);
      for (std::size_t k = lo; k <= hi; ++k) around.add(cal_samples[k]);
      factors.push_back(cal.factor(around.median()));
      wall_raw_ms += blocks[i].wall_ms;
    }
    segments = std::clamp<std::size_t>(attempted / 1000, 1, 5);
    beyond_p99 = attempted;
    Samples seg[2][4];  // [calibrated, raw][p50, p99, rps, cpu]
    std::size_t first = 0, seen = 0;
    for (std::size_t s = 0; s < segments; ++s) {
      const std::size_t goal = (s + 1) * attempted / segments;
      std::size_t last = first;
      std::size_t count = 0;
      while (last < blocks.size() && (seen + count < goal || last == first)) {
        count += blocks[last].latency_ms.size();
        ++last;
      }
      if (s + 1 == segments) {
        for (; last < blocks.size(); ++last) count += blocks[last].latency_ms.size();
      }
      for (int c = 0; c < 2; ++c) {
        Samples lat;
        double wall = 0, cpu = 0;
        for (std::size_t i = first; i < last; ++i) {
          const double f = c == 0 ? factors[i] : 1.0;
          for (const double l : blocks[i].latency_ms) lat.add(l * f);
          wall += blocks[i].wall_ms * f;
          cpu += blocks[i].cpu_ms * f;
        }
        const double n = static_cast<double>(std::max<std::size_t>(1, count));
        seg[c][0].add(lat.quantile(0.50));
        seg[c][1].add(lat.quantile(0.99));
        seg[c][2].add(n / (wall / 1e3));
        seg[c][3].add(cpu / n);
      }
      beyond_p99 = std::min(beyond_p99, count - static_cast<std::size_t>(
                                                    std::ceil(0.99 * count)));
      seen += count;
      first = last;
    }
    Timings* out[2] = {&cal_timings, &raw_timings};
    for (int c = 0; c < 2; ++c) {
      out[c]->p50 = seg[c][0].median();
      out[c]->p99 = seg[c][1].median();
      out[c]->requests_per_s = seg[c][2].median();
      out[c]->cpu_ms_per_request = seg[c][3].median();
    }
  }
};

constexpr double kBlockMs = 100;

// --- cold-synth: one CLI process per request ------------------------------

std::vector<std::string> cli_argv(const Options& o, const Request& r,
                                  const std::string& spec_path) {
  return {o.fraghls, spec_path, "--latency", std::to_string(r.latency),
          "--flow", r.flow, "--scheduler", r.scheduler, "--json"};
}

void measure_cold(const Options& o, Workload& w, double seconds,
                  bool probe, Calibration& cal, Measured& m) {
  const std::filesystem::path dir =
      std::filesystem::path(o.work) / ("specs-" + w.name + "-" + std::to_string(o.seed));
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    paths.push_back((dir / ("spec" + std::to_string(i) + ".hls")).string());
    std::ofstream(paths.back()) << w.specs[i].text;
  }
  // Set-up: the lifetime of a no-work invocation, several times.
  for (int i = 0; i < 15; ++i) {
    const double before = cal.sample();
    const ChildRun c = run_child({o.fraghls, "--list-flows"});
    const double after = cal.sample();
    if (c.exit_code != 0) {
      ++m.failed;
      m.problem("fraghls --list-flows exited with " + std::to_string(c.exit_code));
    }
    m.setup_raw.add(c.wall_ms / 1e3);
    m.setup_cal.add(c.wall_ms / 1e3 * cal.factor(0.5 * (before + after)));
    m.spawn.add(c.wall_ms);
  }
  const Clock::time_point start = Clock::now();
  std::size_t next = 0;
  m.cal_samples.push_back(cal.sample());
  while (ms_between(start, Clock::now()) < seconds * 1e3) {
    const Clock::time_point b0 = Clock::now();
    std::vector<ChildRun> runs;
    std::vector<std::size_t> ids;
    while (ms_between(b0, Clock::now()) < kBlockMs) {
      const std::size_t id = w.at(next++);
      runs.push_back(run_child(cli_argv(o, w.requests[id], paths[w.requests[id].spec]),
                               probe));
      ids.push_back(id);
    }
    Measured::Block& b = m.blocks.emplace_back();
    b.wall_ms = ms_between(b0, Clock::now());
    m.cal_samples.push_back(cal.sample());
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const ChildRun& c = runs[k];
      ++m.attempted;
      b.latency_ms.push_back(c.wall_ms);
      b.cpu_ms += c.cpu_ms;
      m.peak_rss_mb = std::max(m.peak_rss_mb, c.maxrss_mb);
      m.threads_peak = std::max(m.threads_peak, c.threads_peak);
      m.ctx_switches += c.ctx_switches;
      if (c.exit_code != 0 || !m.ledger.record(ids[k], c.out)) {
        ++m.failed;
        m.problem("request " + std::to_string(ids[k]) + ": exit " +
                  std::to_string(c.exit_code) + " or output differs from an "
                  "earlier run of the same request");
      }
    }
  }
}

// --- serve-hot / serve-churn: a TCP daemon and closed-loop clients --------

/// The daemon's flags for workload `w`.
std::vector<std::string> daemon_args(const Workload& w, std::size_t cache_mb) {
  std::vector<std::string> args;
  if (w.batch_workers > 0) {
    args = {"--workers", std::to_string(w.batch_workers)};
  }
  if (cache_mb > 0) {
    args.insert(args.end(), {"--cache-mb", std::to_string(cache_mb)});
  }
  return args;
}

/// Sends the warm-up requests in order on one connection and records the
/// responses; returns false on a broken connection.
bool warm(const Workload& w, const std::vector<std::string>& lines,
          unsigned port, Measured& m) {
  Conn c(port);
  std::string response;
  for (const std::size_t id : w.warmup) {
    if (!c.roundtrip(lines[id], response)) return false;
    if (!m.ledger.record(id, normalize_envelope(response,
                                                w.requests[id].kind == "explore"))) {
      ++m.failed;
      m.problem("warm-up response to request " + std::to_string(id) +
                " differs between daemon launches");
    }
  }
  return true;
}

void measure_serve(const Options& o, Workload& w, double seconds, bool probe,
                   std::size_t cache_mb, Calibration& cal, Measured& m) {
  std::vector<std::string> lines;
  const auto prepare = [&](std::size_t n) {
    w.extend(n);
    while (lines.size() < w.requests.size()) {
      const Request& r = w.requests[lines.size()];
      lines.push_back(serve_line(r, w.specs[r.spec]));
    }
  };
  prepare(4096);

  // Set-up: launch to the end of the warm-up pass, several times; the last
  // daemon stays up for the measurement.
  Daemon daemon;
  constexpr int kSetups = 5;
  for (int i = 0; i < kSetups; ++i) {
    const double before = cal.sample();
    const Clock::time_point t0 = Clock::now();
    daemon.start(o.fraghls, daemon_args(w, cache_mb));
    const double spawn_ms = ms_between(t0, Clock::now());
    if (!warm(w, lines, daemon.port(), m)) {
      throw std::runtime_error("daemon dropped the warm-up connection");
    }
    const double raw = ms_between(t0, Clock::now());
    const double after = cal.sample();
    m.setup_raw.add(raw / 1e3);
    m.setup_cal.add(raw / 1e3 * cal.factor(0.5 * (before + after)));
    m.spawn.add(spawn_ms);
    if (i + 1 < kSetups) daemon.stop();
  }

  const unsigned clients = w.clients;
  std::vector<std::unique_ptr<Conn>> conns;
  for (unsigned c = 0; c < clients; ++c) {
    conns.push_back(std::make_unique<Conn>(daemon.port()));
  }
  struct Rec {
    std::size_t id;
    double raw_ms;
    double server_ms;
    bool sent;
    bool ok;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::size_t block = 0;       // generation counter
  std::size_t done = 0;        // clients finished with the current block
  bool quit = false;
  Clock::time_point deadline;
  std::atomic<std::size_t> next{0};
  std::size_t prepared = 0;
  std::vector<std::vector<Rec>> recs(clients);

  const auto client = [&](unsigned c) {
    std::size_t seen = 0;
    std::string response;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return quit || block != seen; });
        if (quit) return;
        seen = block;
      }
      for (;;) {
        if (Clock::now() >= deadline) break;
        const std::size_t i = next.fetch_add(1);
        if (i >= prepared) break;
        const std::size_t id = w.stream_at(i);  // prepared above
        const Clock::time_point t0 = Clock::now();
        const bool sent = conns[c]->roundtrip(lines[id], response);
        const double raw = ms_between(t0, Clock::now());
        Rec r{id, raw, 0, sent, sent};
        if (sent) {
          const std::string norm =
              normalize_envelope(response, w.requests[id].kind == "explore");
          r.ok = m.ledger.record(id, norm);
          const std::size_t at = response.rfind(",\"ms\":");
          if (at != std::string::npos) {
            r.server_ms = std::strtod(response.c_str() + at + 6, nullptr);
          }
        }
        recs[c].push_back(r);
        if (!sent) break;
      }
      {
        const std::lock_guard<std::mutex> lock(mu);
        ++done;
      }
      cv.notify_all();
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client, c);
  // The traced run also polls the daemon's thread count while it works:
  // per-request worker threads live for less than a block.
  std::atomic<bool> sampling{probe};
  std::atomic<std::int64_t> sampled_threads{0};
  std::thread sampler([&] {
    while (sampling.load()) {
      const std::int64_t n = read_proc(daemon.pid()).threads;
      if (n > sampled_threads.load()) sampled_threads.store(n);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const Clock::time_point start = Clock::now();
  m.cal_samples.push_back(cal.sample());
  bool broken = false;
  while (!broken && ms_between(start, Clock::now()) < seconds * 1e3) {
    prepare(next.load() + 20000);
    prepared = next.load() + 20000;
    for (auto& r : recs) r.clear();
    const ProcSample p0 = read_proc(daemon.pid());
    const Clock::time_point b0 = Clock::now();
    {
      const std::lock_guard<std::mutex> lock(mu);
      deadline = b0 + std::chrono::microseconds(static_cast<long>(kBlockMs * 1e3));
      done = 0;
      ++block;
    }
    cv.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == clients; });
    }
    Measured::Block& b = m.blocks.emplace_back();
    b.wall_ms = ms_between(b0, Clock::now());
    const ProcSample p1 = read_proc(daemon.pid());
    m.cal_samples.push_back(cal.sample());
    b.cpu_ms = p1.cpu_ms - p0.cpu_ms;
    m.threads_peak = std::max({m.threads_peak, p0.threads, p1.threads});
    m.ctx_switches += p1.ctx_switches - p0.ctx_switches;
    for (const auto& rs : recs) {
      for (const Rec& r : rs) {
        ++m.attempted;
        b.latency_ms.push_back(r.raw_ms);
        if (r.server_ms > 0) m.transport.add(r.raw_ms - r.server_ms);
        if (!r.ok) {
          ++m.failed;
          m.problem("request " + std::to_string(r.id) +
                    (r.sent ? ": response differs from an earlier response "
                              "to the same request"
                            : ": connection lost"));
          broken = true;
        }
      }
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    quit = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  sampling.store(false);
  sampler.join();
  m.threads_peak = std::max(m.threads_peak, sampled_threads.load());
  m.peak_rss_mb = read_proc(daemon.pid()).vmhwm_mb;
  conns.clear();
  daemon.stop();
}

// --- checks outside the timed window --------------------------------------

/// Diffs the first response to every distinct request against an uncached
/// in-process run, and computes the design metrics over the working set.
void check_and_design(Workload& w, Measured& m, MetricValues& out) {
  const std::map<std::size_t, std::string> seen = m.ledger.snapshot();
  std::vector<std::size_t> ids;
  for (const auto& [id, body] : seen) ids.push_back(id);
  for (std::size_t id = 0; id < w.requests.size(); ++id) {
    if (w.requests[id].in_working_set && seen.count(id) == 0) ids.push_back(id);
  }
  std::vector<Reference> refs(ids.size());
  std::vector<std::string> errors(ids.size());
  parallel_for(ids.size(), 4, [&](std::size_t k) {
    const Request& r = w.requests[ids[k]];
    try {
      refs[k] = reference_for(r, w.specs[r.spec], !w.serve);
    } catch (const std::exception& e) {
      errors[k] = e.what();
    }
  });
  Samples exec, area, speedup, frags;
  std::size_t wrong = 0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const Request& r = w.requests[ids[k]];
    const Reference& ref = refs[k];
    if (!errors[k].empty()) {
      ++wrong;
      m.problem("reference for request " + std::to_string(ids[k]) +
                " threw: " + errors[k]);
      continue;
    }
    // Explore requests are left out: which points they evaluate depends on
    // pruning, so their design count would vary with the seed.
    if (r.in_working_set && r.kind != "explore") {
      for (const Reference::Design& d : ref.designs) {
        exec.add(d.exec_ns);
        area.add(d.area_gates);
        speedup.add(d.conventional_exec_ns / d.exec_ns);
        frags.add(d.fragments);
      }
    }
    const auto it = seen.find(ids[k]);
    if (it == seen.end()) continue;
    bool good;
    if (!w.serve) {
      good = it->second == ref.body;
    } else {
      const Envelope e = parse_envelope(it->second);
      good = e.parsed && (r.refusal.empty()
                              ? e.ok == ref.ok && e.ok && e.body == ref.body
                              : !e.ok && e.stage == r.refusal);
    }
    if (!good) {
      ++wrong;
      m.problem("request " + std::to_string(ids[k]) + " (" + r.kind + " " +
                r.flow + "/" + r.scheduler + ") differs from the uncached "
                "in-process run");
    }
  }
  m.failed += wrong;
  out["design_exec_ns_geomean"] = exec.geomean();
  out["design_area_gates_geomean"] = area.geomean();
  out["design_speedup_vs_original"] = speedup.geomean();
  std::printf("design: %zu working-set designs, fragments min %.0f "
              "median %.0f max %.0f, above 192: %zu\n",
              exec.size(), frags.min(), frags.median(), frags.max(),
              frags.count_above(192));
}

/// The cache bound below the working set: its resident bytes as measured by
/// an in-process cache, times the workload's share.
std::size_t churn_cache_mb(Workload& w) {
  if (w.cache_share <= 0) return 0;
  const double bytes = working_set_resident_bytes(w);
  const std::size_t mb = static_cast<std::size_t>(
      std::floor(bytes * w.cache_share / (1024.0 * 1024.0)));
  std::printf("working set resident %.2f MiB -> --cache-mb %zu\n",
              bytes / (1024.0 * 1024.0), std::max<std::size_t>(1, mb));
  return std::max<std::size_t>(1, mb);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<MetricDef>& defs, const MetricValues& v) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = v.find(d.name);
    const double value = it == v.end() ? 0.0 : it->second;
    if (!first) os << ", ";
    first = false;
    os << "\"" << d.name << "\": {\"value\": "
       << (std::isfinite(value) ? value : 0.0) << ", \"unit\": \"" << d.unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Options& o) {
  Workload w = make_workload(o.workload, o.seed);
  Calibration cal;
  Measured m;
  MetricValues v;
  const std::size_t cache_mb = w.serve ? churn_cache_mb(w) : 0;
  // The traced run probes the real program for a quarter of the time and
  // spends the rest on the in-process replay.
  const double real_seconds = o.trace ? std::max(1.0, o.seconds / 4) : o.seconds;
  if (w.serve) {
    measure_serve(o, w, real_seconds, o.trace, cache_mb, cal, m);
  } else {
    measure_cold(o, w, real_seconds, o.trace, cal, m);
  }
  m.finalize(cal);
  check_and_design(w, m, v);
  const bool correct = m.failed == 0 && m.attempted > 0;

  std::printf("workload %s seed %llu: %zu requests in %zu blocks, %.1f s "
              "measured\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed),
              m.attempted, m.blocks.size(), m.wall_raw_ms / 1e3);
  std::printf("%s\n", cal.health().c_str());
  std::printf("program: %.1f context switches per request, %lld threads at "
              "most\n",
              static_cast<double>(m.ctx_switches) /
                  static_cast<double>(std::max<std::size_t>(1, m.attempted)),
              static_cast<long long>(m.threads_peak));
  std::printf("error_rate = %.6f (%zu failed of %zu)\n",
              m.attempted ? static_cast<double>(m.failed) / m.attempted : 1.0,
              m.failed, m.attempted);
  for (const std::string& p : m.problems) std::printf("FAILED: %s\n", p.c_str());

  if (!o.trace) {
    v["setup_s"] = m.setup_cal.median();
    v["request_ms_p50"] = m.cal_timings.p50;
    v["request_ms_p99"] = m.cal_timings.p99;
    v["requests_per_s"] = m.cal_timings.requests_per_s;
    v["peak_rss_mb"] = m.peak_rss_mb;
    v["cpu_ms_per_request"] = m.cal_timings.cpu_ms_per_request;
    const std::map<std::string, double> raw = {
        {"setup_s", m.setup_raw.median()},
        {"request_ms_p50", m.raw_timings.p50},
        {"request_ms_p99", m.raw_timings.p99},
        {"requests_per_s", m.raw_timings.requests_per_s},
        {"cpu_ms_per_request", m.raw_timings.cpu_ms_per_request}};
    std::printf("timings: median over %zu segments; every segment has at "
                "least %zu samples beyond its p99\n",
                m.segments, m.beyond_p99);
    for (const MetricDef& d : end_to_end_metrics()) {
      const auto r = raw.find(d.name);
      if (r != raw.end()) {
        std::printf("%-28s %14.6f %-6s (raw %.6f)\n", d.name, v[d.name], d.unit,
                    r->second);
      } else {
        std::printf("%-28s %14.6f %s\n", d.name, v[d.name], d.unit);
      }
    }
    print_result(correct, m.attempted, m.failed, end_to_end_metrics(), v);
    return correct ? 0 : 1;
  }

  // Traced run: the real-program probe gives what only the real program
  // shows; the replay gives the per-layer split.
  MetricValues layers;
  layers["serve.transport_ms"] = w.serve ? m.transport.median() : 0.0;
  layers["serve.threads_peak"] = static_cast<double>(m.threads_peak);
  layers["process.spawn_ms"] = m.spawn.median();
  const std::filesystem::path trace_path =
      std::filesystem::path(o.work) /
      ("trace-" + w.name + "-" + std::to_string(o.seed) + ".json");
  ReplayResult rr = replay(w, o.seconds - real_seconds, cache_mb, cal,
                           trace_path.string());
  for (const auto& [k, val] : rr.metrics) layers[k] = val;
  for (const std::string& p : rr.problems) std::printf("FAILED: %s\n", p.c_str());
  std::printf("replay: %zu requests, trace written to %s\n", rr.requests,
              trace_path.string().c_str());
  for (const MetricDef& d : per_layer_metrics()) {
    std::printf("%-32s %14.6f %s\n", d.name, layers[d.name], d.unit);
  }
  const bool ok = correct && rr.problems.empty();
  print_result(ok, m.attempted + rr.requests, m.failed + rr.problems.size(),
               per_layer_metrics(), layers);
  return ok ? 0 : 1;
}

} // namespace
} // namespace perfbench

namespace perfbench {
namespace {

/// `--validate FIRST LAST`: every working-set request and the first 2000
/// stream requests of every workload, for each seed in [FIRST, LAST], must
/// get its expected answer from an uncached in-process run (successful, or
/// refused when the request is a refusal). Guards the generator against
/// workloads on which an operation fails.
int validate(std::uint64_t first, std::uint64_t last) {
  std::size_t bad = 0, total = 0;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    for (const std::string& name : workload_names()) {
      Workload w = make_workload(name, seed);
      w.extend(2000);
      std::vector<char> used(w.requests.size(), 0);
      for (std::size_t i = 0; i < 2000; ++i) used[w.stream_at(i)] = 1;
      for (std::size_t id = 0; id < w.requests.size(); ++id) {
        if (w.requests[id].in_working_set) used[id] = 1;
      }
      std::vector<std::size_t> ids;
      for (std::size_t id = 0; id < used.size(); ++id) {
        if (used[id] && w.requests[id].refusal.empty()) ids.push_back(id);
      }
      std::vector<char> ok(ids.size(), 0);
      parallel_for(ids.size(), 4, [&](std::size_t k) {
        const Request& r = w.requests[ids[k]];
        try {
          ok[k] = reference_for(r, w.specs[r.spec], !w.serve).ok;
        } catch (const std::exception&) {
          ok[k] = 0;
        }
      });
      for (std::size_t k = 0; k < ids.size(); ++k) {
        ++total;
        if (ok[k]) continue;
        ++bad;
        const Request& r = w.requests[ids[k]];
        std::printf("seed %llu %s request %zu: %s %s/%s latency %u lo %u hi %u "
                    "fails\n",
                    static_cast<unsigned long long>(seed), name.c_str(), ids[k],
                    r.kind.c_str(), r.flow.c_str(), r.scheduler.c_str(),
                    r.latency, r.lo, r.hi);
      }
    }
  }
  std::printf("validated %zu requests, %zu failed\n", total, bad);
  return bad == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

namespace perfbench {
namespace {

/// `--dump WORKLOAD SEED N`: the exact inputs the program receives for the
/// first N requests of the stream (request lines for the daemon, argument
/// lists plus spec text for the CLI).
int dump(const std::string& name, std::uint64_t seed, std::size_t n) {
  Workload w = make_workload(name, seed);
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = w.requests[w.at(i)];
    if (w.serve) {
      std::printf("%s\n", serve_line(r, w.specs[r.spec]).c_str());
    } else {
      std::printf("--latency %u --flow %s --scheduler %s\n%s", r.latency,
                  r.flow.c_str(), r.scheduler.c_str(),
                  w.specs[r.spec].text.c_str());
    }
  }
  return 0;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  try {
    if (argc == 5 && std::string(argv[1]) == "--dump") {
      return perfbench::dump(argv[2], std::stoull(argv[3]), std::stoull(argv[4]));
    }
    if (argc == 4 && std::string(argv[1]) == "--validate") {
      return perfbench::validate(std::stoull(argv[2]), std::stoull(argv[3]));
    }
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
