#include "workload.hpp"

#include <stdexcept>

namespace perfbench {

namespace {

// Stream tags: independent spec streams per workload role.
constexpr std::uint64_t kColdStream = 1;
constexpr std::uint64_t kHotStream = 2;
constexpr std::uint64_t kChurnSetStream = 3;
constexpr std::uint64_t kChurnFreshStream = 4;

constexpr std::size_t kColdPool = 1000;
constexpr std::size_t kHotSpecs = 24;
constexpr std::size_t kChurnSpecs = 40;
constexpr unsigned kShapes = 5;

/// The partitioned flow runs on staged specs: other shapes can split into
/// more kernels than a small latency has cycles for. Each kernel needs
/// cycles of its own, so partitioned runs get latencies every staged spec
/// (at most three kernels) fits.
const char* flow_for(const Spec& spec) {
  return spec.shape == "staged" ? "partitioned" : "optimized";
}

/// Working-set spec i: shapes in turn, size levels rising every lap, so the
/// set's cost profile is the same for every seed.
Spec working_spec(std::uint64_t seed, std::uint64_t stream, std::size_t i,
                  SpecSize size) {
  return make_spec(seed, stream, i, size, static_cast<unsigned>(i % kShapes),
                   static_cast<unsigned>((i / kShapes) % 4));
}


const char* scheduler_for(std::size_t i) {
  return i % 2 == 0 ? "list" : "forcedirected";
}

/// Latency constraint from a ladder: `step` picks the rung, so a working
/// set's constraints (and with them its designs) do not depend on the seed.
unsigned latency_for(std::uint64_t step, bool partitioned) {
  return partitioned ? 7 + static_cast<unsigned>(step % 4)
                     : 3 + static_cast<unsigned>(step % 7);
}

Request run_request(std::uint64_t step, std::size_t spec, const char* flow,
                    const char* scheduler) {
  Request r;
  r.kind = "run";
  r.spec = spec;
  r.flow = flow;
  r.scheduler = scheduler;
  r.latency = latency_for(step, r.flow == "partitioned");
  return r;
}

Request sweep_request(std::uint64_t step, std::size_t spec, const char* flow) {
  Request r;
  r.kind = "sweep";
  r.spec = spec;
  r.flow = flow;
  r.scheduler = scheduler_for(step / 3);
  r.lo = r.flow == "partitioned" ? 7 + static_cast<unsigned>(step % 3)
                                 : 3 + static_cast<unsigned>(step % 4);
  r.hi = r.lo + 2;
  return r;
}

Request explore_request(std::uint64_t step, std::size_t spec, bool both_flows) {
  Request r;
  r.kind = "explore";
  r.spec = spec;
  r.flows = both_flows ? std::vector<std::string>{"optimized", "partitioned"}
                       : std::vector<std::string>{"optimized"};
  r.schedulers = {"list"};
  r.lo = both_flows ? 7 + static_cast<unsigned>(step % 3)
                    : 3 + static_cast<unsigned>(step % 4);
  r.hi = r.lo + 3;
  return r;
}

} // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cold-synth", "serve-hot",
                                                 "serve-churn"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.rng_ = Rng(seed ^ 0xB5AD4ECEDA1CE2A9ull);
  if (name == "cold-synth") {
    // One CLI process per request over a pool of distinct specs; sizes
    // straddle force-directed's parallel floor, both schedulers, mostly
    // optimized with a slice of partitioned.
    for (std::size_t i = 0; i < kColdPool; ++i) {
      w.specs.push_back(working_spec(seed, kColdStream, i, SpecSize::Mixed));
      Request r = run_request(i / 2, i, flow_for(w.specs.back()), scheduler_for(i));
      r.in_working_set = true;
      w.requests.push_back(r);
    }
  } else if (name == "serve-hot") {
    // A working set that fits the cache, warmed at set-up; Zipf repeats.
    w.serve = true;
    w.clients = 3;
    // One thread per request: three clients already keep the cores busy,
    // and fanning each explore out over every core as well oversubscribes
    // the machine (measured: twice the context switches and 40% more CPU
    // per request, and a tail that swings with the host's scheduling).
    w.batch_workers = 1;
    for (std::size_t i = 0; i < kHotSpecs; ++i) {
      w.specs.push_back(working_spec(seed, kHotStream, i, SpecSize::Mixed));
      Request a = run_request(i, i, "optimized", "list");
      Request b = run_request(i + 3, i, "optimized", "forcedirected");
      Request c = explore_request(i, i, false);
      a.in_working_set = b.in_working_set = c.in_working_set = true;
      w.requests.push_back(a);
      w.requests.push_back(b);
      w.requests.push_back(c);
    }
    // Popularity: Zipf(1.0) over a fixed interleaving of the requests (a
    // seed-independent rank order keeps the cost profile seed-independent;
    // the seed still picks every request of the stream).
    std::vector<std::size_t> order(w.requests.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = (i * 17) % order.size();
    }
    // Cumulative mass by popularity rank; ring_ maps rank -> request.
    double total = 0;
    for (std::size_t k = 0; k < order.size(); ++k) total += 1.0 / (k + 1);
    double acc = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      acc += 1.0 / (k + 1) / total;
      w.zipf_cdf_.push_back(acc);
    }
    w.ring_ = order;
  } else if (name == "serve-churn") {
    // A cache bounded below the working set, half fresh specs, the full
    // request mix and a small share of requests that must be refused.
    w.serve = true;
    w.clients = 2;
    w.cache_share = 0.5;
    for (std::size_t i = 0; i < kChurnSpecs; ++i) {
      w.specs.push_back(working_spec(seed, kChurnSetStream, i, SpecSize::Small));
      const Spec& spec = w.specs.back();
      Request a = run_request(i / 2, i, flow_for(spec), scheduler_for(i));
      Request b = i % 2 == 0 ? sweep_request(i / 2, i, flow_for(spec))
                             : explore_request(i / 2, i, spec.shape == "staged");
      a.in_working_set = b.in_working_set = true;
      w.requests.push_back(a);
      w.requests.push_back(b);
    }
    const std::size_t working = w.requests.size();
    Request bad_parse = run_request(0, 0, "optimized", "list");
    bad_parse.broken_spec = true;
    bad_parse.refusal = "parse";
    Request bad_sched = run_request(1, 1, "optimized", "no-such-scheduler");
    bad_sched.refusal = "registry";
    Request bad_range = sweep_request(2, 2, "optimized");
    std::swap(bad_range.lo, bad_range.hi);
    bad_range.refusal = "request";
    w.requests.push_back(bad_parse);
    w.requests.push_back(bad_sched);
    w.requests.push_back(bad_range);
    w.working_ = working;
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    if (w.name != "serve-churn" || w.requests[i].refusal.empty()) {
      if (w.name != "cold-synth") w.warmup.push_back(i);
    }
  }
  return w;
}

std::size_t Workload::fresh_request() {
  const std::size_t spec = specs.size();
  specs.push_back(make_spec(seed, kChurnFreshStream, fresh_, SpecSize::Small,
                            static_cast<unsigned>(fresh_ % kShapes),
                            rng_.range(0, 3)));
  const Spec& s = specs.back();
  const char* scheduler = scheduler_for(fresh_ / kShapes);
  ++fresh_;
  const double u = rng_.unit();
  const std::uint64_t step = rng_.next();
  if (u < 0.7) {
    requests.push_back(run_request(step, spec, flow_for(s), scheduler));
  } else if (u < 0.85) {
    requests.push_back(sweep_request(step, spec, flow_for(s)));
  } else {
    requests.push_back(explore_request(step, spec, s.shape == "staged"));
  }
  return requests.size() - 1;
}

void Workload::push_next() {
  if (name == "cold-synth") {
    // Cycles through seeded permutations of the pool.
    if (ring_.empty()) {
      ring_.resize(requests.size());
      for (std::size_t i = 0; i < ring_.size(); ++i) ring_[i] = i;
      for (std::size_t i = ring_.size(); i > 1; --i) {
        std::swap(ring_[i - 1], ring_[rng_.next() % i]);
      }
    }
    stream_.push_back(ring_.back());
    ring_.pop_back();
  } else if (name == "serve-hot") {
    const double u = rng_.unit();
    std::size_t k = 0;
    while (k + 1 < zipf_cdf_.size() && zipf_cdf_[k] < u) ++k;
    stream_.push_back(ring_[k]);
  } else {
    const double u = rng_.unit();
    if (u < 0.02) {
      stream_.push_back(working_ + rng_.next() % 3);
    } else if (u < 0.51) {
      stream_.push_back(fresh_request());
    } else {
      stream_.push_back(rng_.next() % working_);
    }
  }
}

void Workload::extend(std::size_t n) {
  while (stream_.size() < n) push_next();
}

std::size_t Workload::at(std::size_t i) {
  extend(i + 1);
  return stream_[i];
}

} // namespace perfbench
