// The traced run's in-process replay: the workload's request stream, served
// again inside this process with a span around every public library call
// the request reaches, so each layer's self time can be read off.
//
// Per request (serve workloads):
//
//   serve.request  Server::handle_line on an in-process Server configured
//                  like the daemon — the served cost of the request, and the
//                  source of the cache hit/miss/eviction counts.
//   json.parse     parse_json of the request line.
//   parser         parse_spec of its DSL text.
//   flow           Session::run of each flow request it contains, against a
//                  second cache that sees the same request sequence. The
//                  cache is wrapped (TracingCache) so every stage getter is
//                  a dse.cache span; when a getter misses, the stage it
//                  computed is computed again under its layer's span
//                  (kernel, frag, sched, alloc, partition) and that time is
//                  moved from dse.cache to the layer.
//   dse.explorer   Explorer::run, minus the cached per-point flow runs it
//                  contains (measured right after, all hits).
//   json.encode    to_json of the result.
//   rtl            area_of + simulate_datapath on the result's datapath.
//
// Self times: flow = Session::run − its getters; serve = handle_line − the
// parse, flow, explorer and encode time of the same request. The CLI
// workload replays parse, Session::run (through a pass-through TracingCache
// with no store, so the layers are still visible) and the JSON encode.

#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <type_traits>

#include "alloc/bitlevel.hpp"
#include "dse/cache.hpp"
#include "dse/explorer.hpp"
#include "flow/json.hpp"
#include "flow/session.hpp"
#include "frag/transform.hpp"
#include "ir/eval.hpp"
#include "kernel/extract.hpp"
#include "kernel/narrow.hpp"
#include "parser/parser.hpp"
#include "partition/partition.hpp"
#include "reference.hpp"
#include "rtl/area.hpp"
#include "rtl/cycle_sim.hpp"
#include "sched/core.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Spans kept in memory and written once at the end as Chrome trace JSON.
class Tracer {
public:
  static constexpr std::size_t kMaxSpans = 200000;

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  }
  void add(const char* name, double start_us, double dur_us) {
    if (spans_.size() < kMaxSpans) spans_.push_back({name, start_us, dur_us});
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i != 0) out << ",";
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}",
                    s.name, s.start_us, s.dur_us);
      out << buf;
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
  }

private:
  struct Span {
    const char* name;
    double start_us;
    double dur_us;
  };
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// Layer totals of one block of replayed requests (raw ms and counts).
using Totals = std::map<std::string, double>;

/// Times `f` under a span named `name`, adding the duration (ms) to
/// totals[name]; returns the duration.
template <typename F>
double timed(Tracer& tr, Totals& totals, const char* name, F&& f) {
  const double t0 = tr.now_us();
  f();
  const double dur = tr.now_us() - t0;
  tr.add(name, t0, dur);
  totals[name] += dur / 1e3;
  return dur / 1e3;
}

/// A StageCache that makes the flow's stage calls visible.
///
/// With an inner ArtifactCache every getter is delegated (span dse.cache);
/// a getter that missed has its computed stage(s) recomputed under their
/// layer spans, and that time is moved from dse.cache to the layer. Without
/// one it is a pass-through: each stage is computed once per request under
/// its layer span (memoized for the request, as the flow expects).
class TracingCache final : public hls::StageCache {
public:
  TracingCache(std::shared_ptr<hls::ArtifactCache> inner, Tracer& tr,
               Totals& totals)
      : inner_(std::move(inner)), tr_(tr), t_(totals) {}

  std::shared_ptr<const hls::KernelArtifact> kernel(const hls::Dfg& spec) override {
    if (inner_) {
      return get([&] { return inner_->kernel(spec); },
                 [&](Miss& m) { m.spec = &spec; });
    }
    return memo(kernels_, key(spec), [&] { return compute_kernel(spec); });
  }
  std::shared_ptr<const hls::Dfg> narrowed(const hls::Dfg& spec) override {
    if (inner_) {
      return get([&] { return inner_->narrowed(spec); },
                 [&](Miss& m) { m.spec = &spec; });
    }
    return memo(narrowed_, key(spec), [&] {
      const auto k = kernel(spec);
      return compute_narrow(k->kernel);
    });
  }
  std::shared_ptr<const hls::TransformResult> transform(
      const hls::Dfg& spec, bool narrow, unsigned latency, unsigned n_bits,
      const hls::DelayModel& delay, const hls::CancelToken& cancel) override {
    if (inner_) {
      return get([&] {
        return inner_->transform(spec, narrow, latency, n_bits, delay, cancel);
      }, [&](Miss& m) {
        m.spec = &spec;
        m.narrow = narrow;
        m.latency = latency;
        m.n_bits = n_bits;
        m.delay = &delay;
      });
    }
    return memo(transforms_, key(spec, narrow, latency, n_bits), [&] {
      const hls::Dfg& k = narrow ? *narrowed(spec) : kernel(spec)->kernel;
      std::shared_ptr<const hls::TransformResult> out;
      timed(tr_, t_, "frag", [&] {
        out = std::make_shared<hls::TransformResult>(
            hls::transform_spec(k, latency, n_bits, delay));
      });
      t_["frag.fragments"] += static_cast<double>(out->adds.size());
      return out;
    });
  }
  std::shared_ptr<const hls::FragSchedule> fragment_schedule(
      const std::string& scheduler, const hls::Dfg& spec, bool narrow,
      unsigned latency, unsigned n_bits, const hls::DelayModel& delay,
      const hls::CancelToken& cancel) override {
    if (inner_) {
      return get([&] {
        return inner_->fragment_schedule(scheduler, spec, narrow, latency,
                                         n_bits, delay, cancel);
      }, [&](Miss& m) {
        m.spec = &spec;
        m.narrow = narrow;
        m.latency = latency;
        m.n_bits = n_bits;
        m.delay = &delay;
        m.scheduler = &scheduler;
      });
    }
    return memo(schedules_, key(spec, narrow, latency, n_bits) + scheduler, [&] {
      return compute_schedule(scheduler,
                              *transform(spec, narrow, latency, n_bits, delay, cancel));
    });
  }
  std::shared_ptr<const hls::Datapath> bitlevel_datapath(
      const std::string& scheduler, const hls::Dfg& spec, bool narrow,
      unsigned latency, unsigned n_bits, const hls::DelayModel& delay,
      const hls::CancelToken& cancel) override {
    if (inner_) {
      return get([&] {
        return inner_->bitlevel_datapath(scheduler, spec, narrow, latency,
                                         n_bits, delay, cancel);
      }, [&](Miss& m) {
        m.spec = &spec;
        m.narrow = narrow;
        m.latency = latency;
        m.n_bits = n_bits;
        m.delay = &delay;
        m.scheduler = &scheduler;
      });
    }
    return memo(datapaths_, key(spec, narrow, latency, n_bits) + scheduler, [&] {
      const auto t = transform(spec, narrow, latency, n_bits, delay, cancel);
      const auto fs =
          fragment_schedule(scheduler, spec, narrow, latency, n_bits, delay, cancel);
      return compute_datapath(*t, *fs);
    });
  }
  std::shared_ptr<const hls::KernelPartition> partition(const hls::Dfg& spec,
                                                        bool narrow) override {
    if (inner_) {
      return get([&] { return inner_->partition(spec, narrow); },
                 [&](Miss& m) {
                   m.spec = &spec;
                   m.narrow = narrow;
                 });
    }
    return memo(partitions_, key(spec, narrow), [&] {
      return compute_partition(narrow ? *narrowed(spec) : kernel(spec)->kernel);
    });
  }
  unsigned critical_time(const hls::Dfg& spec, bool narrow) override {
    if (inner_) {
      unsigned out = 0;
      get([&] {
        out = inner_->critical_time(spec, narrow);
        return std::shared_ptr<const int>();
      }, [&](Miss& m) {
        m.spec = &spec;
        m.narrow = narrow;
      });
      return out;
    }
    const hls::Dfg& k = narrow ? *narrowed(spec) : kernel(spec)->kernel;
    unsigned out = 0;
    timed(tr_, t_, "frag", [&] { out = hls::prepare_transform(k).critical; });
    return out;
  }

  /// Total ms spent inside inner getters (the dse.cache spans), and in
  /// recomputing what they missed — both inside the caller's flow span.
  double getter_ms() const { return getter_ms_; }
  double recompute_ms() const { return recompute_ms_; }

private:
  /// What a getter that missed was asked, so the missed stages can be
  /// recomputed.
  struct Miss {
    const hls::Dfg* spec = nullptr;
    bool narrow = false;
    unsigned latency = 0;
    unsigned n_bits = 0;
    const hls::DelayModel* delay = nullptr;
    const std::string* scheduler = nullptr;
  };

  static std::string key(const hls::Dfg& spec, bool narrow = false,
                         unsigned latency = 0, unsigned n_bits = 0) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%p/%d/%u/%u/",
                  static_cast<const void*>(&spec), narrow ? 1 : 0, latency, n_bits);
    return buf;
  }

  template <typename V, typename F>
  std::shared_ptr<const V> memo(std::map<std::string, std::shared_ptr<const V>>& m,
                                const std::string& k, F&& compute) {
    const auto it = m.find(k);
    if (it != m.end()) return it->second;
    std::shared_ptr<const V> v = compute();
    m.emplace(k, v);
    return v;
  }

  template <typename G>
  std::invoke_result_t<G&> get(G&& getter,
                               const std::function<void(Miss&)>& describe = {}) {
    const hls::CacheStats before = inner_->stats();
    const double t0 = tr_.now_us();
    auto v = getter();
    const double dur = tr_.now_us() - t0;
    tr_.add("dse.cache", t0, dur);
    const hls::CacheStats after = inner_->stats();
    getter_ms_ += dur / 1e3;
    double moved = 0;
    if (describe) {
      Miss m;
      describe(m);
      const double r0 = tr_.now_us();
      moved = recompute_misses(before, after, m);
      recompute_ms_ += (tr_.now_us() - r0) / 1e3;
    }
    t_["dse.cache.self_ms"] += dur / 1e3 - moved;
    return v;
  }

  /// Recomputes every stage whose miss counter moved during one getter call
  /// (inputs come from the inner cache, now resident); returns the ms spent.
  double recompute_misses(const hls::CacheStats& b, const hls::CacheStats& a,
                          const Miss& m) {
    double ms = 0;
    const auto missed = [](const hls::CacheStats::Counter& x,
                           const hls::CacheStats::Counter& y) {
      return y.misses > x.misses;
    };
    const hls::Dfg& spec = *m.spec;
    const auto kernel_of = [&]() -> hls::Dfg {
      return m.narrow ? *inner_->narrowed(spec) : inner_->kernel(spec)->kernel;
    };
    if (missed(b.kernel, a.kernel)) ms += compute_kernel_ms(spec);
    if (missed(b.narrow, a.narrow)) {
      const hls::Dfg k = inner_->kernel(spec)->kernel;
      const double t0 = tr_.now_us();
      compute_narrow(k);
      ms += (tr_.now_us() - t0) / 1e3;
    }
    if (missed(b.partition, a.partition)) {
      const hls::Dfg k = kernel_of();
      const double t0 = tr_.now_us();
      compute_partition(k);
      ms += (tr_.now_us() - t0) / 1e3;
    }
    if (missed(b.prep, a.prep)) {
      const hls::Dfg k = kernel_of();
      ms += timed(tr_, t_, "frag", [&] { hls::prepare_transform(k); });
    }
    if (m.delay == nullptr) return ms;
    if (missed(b.transform, a.transform)) {
      const auto prep = inner_->prep(spec, m.narrow);
      const unsigned n_bits = inner_->resolved_n_bits(spec, m.narrow, m.latency,
                                                      m.n_bits, *m.delay);
      hls::TransformResult t;
      ms += timed(tr_, t_, "frag", [&] {
        t = hls::transform_prepared(*prep, m.latency, n_bits);
      });
      t_["frag.fragments"] += static_cast<double>(t.adds.size());
    }
    if (m.scheduler == nullptr) return ms;
    if (missed(b.schedule, a.schedule) || missed(b.datapath, a.datapath)) {
      const auto t = inner_->transform(spec, m.narrow, m.latency, m.n_bits, *m.delay);
      if (missed(b.schedule, a.schedule)) {
        const double t0 = tr_.now_us();
        compute_schedule(*m.scheduler, *t);
        ms += (tr_.now_us() - t0) / 1e3;
      }
      if (missed(b.datapath, a.datapath)) {
        const auto fs = inner_->fragment_schedule(*m.scheduler, spec, m.narrow,
                                                  m.latency, m.n_bits, *m.delay);
        const double t0 = tr_.now_us();
        compute_datapath(*t, *fs);
        ms += (tr_.now_us() - t0) / 1e3;
      }
    }
    return ms;
  }

  std::shared_ptr<const hls::KernelArtifact> compute_kernel(const hls::Dfg& spec) {
    auto art = std::make_shared<hls::KernelArtifact>();
    timed(tr_, t_, "kernel", [&] {
      art->already_kernel = hls::is_kernel_form(spec);
      art->kernel = art->already_kernel ? spec : hls::extract_kernel(spec, &art->stats);
    });
    return art;
  }
  double compute_kernel_ms(const hls::Dfg& spec) {
    const double t0 = tr_.now_us();
    compute_kernel(spec);
    return (tr_.now_us() - t0) / 1e3;
  }
  std::shared_ptr<const hls::Dfg> compute_narrow(const hls::Dfg& kernel) {
    std::shared_ptr<const hls::Dfg> out;
    timed(tr_, t_, "kernel", [&] {
      out = std::make_shared<hls::Dfg>(hls::narrow_widths(kernel));
    });
    return out;
  }
  std::shared_ptr<const hls::FragSchedule> compute_schedule(
      const std::string& scheduler, const hls::TransformResult& t) {
    hls::OracleCounters counters;
    hls::SchedulerOptions opts;
    opts.counters = &counters;
    std::shared_ptr<const hls::FragSchedule> out;
    timed(tr_, t_, "sched", [&] {
      out = std::make_shared<hls::FragSchedule>(hls::run_scheduler(scheduler, t, opts));
    });
    t_["sched.candidates_evaluated"] += static_cast<double>(counters.candidates_evaluated);
    t_["sched.oracle_probes"] += static_cast<double>(counters.candidates_probed);
    t_["sched.oracle_rejects"] += static_cast<double>(counters.candidates_rejected);
    t_["sched.oracle_commits"] += static_cast<double>(counters.candidates_committed);
    return out;
  }
  std::shared_ptr<const hls::Datapath> compute_datapath(const hls::TransformResult& t,
                                                        const hls::FragSchedule& fs) {
    std::shared_ptr<const hls::Datapath> out;
    timed(tr_, t_, "alloc", [&] {
      out = std::make_shared<hls::Datapath>(hls::allocate_bitlevel(t, fs));
    });
    return out;
  }
  std::shared_ptr<const hls::KernelPartition> compute_partition(const hls::Dfg& kernel) {
    std::shared_ptr<const hls::KernelPartition> out;
    timed(tr_, t_, "partition", [&] {
      out = std::make_shared<hls::KernelPartition>(hls::partition_kernel(kernel));
    });
    t_["partition.kernels"] += static_cast<double>(out->kernels.size());
    return out;
  }

  std::shared_ptr<hls::ArtifactCache> inner_;
  Tracer& tr_;
  Totals& t_;
  double getter_ms_ = 0;
  double recompute_ms_ = 0;
  std::map<std::string, std::shared_ptr<const hls::KernelArtifact>> kernels_;
  std::map<std::string, std::shared_ptr<const hls::Dfg>> narrowed_;
  std::map<std::string, std::shared_ptr<const hls::TransformResult>> transforms_;
  std::map<std::string, std::shared_ptr<const hls::FragSchedule>> schedules_;
  std::map<std::string, std::shared_ptr<const hls::Datapath>> datapaths_;
  std::map<std::string, std::shared_ptr<const hls::KernelPartition>> partitions_;
};

/// The flow requests a run or sweep request contains.
std::vector<hls::FlowRequest> flow_requests(const Request& r, const hls::Dfg& dfg) {
  std::vector<hls::FlowRequest> out;
  const unsigned lo = r.kind == "run" ? r.latency : r.lo;
  const unsigned hi = r.kind == "run" ? r.latency : r.hi;
  for (unsigned lat = lo; lat <= hi; ++lat) {
    hls::FlowRequest fr;
    fr.spec = dfg;
    fr.flow = r.flow;
    fr.latency = lat;
    fr.scheduler = r.scheduler;
    out.push_back(std::move(fr));
  }
  return out;
}

hls::ExploreRequest explore_request(const Request& r, const hls::Dfg& dfg) {
  hls::ExploreRequest er;
  er.spec = dfg;
  er.flows = r.flows;
  er.schedulers = r.schedulers;
  er.latency_lo = r.lo;
  er.latency_hi = r.hi;
  return er;
}

/// Seeded input vector over the spec's input ports.
hls::InputValues inputs_for(const hls::Dfg& spec, std::uint64_t seed) {
  hls::InputValues in;
  Rng rng(seed);
  for (const hls::NodeId id : spec.inputs()) {
    const hls::Node& n = spec.node(id);
    const std::uint64_t mask =
        n.width >= 64 ? ~0ull : ((1ull << n.width) - 1);
    in[n.name] = rng.next() & mask;
  }
  return in;
}

class Replayer {
public:
  Replayer(Workload& w, std::size_t cache_mb)
      : w_(w),
        server_(hls::ServeOptions{.workers = w.batch_workers,
                                  .cache_max_bytes = cache_mb << 20}),
        cache_(std::make_shared<hls::ArtifactCache>(hls::ArtifactCacheOptions{
            .max_resident_bytes = cache_mb << 20})),
        session_(hls::SessionOptions{.workers = 1}) {}

  /// Brings the in-process server and the shadow cache to the daemon's
  /// post-set-up state (untimed).
  void warm() {
    Totals ignored;
    for (const std::size_t id : w_.warmup) {
      const Request& r = w_.requests[id];
      server_.handle_line(serve_line(r, w_.specs[r.spec]));
      replay_serve(r, ignored);
    }
  }

  /// Replays one request, adding raw layer ms and counts to `t`; returns
  /// the served (untraced) ms of the request.
  double replay(const Request& r, Totals& t) {
    return w_.serve ? replay_serve(r, t, true) : replay_cli(r, t);
  }

  hls::CacheStats server_cache_stats() const { return server_.cache()->stats(); }
  Tracer& tracer() { return tr_; }
  const std::vector<std::string>& problems() const { return problems_; }

private:
  void problem(std::string p) {
    if (problems_.size() < 20) problems_.push_back(std::move(p));
  }

  double replay_cli(const Request& r, Totals& t) {
    const Spec& spec = w_.specs[r.spec];
    // The untraced reference: what the CLI does in-process.
    double plain = 0;
    std::string plain_json;
    {
      const double t0 = tr_.now_us();
      hls::FlowRequest fr = flow_requests(r, hls::parse_spec(spec.text)).front();
      plain_json = hls::to_json(std::vector<hls::FlowResult>{session_.run(fr)});
      plain = (tr_.now_us() - t0) / 1e3;
    }
    hls::Dfg dfg;
    timed(tr_, t, "parser", [&] { dfg = hls::parse_spec(spec.text); });
    hls::FlowRequest fr = flow_requests(r, dfg).front();
    auto cache = std::make_shared<TracingCache>(nullptr, tr_, t);
    fr.cache = cache;
    hls::FlowResult res;
    const double before = layer_sum(t);
    const double flow_ms = timed(tr_, t, "flow", [&] { res = session_.run(fr); });
    t["flow.self_ms"] += flow_ms - (layer_sum(t) - before);
    std::string json;
    timed(tr_, t, "json.encode", [&] {
      json = hls::to_json(std::vector<hls::FlowResult>{res});
    });
    if (json != plain_json) {
      problem("replayed " + r.flow + " run of spec " + std::to_string(r.spec) +
              " differs from the uncached run");
    }
    rtl(res, dfg, t);
    return plain;
  }

  double replay_serve(const Request& r, Totals& t, bool measure = false) {
    const Spec& spec = w_.specs[r.spec];
    const std::string line = serve_line(r, spec);
    double served = 0;
    std::string response;
    if (measure) {
      served = timed(tr_, t, "serve.request", [&] { response = server_.handle_line(line); });
    }
    double parts = 0;
    hls::JsonValue parsed;
    parts += timed(tr_, t, "json.parse", [&] { parsed = hls::parse_json(line); });
    hls::Dfg dfg;
    bool parsed_spec = true;
    parts += timed(tr_, t, "parser", [&] {
      try {
        dfg = hls::parse_spec(r.broken_spec ? break_spec(spec.text) : spec.text);
      } catch (const std::exception&) {
        parsed_spec = false;
      }
    });
    std::string body;
    if (parsed_spec && r.kind != "explore") {
      std::vector<hls::FlowResult> results;
      if (r.lo <= r.hi || r.kind == "run") {
        for (hls::FlowRequest& fr : flow_requests(r, dfg)) {
          results.push_back(traced_flow(std::move(fr), t, parts));
        }
      }
      parts += timed(tr_, t, "json.encode", [&] {
        body = r.kind == "run" ? hls::to_json(results.front()) : hls::to_json(results);
      });
      for (const hls::FlowResult& res : results) rtl(res, dfg, t);
    } else if (parsed_spec) {
      hls::ExploreRequest er = explore_request(r, dfg);
      // The points the explorer will evaluate, from an uncached private run
      // (untimed), replayed first so their stage work is attributed.
      er.workers = 1;
      const hls::ExploreResult plan = hls::Explorer(hls::SessionOptions{.workers = 1}).run(er);
      for (const hls::ExplorePoint& p : plan.points) {
        traced_flow(point_request(p, dfg), t, parts);
      }
      er.cache = cache_;
      hls::ExploreResult res;
      const double e = timed(tr_, t, "dse.explorer", [&] {
        res = hls::Explorer(hls::SessionOptions{.workers = 1}).run(er);
      });
      double hit = 0;
      for (const hls::ExplorePoint& p : res.points) {
        hls::FlowRequest fr = point_request(p, dfg);
        fr.cache = cache_;
        const double t0 = tr_.now_us();
        session_.run(fr);
        hit += (tr_.now_us() - t0) / 1e3;
      }
      t["dse.explorer.self_ms"] += std::max(0.0, e - hit);
      t["dse.explorer.points_evaluated"] += static_cast<double>(res.evaluated);
      t["dse.explorer.points_pruned"] += static_cast<double>(res.pruned.size());
      parts += std::max(0.0, e - hit);
      parts += timed(tr_, t, "json.encode", [&] { body = strip_cache(hls::to_json(res)); });
    }
    if (measure) {
      t["serve.self_ms"] += served - parts;
      const Envelope env = parse_envelope(response);
      const bool good = !env.parsed ? false
                        : !r.refusal.empty() ? !env.ok && env.stage == r.refusal
                        : env.ok && strip_cache(env.body) == body;
      if (!good) {
        problem("in-process server and replay disagree on a " + r.kind +
                " request for spec " + std::to_string(r.spec));
      }
    }
    return served;
  }

  static hls::FlowRequest point_request(const hls::ExplorePoint& p, const hls::Dfg& dfg) {
    hls::FlowRequest fr;
    fr.spec = dfg;
    fr.flow = p.flow;
    fr.scheduler = p.scheduler;
    fr.target = p.target;
    fr.latency = p.latency;
    return fr;
  }

  /// Session::run of one flow request through a TracingCache over the
  /// shadow cache; books flow self time and adds the request's total to
  /// `parts`.
  hls::FlowResult traced_flow(hls::FlowRequest fr, Totals& t, double& parts) {
    auto cache = std::make_shared<TracingCache>(cache_, tr_, t);
    fr.cache = cache;
    hls::FlowResult res;
    const double ms = timed(tr_, t, "flow", [&] { res = session_.run(fr); });
    // The getters' time includes the stages they computed; the recomputes
    // that measured those stages ran inside the same span but are not part
    // of serving the request.
    t["flow.self_ms"] += ms - cache->getter_ms() - cache->recompute_ms();
    parts += ms - cache->recompute_ms();
    return res;
  }

  static double layer_sum(Totals& t) {
    return t["kernel"] + t["frag"] + t["sched"] + t["alloc"] + t["partition"];
  }

  /// The RTL layer: area and a cycle-accurate simulation of the datapath,
  /// checked against the specification's evaluation.
  void rtl(const hls::FlowResult& res, const hls::Dfg& dfg, Totals& t) {
    if (!res.ok) return;
    bool equal = true;
    timed(tr_, t, "rtl", [&] {
      hls::area_of(res.report.datapath);
      if (res.transform && res.schedule) {
        const hls::InputValues in = inputs_for(dfg, ++vectors_);
        equal = hls::simulate_datapath(*res.transform, *res.schedule,
                                       res.report.datapath, in) ==
                hls::evaluate(dfg, in);
      }
    });
    if (!equal) problem("datapath simulation disagrees with the specification");
  }

  Workload& w_;
  hls::Server server_;
  std::shared_ptr<hls::ArtifactCache> cache_;
  hls::Session session_;
  Tracer tr_;
  std::uint64_t vectors_ = 0;
  std::vector<std::string> problems_;
};

/// Totals keys that are counts (everything else is a time in ms).
bool is_count(const std::string& key) {
  for (const char* c : {"fragments", "sched.", "kernels", "points_", "requests"}) {
    if (key.find(c) != std::string::npos) return true;
  }
  return false;
}

} // namespace

ReplayResult replay(Workload& w, double seconds, std::size_t cache_mb,
                    Calibration& cal, const std::string& trace_path) {
  ReplayResult out;
  Replayer rp(w, cache_mb);
  if (w.serve) rp.warm();
  const hls::CacheStats s0 = rp.server_cache_stats();

  std::vector<Totals> blocks;
  std::vector<double> cal_samples = {cal.sample()};
  double served_ms = 0;
  const Clock::time_point start = Clock::now();
  std::size_t next = 0;
  while (next == 0 ||
         std::chrono::duration<double>(Clock::now() - start).count() < seconds) {
    Totals& t = blocks.emplace_back();
    const Clock::time_point b0 = Clock::now();
    while (std::chrono::duration<double, std::milli>(Clock::now() - b0).count() < 100) {
      const Request& r = w.requests[w.at(next++)];
      served_ms += rp.replay(r, t);
      t["requests"] += 1;
    }
    t["wall"] = std::chrono::duration<double, std::milli>(Clock::now() - b0).count();
    cal_samples.push_back(cal.sample());
  }
  const hls::CacheStats s1 = rp.server_cache_stats();

  // Calibrate each block like the measured run, then sum.
  Totals sum;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    Samples around;
    for (std::size_t k = i >= 2 ? i - 2 : 0; k <= std::min(cal_samples.size() - 1, i + 3); ++k) {
      around.add(cal_samples[k]);
    }
    const double f = cal.factor(around.median());
    for (const auto& [k, v] : blocks[i]) sum[k] += is_count(k) ? v : v * f;
  }
  const double n = std::max(1.0, sum["requests"]);
  out.requests = static_cast<std::size_t>(n);
  MetricValues& m = out.metrics;
  m["parser.self_ms"] = sum["parser"] / n;
  m["kernel.self_ms"] = sum["kernel"] / n;
  m["frag.self_ms"] = sum["frag"] / n;
  m["frag.fragments"] = sum["frag.fragments"] / n;
  m["sched.self_ms"] = sum["sched"] / n;
  m["sched.candidates_evaluated"] = sum["sched.candidates_evaluated"] / n;
  m["sched.oracle_probes"] = sum["sched.oracle_probes"] / n;
  m["sched.oracle_rejects"] = sum["sched.oracle_rejects"] / n;
  m["sched.oracle_commit_ratio"] =
      sum["sched.oracle_probes"] > 0
          ? sum["sched.oracle_commits"] / sum["sched.oracle_probes"]
          : 0.0;
  m["alloc.self_ms"] = sum["alloc"] / n;
  m["rtl.self_ms"] = sum["rtl"] / n;
  m["partition.self_ms"] = sum["partition"] / n;
  m["partition.kernels"] = sum["partition.kernels"] / n;
  m["dse.cache.self_ms"] = std::max(0.0, sum["dse.cache.self_ms"]) / n;
  const hls::CacheStats::Counter c0 = s0.total(), c1 = s1.total();
  const double lookups = static_cast<double>((c1.hits + c1.misses) - (c0.hits + c0.misses));
  m["dse.cache.hit_rate"] = lookups > 0 ? static_cast<double>(c1.hits - c0.hits) / lookups : 0.0;
  m["dse.cache.evictions"] = static_cast<double>(c1.evictions - c0.evictions) / n;
  m["dse.cache.resident_mb"] = static_cast<double>(c1.resident_bytes) / (1024.0 * 1024.0);
  m["dse.explorer.self_ms"] = sum["dse.explorer.self_ms"] / n;
  m["dse.explorer.points_evaluated"] = sum["dse.explorer.points_evaluated"] / n;
  m["dse.explorer.points_pruned"] = sum["dse.explorer.points_pruned"] / n;
  m["flow.self_ms"] = std::max(0.0, sum["flow.self_ms"]) / n;
  m["json.parse_ms"] = sum["json.parse"] / n;
  m["json.encode_ms"] = sum["json.encode"] / n;
  m["serve.self_ms"] = std::max(0.0, sum["serve.self_ms"]) / n;
  double wall = 0;
  for (const Totals& b : blocks) wall += b.at("wall");
  m["bench.trace_overhead"] = served_ms > 0 ? wall / served_ms : 0.0;
  out.problems = rp.problems();
  rp.tracer().write(trace_path);
  return out;
}

} // namespace perfbench
