#pragma once
// The metric names and units the benchmark prints — the same tables as
// BENCHMARK.json (the benchmark's tests check that they agree).

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"setup_s", "s"},
      {"request_ms_p50", "ms"},
      {"request_ms_p99", "ms"},
      {"requests_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"cpu_ms_per_request", "ms"},
      {"design_exec_ns_geomean", "ns"},
      {"design_area_gates_geomean", "gates"},
      {"design_speedup_vs_original", "x"},
  };
  return m;
}

inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> m = {
      {"parser.self_ms", "ms"},
      {"kernel.self_ms", "ms"},
      {"frag.self_ms", "ms"},
      {"frag.fragments", "count"},
      {"sched.self_ms", "ms"},
      {"sched.candidates_evaluated", "count"},
      {"sched.oracle_probes", "count"},
      {"sched.oracle_rejects", "count"},
      {"sched.oracle_commit_ratio", "ratio"},
      {"alloc.self_ms", "ms"},
      {"rtl.self_ms", "ms"},
      {"partition.self_ms", "ms"},
      {"partition.kernels", "count"},
      {"dse.cache.self_ms", "ms"},
      {"dse.cache.hit_rate", "ratio"},
      {"dse.cache.evictions", "count"},
      {"dse.cache.resident_mb", "MB"},
      {"dse.explorer.self_ms", "ms"},
      {"dse.explorer.points_evaluated", "count"},
      {"dse.explorer.points_pruned", "count"},
      {"flow.self_ms", "ms"},
      {"json.parse_ms", "ms"},
      {"json.encode_ms", "ms"},
      {"serve.self_ms", "ms"},
      {"serve.transport_ms", "ms"},
      {"serve.threads_peak", "count"},
      {"process.spawn_ms", "ms"},
      {"bench.trace_overhead", "ratio"},
  };
  return m;
}

/// Metric name -> value, printed in the order of `defs`.
using MetricValues = std::map<std::string, double>;

} // namespace perfbench
