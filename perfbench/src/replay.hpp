#pragma once
// The traced run's in-process replay (see replay.cpp).

#include <string>
#include <vector>

#include "metrics.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

struct ReplayResult {
  MetricValues metrics;  ///< per-layer values, per replayed request
  std::vector<std::string> problems;
  std::size_t requests = 0;
};

/// Replays the workload's request stream in-process for about `seconds`,
/// with spans around the library's public calls; writes the spans to
/// `trace_path` as Chrome trace-event JSON at the end.
ReplayResult replay(Workload& w, double seconds, std::size_t cache_mb,
                    Calibration& cal, const std::string& trace_path);

} // namespace perfbench
