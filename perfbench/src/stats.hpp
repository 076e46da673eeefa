#pragma once
// Sample summaries and the calibration that normalises every timing.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "calib.hpp"

namespace perfbench {

class Samples {
public:
  void add(double v) { v_.push_back(v); sorted_ = false; }
  std::size_t size() const { return v_.size(); }
  /// Linear interpolation between closest ranks; 0 when empty.
  double quantile(double q) {
    if (v_.empty()) return 0;
    sort();
    const double pos = q * static_cast<double>(v_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v_.size() - 1);
    return v_[lo] + (v_[hi] - v_[lo]) * (pos - static_cast<double>(lo));
  }
  double median() { return quantile(0.5); }
  double min() { return v_.empty() ? 0 : (sort(), v_.front()); }
  double max() { return v_.empty() ? 0 : (sort(), v_.back()); }
  std::size_t count_above(double x) const {
    return static_cast<std::size_t>(
        std::count_if(v_.begin(), v_.end(), [x](double v) { return v > x; }));
  }
  double geomean() const {
    if (v_.empty()) return 0;
    double s = 0;
    for (const double v : v_) s += std::log(v);
    return std::exp(s / static_cast<double>(v_.size()));
  }

private:
  void sort() {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  std::vector<double> v_;
  bool sorted_ = true;
};

/// Timing normalisation: each block's raw times are scaled by
/// kReferenceNs / (the calibration kernel's time around that block), so a
/// slow epoch of the host, which slows the kernel too, cancels out. Values
/// are in "reference-host" units: on a quiet host whose kernel takes
/// kReferenceNs they equal wall-clock.
class Calibration {
public:
  static constexpr double kReferenceNs = 1750000;
  /// Times the kernel (a few ms) and remembers the sample for the health line.
  double sample() {
    const double s = calibration_sample();
    samples_.add(s);
    all_.push_back(s);
    return s;
  }
  /// The scale for raw times measured while the kernel took `sample_ns`.
  double factor(double sample_ns) const { return kReferenceNs / sample_ns; }
  std::string health() {
    const double med = samples_.median();
    std::size_t slow = 0;
    for (const double s : all_) slow += s > 1.25 * med ? 1 : 0;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "health: calibration min %.3f median %.3f max %.3f ms over "
                  "%zu samples, %zu slow (>1.25x median)",
                  samples_.min() / 1e6, med / 1e6, samples_.max() / 1e6,
                  all_.size(), slow);
    return buf;
  }

private:
  Samples samples_;
  std::vector<double> all_;
};

} // namespace perfbench
