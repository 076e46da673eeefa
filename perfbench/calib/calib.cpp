#include "calib.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <map>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

const std::vector<std::uint32_t>& constant_data() {
  static const std::vector<std::uint32_t> data = [] {
    std::vector<std::uint32_t> v(12000);
    std::uint32_t x = 2463534242u;
    for (std::uint32_t& e : v) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      e = x;
    }
    return v;
  }();
  return data;
}

/// Keeps the kernel's result observable (calibration threads run at once).
std::atomic<std::uint64_t> sink{0};

} // namespace

double calibration_ns() {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint32_t> v = constant_data();
  std::sort(v.begin(), v.end());
  std::map<std::uint32_t, std::uint32_t> m;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < 3000; ++i) {
    m[v[(i * 7919) % v.size()] & 0xFFFu] += static_cast<std::uint32_t>(i);
    if (i % 3 == 0) {
      const auto it = m.lower_bound(v[i] & 0xFFFu);
      if (it != m.end()) {
        acc += it->second;
        m.erase(it);
      }
    }
  }
  for (const auto& [k, val] : m) acc += k ^ val;
  sink.fetch_add(acc + v[v.size() / 2], std::memory_order_relaxed);
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double calibration_sample(int reps) {
  // One kernel series per hardware thread, all at once: the program's
  // heavy requests run on every core (worker pools, daemon threads next to
  // clients), so the sample must see a slow core as well as a slow host.
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> medians(threads);
  std::latch start(static_cast<std::ptrdiff_t>(threads));
  std::vector<std::thread> pool;
  for (unsigned k = 0; k < threads; ++k) {
    pool.emplace_back([&, k] {
      start.arrive_and_wait();
      std::vector<double> t;
      for (int i = 0; i < reps; ++i) t.push_back(calibration_ns());
      std::nth_element(t.begin(), t.begin() + reps / 2, t.end());
      medians[k] = t[static_cast<std::size_t>(reps / 2)];
    });
  }
  for (std::thread& t : pool) t.join();
  double sum = 0;
  for (const double m : medians) sum += m;
  return sum / threads;
}

} // namespace perfbench
