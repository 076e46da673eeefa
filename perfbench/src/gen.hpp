#pragma once
// Seeded workload generator: DSL spec text and request streams.
//
// Everything here is a pure function of the seed. The program under test
// only ever sees the generated text (spec files for the CLI, JSON lines for
// the daemon); nothing in this file links against the library.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: a tiny, fully specified generator, so the same seed gives the
/// same bytes on every standard library.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi] (inclusive).
  unsigned range(unsigned lo, unsigned hi) {
    return lo + static_cast<unsigned>(next() % (hi - lo + 1));
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  std::uint64_t state_;
};

/// One generated behavioural specification.
struct Spec {
  std::string name;
  std::string text;  ///< DSL source
  std::string shape; ///< one of shapes()
};

/// Size class of a generated spec: small specs keep the daemon's hot path
/// cheap, large ones push the fragment count past the schedulers' parallel
/// floor.
enum class SpecSize { Small, Mixed };

/// The shapes make_spec knows, indexed by its `shape` argument: adder
/// "chain", "tree" and "mesh", a "filter" with mul/sub/compare, and
/// "staged" — adder chains joined by glue, the input the partitioned flow
/// splits into one kernel per stage.
const std::vector<std::string>& shapes();

/// The `index`-th spec of the stream named by (`seed`, `stream`): shape
/// `shape` (index into shapes()) at size `level` (0..3) of the `size`
/// ladder. The seed varies widths and constants.
Spec make_spec(std::uint64_t seed, std::uint64_t stream, std::uint64_t index,
               SpecSize size, unsigned shape, unsigned level);

/// The same spec with a parse error planted (an undeclared operand), for
/// requests whose correct answer is a structured refusal.
std::string break_spec(const std::string& text);

/// One request of a workload, in a form both the CLI and the daemon paths
/// can render.
struct Request {
  std::string kind = "run";       ///< "run" | "sweep" | "explore"
  std::size_t spec = 0;           ///< index into Workload::specs
  std::string flow = "optimized"; ///< run/sweep flow
  std::string scheduler = "list"; ///< run/sweep scheduler
  std::vector<std::string> flows;       ///< explore axis
  std::vector<std::string> schedulers;  ///< explore axis
  unsigned latency = 0;           ///< run
  unsigned lo = 0, hi = 0;        ///< sweep / explore
  bool broken_spec = false;       ///< send break_spec(text)
  /// Non-empty when the correct answer is a refusal: the diagnostic stage
  /// it must carry ("parse", "registry", "request").
  std::string refusal;
  bool in_working_set = false;    ///< counted by the design metrics
};

/// The JSON line a daemon client sends for `r`.
std::string serve_line(const Request& r, const Spec& spec);

} // namespace perfbench
