#include "gen.hpp"

#include <algorithm>
#include <sstream>

namespace perfbench {

namespace {

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  Rng r(a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull) * 31 ^
        (c + 0x8CB92BA72F3D8DD7ull) * 131);
  r.next();
  return r.next();
}

/// Width jitter: base +/- base/4, at least 2 bits.
unsigned jitter(Rng& rng, unsigned base) {
  const unsigned span = std::max(1u, base / 4);
  return std::max(2u, base - span + rng.range(0, 2 * span));
}

class Writer {
public:
  explicit Writer(std::string name) { os_ << "module " << name << " {\n"; }
  std::string input(Rng& rng, unsigned base) {
    const std::string n = "x" + std::to_string(inputs_++);
    os_ << "  input " << n << ": u" << jitter(rng, base) << ";\n";
    return n;
  }
  std::string input_w(unsigned width) {
    const std::string n = "x" + std::to_string(inputs_++);
    os_ << "  input " << n << ": u" << width << ";\n";
    return n;
  }
  std::string let(const std::string& expr, unsigned width = 0) {
    const std::string n = "t" + std::to_string(lets_++);
    os_ << "  let " << n;
    if (width != 0) os_ << ": u" << width;
    os_ << " = " << expr << ";\n";
    return n;
  }
  void output(const std::string& value, unsigned width) {
    const std::string n = "y" + std::to_string(outputs_++);
    os_ << "  output " << n << ": u" << width << ";\n";
    os_ << "  " << n << " = " << value << ";\n";
  }
  std::string finish() {
    os_ << "}\n";
    return os_.str();
  }

private:
  std::ostringstream os_;
  unsigned inputs_ = 0, lets_ = 0, outputs_ = 0;
};

std::string chain(Writer& w, Rng& rng, unsigned adds, unsigned base) {
  std::string acc = w.input(rng, base);
  unsigned width = base;
  for (unsigned i = 0; i < adds; ++i) {
    if (i % 4 == 3 && width < 40) ++width;
    acc = w.let(acc + " + " + w.input(rng, base), width);
  }
  w.output(acc, width);
  return acc;
}

void tree(Writer& w, Rng& rng, unsigned leaves, unsigned base) {
  std::vector<std::pair<std::string, unsigned>> level;
  for (unsigned i = 0; i < leaves; ++i) level.push_back({w.input(rng, base), base});
  while (level.size() > 1) {
    std::vector<std::pair<std::string, unsigned>> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      const unsigned width =
          std::min(48u, std::max(level[i].second, level[i + 1].second) +
                            rng.range(0, 1));
      next.push_back(
          {w.let(level[i].first + " + " + level[i + 1].first, width), width});
    }
    if (level.size() % 2 != 0) next.push_back(level.back());
    level = std::move(next);
  }
  w.output(level.front().first, level.front().second);
}

void mesh(Writer& w, Rng& rng, unsigned rows, unsigned cols, unsigned base) {
  std::vector<std::vector<std::string>> cell(rows, std::vector<std::string>(cols));
  for (unsigned r = 0; r < rows; ++r) {
    for (unsigned c = 0; c < cols; ++c) {
      const std::string in = w.input(rng, base);
      if (r == 0 && c == 0) {
        cell[r][c] = in;
      } else if (r == 0) {
        cell[r][c] = w.let(cell[r][c - 1] + " + " + in);
      } else if (c == 0) {
        cell[r][c] = w.let(cell[r - 1][c] + " + " + in);
      } else {
        const std::string diag = w.let(cell[r][c - 1] + " + " + cell[r - 1][c]);
        cell[r][c] = w.let(diag + " + " + in);
      }
    }
  }
  w.output(cell[rows - 1][cols - 1], base + 2);
  w.output(cell[rows - 1][0], base + 2);
}

/// FIR-like filter: products of samples and coefficients, differences of
/// neighbouring taps, an accumulation and threshold compares.
void filter(Writer& w, Rng& rng, unsigned taps, unsigned base) {
  std::vector<std::string> prods;
  const unsigned cw = rng.range(3, 6);
  for (unsigned i = 0; i < taps; ++i) {
    const std::string x = w.input(rng, base);
    const std::string c = w.input_w(cw);
    prods.push_back(w.let(x + " * " + c));
  }
  const unsigned acc_w = base + cw + 2;
  std::string acc = w.let(prods[0], acc_w);
  for (unsigned i = 1; i < taps; ++i) {
    if (rng.range(0, 2) == 0) {
      acc = w.let(acc + " - " + prods[i], acc_w);
    } else {
      acc = w.let(acc + " + " + prods[i], acc_w);
    }
  }
  const std::string thr = w.input_w(acc_w);
  w.output(acc, acc_w);
  w.output(w.let(acc + " < " + thr), 1);
  w.output(w.let("max(" + prods[0] + ", " + prods[taps - 1] + ")"),
           base + cw);
}

/// Adder chains joined by XOR glue, so the partitioner finds exactly one
/// operative kernel per stage (every value has the same width: no
/// zero-extension glue splits a stage).
void staged(Writer& w, Rng& rng, unsigned stages, unsigned adds,
            unsigned width) {
  std::string carry;
  for (unsigned k = 0; k < stages; ++k) {
    std::string acc = w.input_w(width);
    if (!carry.empty()) acc = w.let(acc + " + " + carry);
    for (unsigned i = 0; i < adds; ++i) {
      acc = w.let(acc + " + " + w.input_w(width));
    }
    if (k + 1 == stages) {
      w.output(acc, width);
    } else {
      carry = w.let(acc + " ^ " + std::to_string(rng.range(1, 255)) + ":u" +
                    std::to_string(width));
    }
  }
}

} // namespace

const std::vector<std::string>& shapes() {
  static const std::vector<std::string> names = {"chain", "tree", "mesh",
                                                 "filter", "staged"};
  return names;
}

Spec make_spec(std::uint64_t seed, std::uint64_t stream, std::uint64_t index,
               SpecSize size, unsigned shape, unsigned level) {
  Rng rng(mix(seed, stream, index));
  Spec s;
  s.name = "g" + std::to_string(stream) + "_" + std::to_string(index);
  s.shape = shapes()[shape % shapes().size()];
  Writer w(s.name);
  const unsigned l = std::min(level, 3u);
  const bool small = size == SpecSize::Small;
  // Size ladders: the level fixes the size, the seed varies widths and
  // constants, so a workload's cost profile does not depend on the seed.
  const auto pick = [&](std::initializer_list<unsigned> small_ladder,
                        std::initializer_list<unsigned> large_ladder) {
    return (small ? small_ladder : large_ladder).begin()[l];
  };
  if (s.shape == "chain") {
    chain(w, rng, pick({6, 8, 10, 12}, {12, 20, 28, 40}), rng.range(10, 12));
  } else if (s.shape == "tree") {
    tree(w, rng, pick({6, 8, 10, 12}, {12, 24, 36, 48}), rng.range(9, 11));
  } else if (s.shape == "mesh") {
    const unsigned rows = pick({2, 2, 3, 3}, {3, 4, 5, 6});
    mesh(w, rng, rows, rows + (small ? l % 2 : 1), rng.range(9, 11));
  } else if (s.shape == "filter") {
    filter(w, rng, pick({2, 2, 3, 4}, {3, 4, 6, 8}), rng.range(8, 10));
  } else {
    staged(w, rng, small ? 2 : 2 + l / 2, pick({3, 3, 4, 5}, {5, 8, 9, 11}),
           rng.range(10, 12));
  }
  s.text = w.finish();
  return s;
}

std::string break_spec(const std::string& text) {
  // Drive the first output from an operand that is never declared.
  std::string out = text;
  const std::size_t at = out.rfind('}');
  out.insert(at, "  let broken = undeclared_operand + x0;\n");
  return out;
}

namespace {

/// JSON string escaping for generated text (ASCII, no control bytes but
/// newlines).
std::string json_escape_ascii(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 16);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string string_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"" + v[i] + "\"";
  }
  return out + "]";
}

} // namespace

std::string serve_line(const Request& r, const Spec& spec) {
  std::ostringstream os;
  os << "{\"kind\":\"" << r.kind << "\",\"spec\":\""
     << json_escape_ascii(r.broken_spec ? break_spec(spec.text) : spec.text)
     << "\"";
  if (r.kind == "explore") {
    os << ",\"flows\":" << string_list(r.flows)
       << ",\"schedulers\":" << string_list(r.schedulers) << ",\"lo\":" << r.lo
       << ",\"hi\":" << r.hi;
  } else {
    os << ",\"flow\":\"" << r.flow << "\",\"scheduler\":\"" << r.scheduler
       << "\"";
    if (r.kind == "sweep") {
      os << ",\"lo\":" << r.lo << ",\"hi\":" << r.hi;
    } else {
      os << ",\"latency\":" << r.latency;
    }
  }
  os << "}";
  return os.str();
}

} // namespace perfbench
