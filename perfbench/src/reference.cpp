#include "reference.hpp"

#include "dse/cache.hpp"
#include "dse/explorer.hpp"
#include "flow/json.hpp"
#include "flow/session.hpp"
#include "parser/parser.hpp"
#include "support/json.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

const hls::JsonValue* first_error(const hls::JsonValue& diagnostics) {
  if (!diagnostics.is_array()) return nullptr;
  for (const hls::JsonValue& d : diagnostics.as_array()) {
    const hls::JsonValue* sev = d.find("severity");
    if (sev != nullptr && sev->is_string() && sev->as_string() == "error") {
      return &d;
    }
  }
  return nullptr;
}

/// The design a successful result describes, priced against the
/// conventional flow at the same latency.
Reference::Design design_of(const hls::Session& session, const hls::Dfg& dfg,
                            const hls::FlowResult& res) {
  Reference::Design d;
  d.exec_ns = res.report.execution_ns;
  d.area_gates = res.report.area.total();
  if (res.transform) d.fragments = static_cast<unsigned>(res.transform->adds.size());
  hls::FlowRequest conv;
  conv.spec = dfg;
  conv.flow = "conventional";
  conv.latency = res.report.latency;
  const hls::FlowResult c = session.run(conv);
  d.conventional_exec_ns = c.ok ? c.report.execution_ns : 0;
  return d;
}

} // namespace

std::string strip_cache(const std::string& body) {
  const std::string key = ",\"cache\":{";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return body;
  std::size_t i = at + key.size();
  int depth = 1;
  for (; i < body.size() && depth > 0; ++i) {
    if (body[i] == '{') ++depth;
    if (body[i] == '}') --depth;
  }
  return body.substr(0, at) + body.substr(i);
}

Envelope parse_envelope(const std::string& line) {
  Envelope e;
  try {
    const hls::JsonValue v = hls::parse_json(line);
    const hls::JsonValue* ok = v.find("ok");
    const hls::JsonValue* result = v.find("result");
    const hls::JsonValue* diags = v.find("diagnostics");
    if (ok == nullptr || !ok->is_bool() || (result == nullptr) == (diags == nullptr)) {
      return e;
    }
    e.parsed = true;
    e.ok = ok->as_bool();
    e.body = hls::write_json(result != nullptr ? *result : *diags);
    const hls::JsonValue* list = diags;
    if (result != nullptr && result->is_object()) list = result->find("diagnostics");
    if (result != nullptr && result->is_array() && !result->as_array().empty()) {
      list = result->as_array().front().find("diagnostics");
    }
    if (list != nullptr) {
      if (const hls::JsonValue* d = first_error(*list)) {
        if (const hls::JsonValue* st = d->find("stage"); st && st->is_string()) {
          e.stage = st->as_string();
        }
      }
    }
  } catch (const std::exception&) {
    e.parsed = false;
  }
  return e;
}

Reference reference_for(const Request& r, const Spec& spec, bool cli) {
  Reference ref;
  if (r.broken_spec) {
    // Refusals are judged by their diagnostic stage alone.
    ref.ok = false;
    return ref;
  }
  const hls::Dfg dfg = hls::parse_spec(spec.text);
  const hls::Session session(hls::SessionOptions{.workers = 1});
  if (r.kind == "run") {
    hls::FlowRequest fr;
    fr.spec = dfg;
    fr.flow = r.flow;
    fr.latency = r.latency;
    fr.scheduler = r.scheduler;
    const hls::FlowResult res = session.run(fr);
    ref.ok = res.ok;
    ref.body = cli ? hls::to_json(std::vector<hls::FlowResult>{res}) + "\n"
                   : hls::to_json(res);
    if (res.ok) ref.designs.push_back(design_of(session, dfg, res));
  } else if (r.kind == "sweep") {
    std::vector<hls::FlowResult> results;
    if (const auto bad = hls::validate_latency_range(r.lo, r.hi)) {
      hls::FlowResult out;
      out.flow = r.flow;
      out.scheduler = r.scheduler;
      out.target = hls::kDefaultTargetName;
      out.diagnostics.push_back(*bad);
      results.push_back(std::move(out));
    } else {
      std::vector<hls::FlowRequest> reqs;
      for (unsigned lat = r.lo; lat <= r.hi; ++lat) {
        hls::FlowRequest fr;
        fr.spec = dfg;
        fr.flow = r.flow;
        fr.latency = lat;
        fr.scheduler = r.scheduler;
        reqs.push_back(std::move(fr));
      }
      results = session.run_batch(reqs);
    }
    ref.ok = true;
    for (const hls::FlowResult& x : results) {
      ref.ok = ref.ok && x.ok;
      if (x.ok) ref.designs.push_back(design_of(session, dfg, x));
    }
    ref.body = hls::to_json(results);
  } else {
    hls::ExploreRequest er;
    er.spec = dfg;
    er.flows = r.flows;
    er.schedulers = r.schedulers;
    er.latency_lo = r.lo;
    er.latency_hi = r.hi;
    er.workers = 1;
    const hls::ExploreResult res =
        hls::Explorer(hls::SessionOptions{.workers = 1}).run(er);
    ref.ok = res.ok;
    ref.body = strip_cache(hls::to_json(res));
  }
  return ref;
}

double working_set_resident_bytes(const Workload& w) {
  const auto cache = std::make_shared<hls::ArtifactCache>();
  const hls::Session session(hls::SessionOptions{.workers = 1});
  for (const std::size_t id : w.warmup) {
    const Request& r = w.requests[id];
    const hls::Dfg dfg = hls::parse_spec(w.specs[r.spec].text);
    if (r.kind == "explore") {
      hls::ExploreRequest er;
      er.spec = dfg;
      er.flows = r.flows;
      er.schedulers = r.schedulers;
      er.latency_lo = r.lo;
      er.latency_hi = r.hi;
      er.workers = 1;
      er.cache = cache;
      hls::Explorer(hls::SessionOptions{.workers = 1}).run(er);
      continue;
    }
    const unsigned lo = r.kind == "run" ? r.latency : r.lo;
    const unsigned hi = r.kind == "run" ? r.latency : r.hi;
    for (unsigned lat = lo; lat <= hi; ++lat) {
      hls::FlowRequest fr;
      fr.spec = dfg;
      fr.flow = r.flow;
      fr.latency = lat;
      fr.scheduler = r.scheduler;
      fr.cache = cache;
      session.run(fr);
    }
  }
  return static_cast<double>(cache->stats().total().resident_bytes);
}

} // namespace perfbench
