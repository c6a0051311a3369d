#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string_view>
#include <utility>

#include "bench.hpp"
#include "stats.hpp"
#include "support/strings.hpp"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string percentile_note(const char* name, const std::vector<double>& samples, double q) {
  return hls::strf(name, ": ", samples.size(), " samples, ", samples_beyond(samples.size(), q),
                   " beyond p", q);
}

// Span name -> the per-layer call-time metric it feeds.
const std::map<std::string, std::string, std::less<>>& call_metrics() {
  static const std::map<std::string, std::string, std::less<>> m = {
      {"core.compile", "core.compile_s"},   {"core.microarch", "core.microarch_s"},
      {"core.explore", "core.explore_s"},   {"sched.schedule", "sched.schedule_s"},
      {"rtl.generate", "rtl.generate_s"},   {"synth.estimate", "synth.estimate_s"},
      {"frontend.parse", "frontend.parse_s"}, {"serve.submit", "serve.submit_s"},
  };
  return m;
}

// Adds `scale` x the call times and layer self times of `spans`.
void add_calls(const std::vector<Span>& spans, double scale, Counters* c) {
  for (const Span& s : spans) {
    const auto metric = call_metrics().find(s.name);
    if (metric == call_metrics().end()) continue;
    const double sec = s.dur_us * 1e-6 * scale;
    (*c)[metric->second] += sec;
    if (s.name == "sched.schedule") {
      (*c)[s.detail == "sdc" ? "sched.sdc_s" : "sched.list_s"] += sec;
      double& max_point = (*c)["sched.max_point_s"];
      max_point = std::max(max_point, s.dur_us * 1e-6);
    }
  }
  for (const auto& [layer, sec] : layer_self_seconds(spans)) (*c)[layer + ".self_s"] += sec * scale;
  (*c)["core.self_s"] -= span_seconds(spans, "core.explore") * scale;
  (*c)["serve.self_s"] -= span_seconds(spans, "serve.drain") * scale;
}

}  // namespace

std::vector<double> EndToEnd::iteration_seconds() const {
  std::vector<double> out;
  for (const Iteration& it : iterations) out.push_back(it.seconds);
  return out;
}

std::vector<Metric> end_to_end_metrics(const EndToEnd& e, std::uint64_t attempted,
                                       const Failures& failures, std::vector<std::string>* notes) {
  // Co-tenants on a shared host slow this process by up to half, for
  // fractions of a second to minutes at a time; its CPU time slows with its
  // wall time, so this is not time the host took the CPU away. Every
  // iteration does the same work in the same order, so each timing is
  // taken part by part at its fastest: each part of an iteration (a
  // kernel's compile or one point on suite-flow, the stretch up to each
  // stream line on serve-mixed, a grid on explore-1600) is the minimum over
  // the iterations. The part minima add up to the time of an undisturbed
  // iteration, and a latency to the sum of the minima of its parts. A
  // change that slows a part slows its minimum by the same share;
  // disturbance only ever adds time.
  std::vector<std::vector<double>> parts, points;
  for (const Iteration& it : e.iterations) {
    parts.push_back(it.parts_s);
    points.push_back(it.point_ms);
  }
  const std::vector<double> part_s = minimum_each(parts);
  std::vector<double> until{0};  ///< until[p]: the minima of parts before p, summed
  for (const double s : part_s) until.push_back(until.back() + s);
  const double undisturbed_s = until.back();
  auto latencies_ms = [&](const std::vector<PartRange>& ranges) {
    std::vector<double> ms;
    for (const PartRange& r : ranges) {
      const std::size_t end = std::min(r.last + 1, part_s.size());
      ms.push_back(r.first < end ? (until[end] - until[r.first]) * 1e3 : 0);
    }
    return ms;
  };
  const std::vector<double> point_ms =
      e.point_parts.empty() ? minimum_each(points) : latencies_ms(e.point_parts);
  const std::vector<double> job_ms = latencies_ms(e.job_parts);
  notes->push_back(hls::strf("setup_s: median of ", e.setup_s.size(), " set-ups, ",
                             kSetupsPerIteration, " before each iteration"));
  notes->push_back(hls::strf("iterations: ", e.iterations.size(), " of ", e.points_per_iteration,
                             " points; ", part_s.size(), " parts, each at its fastest, add up to ",
                             undisturbed_s, " s; iterations took at least ",
                             percentile(e.iteration_seconds(), 1), " s, median ",
                             median(e.iteration_seconds()), " s, slowest ",
                             percentile(e.iteration_seconds(), 100), " s"));
  std::string each;
  for (const double s : e.iteration_seconds()) each += hls::strf(each.empty() ? "" : " ", s);
  notes->push_back("iteration_s: " + each);
  notes->push_back(percentile_note("point_latency", point_ms, 99) +
                   (e.point_parts.empty() ? " (each at its fastest)"
                                          : " (each its parts at their fastest)"));
  notes->push_back(percentile_note("job_latency", job_ms, 90) +
                   " (each its parts at their fastest)");
  notes->push_back(hls::strf("feasible_points: ", e.qor.area.size(), " (QoR geomeans over them)"));
  notes->push_back(hls::strf("error_rate: ", failures.total(), " failed of ", attempted,
                             " attempted ", failures.to_json()));
  return {
      {"setup_s", median(e.setup_s), "s"},
      {"points_per_s", ratio(static_cast<double>(e.points_per_iteration), undisturbed_s),
       "points/s"},
      {"point_latency_p50_ms", percentile(point_ms, 50), "ms"},
      {"point_latency_p99_ms", percentile(point_ms, 99), "ms"},
      {"job_latency_p50_ms", percentile(job_ms, 50), "ms"},
      {"job_latency_p90_ms", percentile(job_ms, 90), "ms"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
      {"feasible_points", static_cast<double>(e.qor.area.size()), "count"},
      {"area_geomean", geomean(e.qor.area), "area"},
      {"delay_ns_geomean", geomean(e.qor.delay_ns), "ns/iter"},
      {"power_mw_geomean", geomean(e.qor.power_mw), "mW"},
      {"success_rate", 1.0 - ratio(static_cast<double>(failures.total()),
                                   static_cast<double>(attempted)),
       "ratio"},
  };
}

void add_run(const hls::core::FlowResult& r, Counters* c) {
  const hls::sched::SchedulerResult& s = r.sched;
  (*c)["sched.points"] += 1;
  (*c)["sched.passes"] += s.passes;
  (*c)["sched.relaxations"] += s.relaxations();
  (*c)["sched.timing_queries"] += static_cast<double>(s.timing_queries);
  (*c)["sched.engine_commits"] += static_cast<double>(s.engine_commits);
  (*c)["sched.relax_steps"] += static_cast<double>(s.relax_steps);
  for (const hls::sched::PassRecord& rec : s.history) {
    if (rec.success) (*c)["sched.successful_passes"] += 1;
    (*c)["sched.constraint_edges"] += static_cast<double>(rec.constraint_edges);
    (*c)["sched.propagation_relaxations"] += static_cast<double>(rec.propagation_relaxations);
  }
  (*c)["mem.memory_restraints"] += s.memory_restraints;
  (*c)["rtl.verilog_bytes"] += static_cast<double>(r.verilog.size());
}

std::vector<Metric> per_layer_metrics(Counters c) {
  auto derive = [&](const char* name, const char* num, const char* den, double scale = 1) {
    c[name] = ratio(c[num] * scale, c[den]);
  };
  derive("core.explore_efficiency", "core.explore_busy_s", "core.explore_s", 1.0 / kThreads);
  derive("core.prune_ratio", "core.explore_pruned", "core.explore_configs");
  derive("sched.ns_per_timing_query", "sched.schedule_s", "sched.timing_queries", 1e9);
  derive("sched.ns_per_commit", "sched.schedule_s", "sched.engine_commits", 1e9);
  derive("sched.pass_yield", "sched.successful_passes", "sched.passes");
  derive("serve.session_hit_ratio", "serve.session_hits", "serve.session_lookups");
  derive("serve.trace_exact_ratio", "serve.trace_exact_hits", "serve.trace_lookups");
  derive("serve.passes_per_point", "serve.passes", "serve.points");

  static const std::pair<const char*, const char*> kMetrics[] = {
      {"core.compile_s", "s"},
      {"core.microarch_s", "s"},
      {"core.explore_s", "s"},
      {"core.explore_busy_s", "s"},
      {"core.explore_efficiency", "ratio"},
      {"core.explore_configs", "count"},
      {"core.prune_ratio", "ratio"},
      {"core.self_s", "s"},
      {"sched.schedule_s", "s"},
      {"sched.list_s", "s"},
      {"sched.sdc_s", "s"},
      {"sched.max_point_s", "s"},
      {"sched.points", "count"},
      {"sched.passes", "count"},
      {"sched.relaxations", "count"},
      {"sched.timing_queries", "count"},
      {"sched.engine_commits", "count"},
      {"sched.relax_steps", "count"},
      {"sched.constraint_edges", "count"},
      {"sched.propagation_relaxations", "count"},
      {"sched.ns_per_timing_query", "ns"},
      {"sched.ns_per_commit", "ns"},
      {"sched.pass_yield", "ratio"},
      {"sched.self_s", "s"},
      {"mem.memory_restraints", "count"},
      {"rtl.generate_s", "s"},
      {"rtl.verilog_bytes", "bytes"},
      {"rtl.cosim_s", "s"},
      {"rtl.cosim_points", "count"},
      {"rtl.self_s", "s"},
      {"synth.estimate_s", "s"},
      {"synth.self_s", "s"},
      {"frontend.parse_s", "s"},
      {"frontend.self_s", "s"},
      {"serve.submit_s", "s"},
      {"serve.first_line_ms", "ms"},
      {"serve.session_hit_ratio", "ratio"},
      {"serve.session_lookups", "count"},
      {"serve.trace_exact_ratio", "ratio"},
      {"serve.trace_lookups", "count"},
      {"serve.passes_per_point", "passes/point"},
      {"serve.points", "count"},
      {"serve.rounds", "count"},
      {"serve.stream_bytes", "bytes"},
      {"serve.self_s", "s"},
      {"bench.self_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.untraced_iteration_s", "s"},
      {"trace.spans", "count"},
  };
  std::vector<Metric> out;
  for (const auto& [name, unit] : kMetrics) {
    const std::string_view n = name;
    const double v = c[name];
    // Self times are differences of span sums; rounding can take them just below 0.
    out.push_back({name, n.ends_with(".self_s") ? std::max(0.0, v) : v, unit});
  }
  return out;
}

hls::core::FlowOptions flow_options(const hls::core::ExploreConfig& cfg) {
  hls::core::FlowOptions o;
  o.tclk_ps = cfg.tclk_ps;
  o.backend = cfg.backend;
  o.pipeline_ii = cfg.pipeline_ii;
  o.solve_min_ii = cfg.solve_min_ii;
  o.latency_min = cfg.latency;
  o.latency_max = cfg.latency;
  o.memory_aware = cfg.memory_aware;
  o.budget = cfg.budget;
  o.emit_verilog = false;
  return o;
}

StagedRun run_stages(const hls::core::FlowSession& session, const hls::core::FlowOptions& options,
                     Tracer* tracer, std::int64_t request) {
  StagedRun out;
  try {
    hls::core::FlowRun run = session.begin(options);
    bool ok = false;
    {
      auto span = tracer->span("core.microarch", request);
      ok = run.select_microarch();
    }
    if (ok) {
      auto span = tracer->span("sched.schedule", request);
      ok = run.schedule();
      span.detail(hls::sched::backend_name(run.result().sched.backend));
      span.count("passes", run.result().sched.passes);
    }
    if (ok) {
      auto span = tracer->span("rtl.generate", request);
      ok = run.generate_rtl();
    }
    if (ok) {
      auto span = tracer->span("synth.estimate", request);
      run.estimate();
    }
    out.flow = run.take();
  } catch (const hls::InternalError& e) {
    out.failure = hls::strf("internal: ", e.what());
    return out;
  }
  const hls::core::FlowResult& r = out.flow;
  if (r.success) return out;
  out.failure = r.failure_reason.empty() ? "unclassified failure" : r.failure_reason;
  for (auto it = r.diagnostics.rbegin(); it != r.diagnostics.rend(); ++it) {
    if (it->severity != hls::Severity::kError) continue;
    out.failure = hls::strf("[", it->stage, "/", it->code, "] ", r.failure_reason);
    break;
  }
  return out;
}

PointPrint::PointPrint(bool is_feasible, std::string failure_text, int pass_count,
                       double area_v, double delay_v, double power_v)
    : feasible(is_feasible),
      area(is_feasible ? area_v : 0),
      delay_ns(is_feasible ? delay_v : 0),
      power_mw(is_feasible ? power_v : 0),
      failure(std::move(failure_text)),
      passes(pass_count) {}

bool PointPrint::same_result(const PointPrint& o) const {
  return feasible == o.feasible && failure == o.failure && area == o.area &&
         delay_ns == o.delay_ns && power_mw == o.power_mw;
}

PointPrint print_of(const StagedRun& r) {
  const hls::core::FlowResult& f = r.flow;
  return {f.success, r.failure, f.sched.passes, f.area.total(), f.delay_ns, f.power.total_mw()};
}

PointPrint print_of(const hls::core::ExplorePoint& p) {
  return {p.feasible, p.failure, p.passes, p.area, p.delay_ns, p.power_mw};
}

void add_traced_run(const std::vector<Span>& spans, const std::vector<double>& iteration_s,
                    Counters* c) {
  std::vector<Span> traced, setup, replay;
  for (const Span& s : spans) {
    if (s.request >= 0) traced.push_back(s);
    if (s.request == kSetupRequest) setup.push_back(s);
    if (s.request == kReplayRequest) replay.push_back(s);
    if (s.name == "rtl.cosim") {
      (*c)["rtl.cosim_s"] += s.dur_us * 1e-6;
      (*c)["rtl.cosim_points"] += 1;
    }
  }
  const double per_iteration = 1.0 / static_cast<double>(iteration_s.size() / 2);
  add_calls(traced, per_iteration, c);
  add_calls(setup, 1.0, c);
  add_calls(replay, 1.0, c);
  (*c)["trace.spans"] = static_cast<double>(traced.size()) * per_iteration;

  std::vector<double> traced_s, untraced_s;
  for (std::size_t i = 0; i < iteration_s.size(); ++i) {
    (i % 2 == 1 ? traced_s : untraced_s).push_back(iteration_s[i]);
  }
  (*c)["trace.untraced_iteration_s"] = median(untraced_s);
  (*c)["trace.overhead_s"] = median(traced_s) - median(untraced_s);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so it would report the launching process (run.py's Python) whenever
  // that was the larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

}  // namespace perfbench
