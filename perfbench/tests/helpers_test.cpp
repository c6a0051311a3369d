// Unit tests for the benchmark's own helpers: percentile selection,
// timings from per-part minima, geometric means, outcome classification
// behind error_rate, point comparison, serve-stream parsing, span self
// times, the per-layer metric set and the co-simulation check.
//
//   ctest --test-dir .bench_build/perfbench --output-on-failure
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bench.hpp"
#include "classify.hpp"
#include "core/session.hpp"
#include "cosim.hpp"
#include "stats.hpp"
#include "stream.hpp"
#include "trace.hpp"
#include "workloads/workloads.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                         \
    }                                                                     \
  } while (false)

using namespace perfbench;

std::vector<double> shuffled_range(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

void test_percentiles() {
  // p99 of 1000 samples leaves exactly ten beyond it; p90 of 100 as well.
  const std::vector<double> thousand = shuffled_range(1000);
  CHECK(percentile(thousand, 99) == 990);
  CHECK(samples_beyond(thousand.size(), 99) == 10);
  CHECK(median(thousand) == 500);
  const std::vector<double> hundred = shuffled_range(100);
  CHECK(percentile(hundred, 90) == 90);
  CHECK(samples_beyond(hundred.size(), 90) == 10);
  // Below 1000 samples p99 has fewer than ten beyond it.
  CHECK(samples_beyond(999, 99) < 10);
  CHECK(percentile({}, 50) == 0);
  CHECK(percentile({3.5}, 99) == 3.5);
  CHECK(samples_beyond(1, 99) == 0);
}

void test_minimum_each() {
  // Each position at its smallest; a shorter row leaves later positions to the others.
  CHECK(minimum_each({}).empty());
  CHECK(minimum_each({{2.0, 5.0, 1.0}}) == std::vector<double>({2.0, 5.0, 1.0}));
  CHECK(minimum_each({{2.0, 5.0, 1.0}, {3.0, 4.0, 0.5}, {1.5, 6.0, 2.0}}) ==
        std::vector<double>({1.5, 4.0, 0.5}));
  CHECK(minimum_each({{2.0}, {3.0, 4.0}}) == std::vector<double>({2.0, 4.0}));
}

double metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return -1;
}

void test_timings_from_parts() {
  // Two iterations of three parts. Each part at its fastest, 1 + 3 + 2 s,
  // adds up to 6 s, though neither iteration took less than 7.
  EndToEnd e;
  e.points_per_iteration = 12;
  e.iterations = {{7.5, {1.0, 4.0, 2.5}, {}}, {7.0, {2.0, 3.0, 2.0}, {}}};
  e.point_parts = {{1, 1}, {2, 2}, {1, 2}};
  e.job_parts = {{0, 2}};
  std::vector<std::string> notes;
  std::vector<Metric> m = end_to_end_metrics(e, 24, Failures{}, &notes);
  CHECK(metric(m, "points_per_s") == 2.0);
  CHECK(metric(m, "point_latency_p50_ms") == 3000.0);
  CHECK(metric(m, "point_latency_p99_ms") == 5000.0);
  CHECK(metric(m, "job_latency_p90_ms") == 6000.0);
  CHECK(metric(m, "success_rate") == 1.0);

  // Without point parts (explore-1600), each point latency is its own minimum.
  e.point_parts.clear();
  e.iterations[0].point_ms = {40.0, 90.0};
  e.iterations[1].point_ms = {50.0, 80.0};
  m = end_to_end_metrics(e, 24, Failures{}, &notes);
  CHECK(metric(m, "point_latency_p50_ms") == 40.0);
  CHECK(metric(m, "point_latency_p99_ms") == 80.0);
}

void test_geomean() {
  CHECK(geomean({}) == 0);
  CHECK(std::fabs(geomean({4.25}) - 4.25) < 1e-12);
  CHECK(std::fabs(geomean({1, 100}) - 10) < 1e-9);
}

void test_classification() {
  CHECK(classify_failure("") == Outcome::kFeasible);
  CHECK(classify_failure("[explore/dominated] provably infeasible at looser clock") ==
        Outcome::kInfeasible);
  CHECK(classify_failure("[schedule/infeasible] scheduling failed") == Outcome::kInfeasible);
  CHECK(classify_failure("[schedule/no_feasible_ii] no II") == Outcome::kInfeasible);
  CHECK(classify_failure("[schedule/pass_budget_exhausted] budget") == Outcome::kFailed);
  CHECK(classify_failure("[options/bad-clock] tclk") == Outcome::kFailed);
  CHECK(classify_failure("internal: linearize") == Outcome::kFailed);
  CHECK(classify_failure("[schedule") == Outcome::kFailed);

  Failures f;
  f.unexpected_code = 2;
  CHECK(f.total() == 2 && f.incorrect() == 0);
  f.cosim_mismatch = 1;
  CHECK(f.total() == 3 && f.incorrect() == 1);
}

void test_point_prints() {
  const PointPrint cold(true, "", 7, 100, 12.5, 3);
  const PointPrint warm(true, "", 2, 100, 12.5, 3);
  // A warm-started point and its cold rebuild: same result, other passes.
  CHECK(cold.same_result(warm) && !(cold == warm));
  CHECK(!cold.same_result(PointPrint(true, "", 7, 101, 12.5, 3)));
  // QoR of an infeasible point is not part of its result.
  const PointPrint infeasible(false, "[schedule/infeasible] x", 4, 100, 12.5, 3);
  CHECK(infeasible.area == 0 && infeasible.same_result(PointPrint(false, "[schedule/infeasible] x",
                                                                  9, 0, 0, 0)));
  CHECK(!infeasible.same_result(PointPrint(false, "[schedule/no_feasible_ii] x", 4, 0, 0, 0)));
}

void test_per_layer_metrics() {
  // Every metric is listed, with its unit, even for a layer left unused;
  // ratios come from their base counters and read 0 without a base.
  const std::vector<Metric> none = per_layer_metrics({});
  CHECK(none.size() == 49);
  for (const Metric& m : none) CHECK(m.value == 0 && !m.unit.empty());
  Counters c;
  c["sched.passes"] = 8;
  c["sched.successful_passes"] = 2;
  c["core.explore_s"] = 10;
  c["core.explore_busy_s"] = 15;
  c["rtl.self_s"] = -1e-9;
  auto value = [](const std::vector<Metric>& ms, const std::string& name) {
    for (const Metric& m : ms) {
      if (m.name == name) return m.value;
    }
    return -1.0;
  };
  const std::vector<Metric> ms = per_layer_metrics(c);
  CHECK(value(ms, "sched.pass_yield") == 0.25);
  CHECK(value(ms, "core.explore_efficiency") == 15.0 / (10.0 * kThreads));
  CHECK(value(ms, "rtl.self_s") == 0);
  CHECK(value(ms, "sched.successful_passes") == -1);  // a base, not a metric
}

void test_stream_parsing() {
  const std::string feasible =
      R"({"job":3,"point":1,"curve":"ewf","tclk_ps":1600,"latency":16,"ii":0,)"
      R"("pipelined":false,"backend":"list","feasible":true,"delay_ns":25.600000000000001,)"
      R"("area":12345.5,"power_mw":7.25,"passes":2,"relaxations":1,"seed_use":"none"})";
  StreamLine l = parse_stream_line(feasible);
  CHECK(l.kind == StreamLine::Kind::kPoint);
  CHECK(l.job == 3 && l.point == 1 && l.feasible);
  CHECK(l.delay_ns == 25.600000000000001 && l.area == 12345.5 && l.power_mw == 7.25);
  CHECK(l.tclk_ps == 1600);

  l = parse_stream_line(
      R"({"job":3,"point":2,"tclk_ps":1400,"feasible":false,)"
      R"("failure":"[schedule/infeasible] scheduling failed","passes":5})");
  CHECK(l.kind == StreamLine::Kind::kPoint && !l.feasible);
  CHECK(l.failure == "[schedule/infeasible] scheduling failed");

  l = parse_stream_line(R"({"job":3,"done":true,"points":2,"session_cache_hit":true})");
  CHECK(l.kind == StreamLine::Kind::kDone && l.job == 3);
  CHECK(parse_stream_line(R"({"job":4,"error":"[job/compile] bad"})").kind ==
        StreamLine::Kind::kError);
  CHECK(parse_stream_line(R"({"stats":{"jobs":1}})").kind == StreamLine::Kind::kStats);
  CHECK(parse_stream_line("{\"job\":3,\"point\":1").kind == StreamLine::Kind::kMalformed);
  CHECK(parse_stream_line(R"({"job":3,"point":1,"feasible":true})").kind ==
        StreamLine::Kind::kMalformed);  // feasible without QoR

  // Job 3 is complete; job 5 never finishes; job 9 was never submitted.
  Failures f;
  check_stream({feasible, R"({"job":3,"done":true})", "garbage",
                R"({"job":5,"point":0,"tclk_ps":1,"feasible":false,"failure":"internal: x"})",
                R"({"job":9,"done":true})"},
               {3, 5}, &f);
  CHECK(f.stream_malformed == 2);  // "garbage" and job 9's done line
  CHECK(f.missing_done == 1);
  CHECK(f.unexpected_code == 1);
}

void test_self_times() {
  // sweep [0, 100) holds compile [0, 10) and schedule [10, 70) with a
  // nested microarch [10, 15) recorded under it.
  std::vector<Span> spans(4);
  spans[0] = {"bench.sweep", 0, 100, 1, 0, 0, {}, {}};
  spans[1] = {"core.compile", 0, 10, 2, 1, 0, {}, {}};
  spans[2] = {"sched.schedule", 10, 60, 3, 1, 0, "list", {}};
  spans[3] = {"core.microarch", 10, 5, 4, 3, 0, {}, {}};
  const auto self = layer_self_seconds(spans);
  CHECK(std::fabs(self.at("bench") - 30e-6) < 1e-12);
  CHECK(std::fabs(self.at("core") - 15e-6) < 1e-12);
  CHECK(std::fabs(self.at("sched") - 55e-6) < 1e-12);
  CHECK(std::fabs(span_seconds(spans, "sched.schedule") - 60e-6) < 1e-12);
  CHECK(span_seconds(spans, "rtl.generate") == 0);

  Tracer off(false);
  { auto s = off.span("core.compile"); }
  CHECK(off.spans().empty());
  Tracer on(true);
  {
    auto outer = on.span("bench.sweep", 4);
    auto inner = on.span("core.compile", 4);
  }
  CHECK(on.spans().size() == 2 && on.spans()[1].parent == on.spans()[0].id);
}

void test_cosim() {
  hls::workloads::Workload fir = hls::workloads::make_fir(16);
  const hls::ir::Module reference = fir.module;
  const hls::ir::Stimulus s = make_stimulus(reference, 11, 16);
  CHECK(s.streams.size() == 1 && s.streams.at("x").size() == 16);
  CHECK(make_stimulus(reference, 11, 16).streams == s.streams);
  CHECK(make_stimulus(reference, 12, 16).streams != s.streams);

  hls::core::FlowOptions o;
  o.pipeline_ii = 2;
  const hls::core::FlowResult r = hls::core::FlowSession(std::move(fir)).run(o);
  CHECK(r.success);
  std::string detail;
  CHECK(cosim_matches(reference, *r.module, r.machine, s, &detail));
  // A machine checked against another design's interpreter is a mismatch.
  const hls::ir::Module other = hls::workloads::make_fir(8).module;
  CHECK(!cosim_matches(other, *r.module, r.machine, s, &detail));
}

}  // namespace

int main() {
  test_percentiles();
  test_minimum_each();
  test_timings_from_parts();
  test_geomean();
  test_classification();
  test_point_prints();
  test_per_layer_metrics();
  test_stream_parsing();
  test_self_times();
  test_cosim();
  if (failures == 0) std::printf("perfbench helpers: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
