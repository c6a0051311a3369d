// Micro-benchmarks (google-benchmark) for the library's hot paths:
// scheduling passes over increasing design sizes, SCC analysis, lifespan
// computation, timing queries, interpretation, and RTL simulation.
//
// After the google-benchmark suites run, main() self-times the scheduler
// (ns per scheduling pass) and the exploration engine (serial vs.
// threaded throughput on the paper's 25-configuration IDCT grid,
// verifying the threaded point vector is identical to the serial one) and
// writes the results to BENCH_scheduler.json so the perf trajectory can
// be tracked across commits.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "alloc/lifespan.hpp"
#include "core/explore.hpp"
#include "ir/analysis.hpp"
#include "opt/pass.hpp"
#include "pipeline/straighten.hpp"
#include "rtl/sim.hpp"
#include "sched/driver.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "tech/library.hpp"
#include "timing/engine.hpp"
#include "workloads/example1.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hls;

workloads::Workload make_sized(int ops) {
  workloads::RandomCdfgOptions o;
  o.target_ops = ops;
  o.inputs = 4 + ops / 800;
  return workloads::make_random_cdfg(static_cast<std::uint64_t>(ops), o);
}

void BM_ScheduleRegion(benchmark::State& state) {
  auto w = make_sized(static_cast<int>(state.range(0)));
  pipeline::straighten(w.module);
  const auto region = ir::linearize(w.module.thread.tree, w.loop);
  const auto latency = w.module.thread.tree.stmt(w.loop).latency;
  for (auto _ : state) {
    sched::SchedulerOptions opts;
    auto r = sched::schedule_region(w.module.thread.dfg, region, latency,
                                    w.module.ports.size(), opts);
    benchmark::DoNotOptimize(r.success);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScheduleRegion)->Arg(100)->Arg(400)->Arg(1600)->Arg(6400)
    ->Unit(benchmark::kMillisecond);

void BM_SccAnalysis(benchmark::State& state) {
  auto w = make_sized(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto sccs = ir::nontrivial_sccs(w.module.thread.dfg);
    benchmark::DoNotOptimize(sccs.size());
  }
}
BENCHMARK(BM_SccAnalysis)->Arg(400)->Arg(3200);

void BM_Lifespans(benchmark::State& state) {
  auto w = make_sized(static_cast<int>(state.range(0)));
  pipeline::straighten(w.module);
  const auto region = ir::linearize(w.module.thread.tree, w.loop);
  const alloc::LifespanContext ctx(w.module.thread.dfg, region,
                                   tech::artisan90());
  for (auto _ : state) {
    auto ls = alloc::compute_lifespans(ctx, 16, 1600, false);
    benchmark::DoNotOptimize(ls.feasible);
  }
}
BENCHMARK(BM_Lifespans)->Arg(400)->Arg(3200);

void BM_TimingQueries(benchmark::State& state) {
  timing::TimingEngine eng(tech::artisan90(), 1600);
  timing::PathQuery q;
  q.operand_arrivals_ps = {40, 970};
  q.cls = tech::FuClass::kMultiplier;
  q.width = 32;
  q.in_mux_inputs = 2;
  q.out_mux_inputs = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.output_arrival_ps(q));
  }
}
BENCHMARK(BM_TimingQueries);

void BM_OptimizerPipeline(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto w = make_sized(800);
    state.ResumeTiming();
    auto pm = opt::PassManager::standard_pipeline();
    pm.run_to_fixpoint(w.module);
    benchmark::DoNotOptimize(w.module.thread.dfg.size());
  }
}
BENCHMARK(BM_OptimizerPipeline)->Unit(benchmark::kMillisecond);

void BM_Interpreter(benchmark::State& state) {
  auto ex = workloads::make_example1();
  Rng rng(3);
  ir::Stimulus s;
  std::vector<std::int64_t> v;
  for (int i = 0; i < 256; ++i) v.push_back(rng.uniform(1, 1000));
  s.set("mask", v);
  s.set("chrome", v);
  s.set("scale", v);
  s.set("th", v);
  for (auto _ : state) {
    auto r = ir::interpret(ex.module, s);
    benchmark::DoNotOptimize(r.writes.size());
  }
}
BENCHMARK(BM_Interpreter);

void BM_RtlSimulation(benchmark::State& state) {
  workloads::Workload w;
  auto ex = workloads::make_example1();
  w.name = "example1";
  w.module = std::move(ex.module);
  w.loop = ex.loop;
  core::FlowOptions opts;
  opts.pipeline_ii = 2;
  opts.emit_verilog = false;
  auto r = core::run_flow(std::move(w), opts);
  Rng rng(4);
  ir::Stimulus s;
  std::vector<std::int64_t> v;
  for (int i = 0; i < 256; ++i) v.push_back(rng.uniform(1, 1000));
  s.set("mask", v);
  s.set("chrome", v);
  s.set("scale", v);
  s.set("th", v);
  for (auto _ : state) {
    auto sim = rtl::simulate(r.machine, s);
    benchmark::DoNotOptimize(sim.cycles);
  }
}
BENCHMARK(BM_RtlSimulation);

// ---- BENCH_scheduler.json ---------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// The deterministic fields of two explore results must agree exactly;
// returns false on the first mismatch.
bool points_identical(const std::vector<core::ExplorePoint>& a,
                      const std::vector<core::ExplorePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].curve != b[i].curve || a[i].tclk_ps != b[i].tclk_ps ||
        a[i].latency != b[i].latency || a[i].pipelined != b[i].pipelined ||
        a[i].feasible != b[i].feasible || a[i].delay_ns != b[i].delay_ns ||
        a[i].area != b[i].area || a[i].power_mw != b[i].power_mw ||
        a[i].passes != b[i].passes || a[i].backend != b[i].backend ||
        a[i].relaxations != b[i].relaxations || a[i].failure != b[i].failure) {
      return false;
    }
  }
  return true;
}

// Least-squares slope of log(ns_per_pass) against log(ops): the fitted
// complexity exponent of a scheduling pass (2.0 = quadratic growth; the
// incremental scheduler targets < 2.0).
double fitted_exponent(const std::vector<std::pair<int, double>>& points) {
  double sx = 0;
  double sy = 0;
  double sxx = 0;
  double sxy = 0;
  int n = 0;
  for (const auto& [ops, ns_per_pass] : points) {
    if (ns_per_pass <= 0) continue;
    const double x = std::log(static_cast<double>(ops));
    const double y = std::log(ns_per_pass);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 2) return 0;
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

// Times one schedule_region per design size for `backend`, appending a
// {ops, passes, success, total_ns, ns_per_pass, timing_queries,
// engine_commits} entry per size under the current JSON array, and
// returns the (ops, ns_per_pass) points. The two work counters are
// machine-independent and reported only; compare_baseline.py gates
// ns_per_pass.
// `warm_start` toggles trace-replay warm starts across relaxation passes
// (both backends support them; the warm/cold delta is the per-size
// warm-start win).
std::vector<std::pair<int, double>> emit_backend_sweep(
    JsonWriter& w, sched::BackendKind backend, int max_ops, bool warm_start) {
  std::vector<std::pair<int, double>> per_pass;
  for (int ops : {100, 400, 1600, 6400}) {
    if (ops > max_ops) continue;
    auto wl = make_sized(ops);
    pipeline::straighten(wl.module);
    const auto region = ir::linearize(wl.module.thread.tree, wl.loop);
    const auto latency = wl.module.thread.tree.stmt(wl.loop).latency;
    sched::SchedulerOptions opts;
    opts.backend = backend;
    opts.warm_start = warm_start;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = sched::schedule_region(wl.module.thread.dfg, region,
                                          latency, wl.module.ports.size(),
                                          opts);
    const double s = seconds_since(t0);
    const double ns_per_pass = r.passes > 0 ? s * 1e9 / r.passes : 0.0;
    per_pass.emplace_back(ops, ns_per_pass);
    w.begin_object();
    w.key("ops");
    w.value(ops);
    w.key("passes");
    w.value(r.passes);
    // The feasibility audit: every size is expected to reach the success
    // path (not merely pay pass cost until the budget runs out).
    w.key("success");
    w.value(r.success);
    w.key("total_ns");
    w.value(s * 1e9);
    w.key("ns_per_pass");
    w.value(ns_per_pass);
    w.key("timing_queries");
    w.value(r.timing_queries);
    w.key("engine_commits");
    w.value(r.engine_commits);
    w.end_object();
  }
  return per_pass;
}

void emit_scheduler_json(const char* path, unsigned explore_threads) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  if (explore_threads == 0) explore_threads = cores;

  JsonWriter w;
  w.begin_object();
  // Recorded prominently: a 1-thread box cannot demonstrate an explore
  // speedup, and the perf gate only judges the per-pass numbers.
  w.key("hardware_threads");
  w.value(static_cast<std::int64_t>(cores));

  // ns per scheduling pass across design sizes (one timed schedule each;
  // pass counts normalize the comparison across commits). The list
  // backend keeps the historical key — compare_baseline.py gates it —
  // and the SDC backend is reported alongside for the quality/runtime
  // comparison.
  w.key("schedule_ns_per_pass");
  w.begin_array();
  const auto per_pass =
      emit_backend_sweep(w, sched::BackendKind::kList, 6400, true);
  w.end_array();
  // The SDC sweeps cover the full size ladder: since the anchor-star II
  // encoding dropped window edges to O(n) per SCC, the 6400-op cold
  // solve costs seconds instead of minutes, and compare_baseline.py
  // gates both SDC keys like the list figures.
  // The cold sweep keeps the historical `schedule_ns_per_pass_sdc`
  // meaning (every pass re-solved from scratch); the `_warm` sweep
  // replays the validated prefix across relaxation passes, and the
  // per-size delta is the SDC warm-start win tracked per commit.
  w.key("schedule_ns_per_pass_sdc");
  w.begin_array();
  const auto sdc_cold =
      emit_backend_sweep(w, sched::BackendKind::kSdc, 6400, false);
  w.end_array();
  w.key("schedule_ns_per_pass_sdc_warm");
  w.begin_array();
  const auto sdc_warm =
      emit_backend_sweep(w, sched::BackendKind::kSdc, 6400, true);
  w.end_array();
  for (std::size_t i = 0; i < sdc_cold.size() && i < sdc_warm.size(); ++i) {
    const auto [ops, cold_ns] = sdc_cold[i];
    const auto [warm_ops, warm_ns] = sdc_warm[i];
    std::printf("sdc warm start at %d ops: %.2f ms/pass cold vs %.2f ms/pass "
                "warm (%.2fx)\n",
                ops, cold_ns / 1e6, warm_ns / 1e6,
                warm_ns > 0 ? cold_ns / warm_ns : 0.0);
    (void)warm_ops;
  }
  // Complexity fit over the size sweep; < 2.0 means the pass stays
  // subquadratic in the op count.
  const double exponent = fitted_exponent(per_pass);
  w.key("complexity");
  w.begin_object();
  w.key("fitted_exponent");
  w.value(exponent);
  w.key("sizes");
  w.begin_array();
  for (const auto& [ops, ns] : per_pass) w.value(ops);
  w.end_array();
  w.end_object();

  // Timing-table sharing A/B at the engine level: a fresh TimingEngine
  // touching every (class, width) and mux fan-in once is exactly the
  // cold-lookup cost each run pays without the process-wide prewarmed
  // tables. An engine on tech::artisan90() reads those tables; one on a
  // copy of the same library (different identity, same delays) falls
  // back to its local memo.
  {
    const tech::Library& lib = tech::artisan90();
    const tech::Library unshared_lib = lib;
    constexpr int kSetupReps = 2000;
    constexpr auto kLastClass = static_cast<int>(tech::FuClass::kMux);
    double sink = 0;
    const auto setup_sweep = [&](const tech::Library& engine_lib) {
      const auto s0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kSetupReps; ++rep) {
        timing::TimingEngine eng(engine_lib, 1600);
        for (int c = 0; c <= kLastClass; ++c) {
          const auto cls = static_cast<tech::FuClass>(c);
          if (cls == tech::FuClass::kNone) continue;
          for (int width : {8, 16, 32, 64}) {
            sink += eng.fu_delay_ps(cls, width);
          }
        }
        for (int n = 2; n <= 64; ++n) sink += eng.mux_delay_ps(n);
      }
      return seconds_since(s0) / kSetupReps;
    };
    const double setup_shared_s = setup_sweep(lib);
    const double setup_cold_s = setup_sweep(unshared_lib);
    if (sink < 0) std::abort();  // keep the sweeps observable
    w.key("timing_tables");
    w.begin_object();
    w.key("setup_shared_ns");
    w.value(setup_shared_s * 1e9);
    w.key("setup_unshared_ns");
    w.value(setup_cold_s * 1e9);
    w.key("setup_speedup");
    w.value(setup_shared_s > 0 ? setup_cold_s / setup_shared_s : 0);
    w.end_object();
    std::printf("timing tables: worker setup %.0f ns shared vs %.0f ns "
                "unshared (%.2fx)\n",
                setup_shared_s * 1e9, setup_cold_s * 1e9,
                setup_shared_s > 0 ? setup_cold_s / setup_shared_s : 0.0);
  }

  // Backend quality/runtime comparison over the paper grid: the same
  // configurations scheduled by each backend, serially.
  {
    const core::FlowSession session(workloads::make_idct8());
    core::ExploreOptions serial;
    serial.threads = 1;
    w.key("backend_explore");
    w.begin_array();
    for (const auto backend :
         {sched::BackendKind::kList, sched::BackendKind::kSdc}) {
      auto grid = core::idct_paper_grid();
      for (auto& cfg : grid) cfg.backend = backend;
      const auto t0 = std::chrono::steady_clock::now();
      const auto pts = core::explore(session, grid, serial);
      const double s = seconds_since(t0);
      int feasible = 0;
      int passes = 0;
      double area = 0;
      for (const auto& pt : pts) {
        if (!pt.feasible) continue;
        ++feasible;
        passes += pt.passes;
        area += pt.area;
      }
      w.begin_object();
      w.key("backend");
      w.value(sched::backend_name(backend));
      w.key("seconds");
      w.value(s);
      w.key("feasible");
      w.value(feasible);
      w.key("passes");
      w.value(passes);
      w.key("mean_area");
      w.value(feasible > 0 ? area / feasible : 0);
      w.end_object();
      std::printf("backend %s: %zu configs in %.3fs, %d feasible, "
                  "%d passes, mean area %.0f\n",
                  sched::backend_name(backend), grid.size(), s, feasible,
                  passes, feasible > 0 ? area / feasible : 0.0);
    }
    w.end_array();
  }

  // Serial vs. threaded exploration throughput on the paper's IDCT grid.
  const core::FlowSession session(workloads::make_idct8());
  const auto grid = core::idct_paper_grid();

  core::ExploreOptions serial;
  serial.threads = 1;
  auto t0 = std::chrono::steady_clock::now();
  const auto serial_pts = core::explore(session, grid, serial);
  const double serial_s = seconds_since(t0);

  core::ExploreOptions threaded;
  threaded.threads = static_cast<int>(explore_threads);
  t0 = std::chrono::steady_clock::now();
  const auto threaded_pts = core::explore(session, grid, threaded);
  const double threaded_s = seconds_since(t0);

  const bool identical = points_identical(serial_pts, threaded_pts);
  const double speedup = threaded_s > 0 ? serial_s / threaded_s : 0;
  // A parallel speedup is only a meaningful expectation with real
  // parallelism available AND requested; on a 1-core CI box the measured
  // ratio is noise and must not be read as a regression.
  const bool speedup_meaningful = cores > 1 && explore_threads > 1;
  w.key("explore");
  w.begin_object();
  w.key("configs");
  w.value(static_cast<std::int64_t>(grid.size()));
  w.key("hardware_threads");
  w.value(static_cast<std::int64_t>(cores));
  w.key("worker_threads");
  w.value(static_cast<std::int64_t>(explore_threads));
  w.key("serial_seconds");
  w.value(serial_s);
  w.key("threaded_seconds");
  w.value(threaded_s);
  w.key("configs_per_second_serial");
  w.value(static_cast<double>(grid.size()) / serial_s);
  w.key("configs_per_second_threaded");
  w.value(static_cast<double>(grid.size()) / threaded_s);
  w.key("speedup");
  w.value(speedup);
  w.key("speedup_meaningful");
  w.value(speedup_meaningful);
  w.key("points_identical");
  w.value(identical);
  w.end_object();
  w.end_object();

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s: %u hardware thread(s), fitted pass exponent "
              "%.2f over {100,400,1600,6400} ops\n",
              path, cores, exponent);
  if (speedup_meaningful) {
    std::printf("explore %zu configs, %u worker(s): serial %.2fs vs "
                "threaded %.2fs (%.2fx), points %s\n",
                grid.size(), explore_threads, serial_s, threaded_s, speedup,
                identical ? "identical" : "DIVERGED");
  } else {
    std::printf("explore %zu configs: single hardware thread, speedup "
                "expectation suppressed (points %s)\n",
                grid.size(), identical ? "identical" : "DIVERGED");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --threads=N overrides the explore worker count (default: all hardware
  // threads). Consumed before google-benchmark sees the argv.
  unsigned explore_threads = 0;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      explore_threads =
          static_cast<unsigned>(std::strtoul(argv[i] + 10, nullptr, 10));
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_scheduler_json("BENCH_scheduler.json", explore_threads);
  return 0;
}
