// explore-1600: core::explore with guided chains and dominance pruning on
// two threads, backend auto, over the ~1600-op random CDFG and the five
// clock ladders of bench_explore_guided's random:1600 grid (131 configs).
// One add-state-heavy point (feasible-ii8@1900) dominates the time, so
// binder and warm-start work dominate; RTL and synthesis are negligible.
#include <algorithm>
#include <optional>

#include "bench.hpp"
#include "cosim.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace {

using hls::core::ExploreConfig;
using hls::core::ExplorePoint;
using hls::core::FlowSession;

struct Inputs {
  hls::workloads::Workload design;
  std::vector<ExploreConfig> grid;
  hls::ir::Stimulus stimulus;
};

void ladder(std::vector<ExploreConfig>* grid, const char* curve, int latency, int ii, double lo,
            double hi, double step) {
  for (double t = lo; t <= hi + 0.5; t += step) {
    ExploreConfig c;
    c.curve = curve;
    c.tclk_ps = t;
    c.latency = ii > 0 ? 0 : latency;
    c.pipeline_ii = ii;
    c.backend = hls::sched::BackendKind::kAuto;
    grid->push_back(c);
  }
}

Inputs make_inputs(std::uint64_t seed, Tracer* tracer) {
  Inputs in;
  {
    auto span = tracer->span("frontend.parse", kSetupRequest);
    hls::workloads::RandomCdfgOptions gen;
    gen.target_ops = 4800;  // ~1600 ops after the optimizer
    gen.inputs = 10;
    in.design = hls::workloads::make_random_cdfg(1600, gen);
  }
  ladder(&in.grid, "exhaust-l2", 2, 0, 1100, 2100, 20);
  ladder(&in.grid, "exhaust-l4", 4, 0, 1100, 2100, 20);
  ladder(&in.grid, "exhaust-l8", 8, 0, 1100, 1850, 50);
  ladder(&in.grid, "recurrence-ii2", 0, 2, 1100, 2200, 100);
  ladder(&in.grid, "feasible-ii8", 0, 8, 1900, 1900, 100);
  in.stimulus = make_stimulus(in.design.module, seed, kCosimIterations);
  return in;
}

bool pruned(const ExplorePoint& p) {
  return p.failure.rfind(hls::core::kDominatedPrefix, 0) == 0;
}

}  // namespace

Output run_explore_1600(const Args& args, Tracer* tracer) {
  Output out;
  EndToEnd e2e;
  Counters layers;
  const Clock::time_point setup0 = Clock::now();
  const Inputs in = make_inputs(args.seed, tracer);
  e2e.setup_s.push_back(seconds_between(setup0, Clock::now()));
  e2e.points_per_iteration = in.grid.size();
  e2e.job_parts = {{0, 0}};  // the grid is the job, and its only part

  struct Grid {
    std::vector<ExplorePoint> points;
    double seconds = 0;
    std::vector<double> done_ms;  ///< per point, from the grid's start
  };
  auto run_grid = [&](std::int64_t request) {
    Grid g;
    auto root = tracer->span("bench.grid", request);
    g.done_ms.reserve(in.grid.size());
    hls::workloads::Workload copy = in.design;
    const Clock::time_point t0 = Clock::now();
    std::optional<FlowSession> session;
    {
      auto span = tracer->span("core.compile", request);
      session.emplace(std::move(copy));
    }
    hls::core::ExploreOptions options;
    options.threads = kThreads;
    options.guided = true;
    options.prune = true;
    // Serialized by explore() under its own lock; read after it joins.
    options.progress = [&](const ExplorePoint&, std::size_t, std::size_t) {
      g.done_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    };
    try {
      auto span = tracer->span("core.explore", request);
      g.points = hls::core::explore(*session, in.grid, options);
    } catch (const std::exception& e) {
      ++out.failures.crash;
      out.notes.push_back(std::string("explore crashed: ") + e.what());
    }
    g.seconds = seconds_between(t0, Clock::now());
    out.attempted += in.grid.size();
    for (const ExplorePoint& p : g.points) {
      if (classify_failure(p.failure) == Outcome::kFailed) ++out.failures.unexpected_code;
    }
    return g;
  };

  // There is no untimed warm-up grid: each grid compiles a fresh session,
  // and the process-wide warm-up (allocator, instruction cache) is
  // milliseconds against a grid of seconds. The first timed grid is the
  // reference every later one must reproduce. At least four grids run. A
  // grid is one opaque explore() call, so it is a single part: the timings
  // are those of the fastest grid (see end_to_end_metrics), and a point
  // latency the fastest k-th completion, as points finish in varying order
  // on two threads.
  std::vector<ExplorePoint> reference;
  double traced_busy_s = 0;
  closed_loop(args, tracer, 4, [&](int i) {
    sample_setup(tracer, &e2e.setup_s, [&] { return make_inputs(args.seed, tracer); });
    Grid g = run_grid(i);
    e2e.iterations.push_back({g.seconds, {g.seconds}, g.done_ms});
    if (tracer->enabled()) {
      for (const ExplorePoint& p : g.points) traced_busy_s += p.sched_seconds;
    }
    if (i == 0) {
      reference = std::move(g.points);
      return;
    }
    for (std::size_t p = 0; p < std::max(g.points.size(), reference.size()); ++p) {
      if (p >= g.points.size() || p >= reference.size() ||
          !(print_of(g.points[p]) == print_of(reference[p]))) {
        ++out.failures.nondeterministic;
      }
    }
  });
  e2e.peak_rss_mb = peak_rss_mb();
  for (const ExplorePoint& p : reference) {
    if (p.feasible) e2e.qor.add(p.area, p.delay_ns, p.power_mw);
  }

  // Untimed rebuild through FlowSession of every feasible point (every
  // point the engine ran, in the traced run, where this is the replay that
  // splits core::explore's time into layers): the same QoR, and a machine
  // that co-simulates equal to the interpreter.
  const std::int64_t request = args.trace ? kReplayRequest : kVerifyRequest;
  std::optional<FlowSession> session;
  {
    // Not part of the replay's split: the grid's own compile is timed above.
    auto span = tracer->span("core.compile", kVerifyRequest);
    session.emplace(in.design);
  }
  for (std::size_t p = 0; p < reference.size(); ++p) {
    const ExplorePoint& pt = reference[p];
    if (pruned(pt) || (!pt.feasible && !args.trace)) continue;
    try {
      const StagedRun run = run_stages(*session, flow_options(in.grid[p]), tracer, request);
      const hls::core::FlowResult& r = run.flow;
      add_run(r, &layers);
      if (r.success) {
        auto span = tracer->span("rtl.cosim", kVerifyRequest);
        std::string detail;
        if (!cosim_matches(in.design.module, *r.module, r.machine, in.stimulus, &detail)) {
          ++out.failures.cosim_mismatch;
          out.notes.push_back(pt.curve + " cosim mismatch: " + detail);
        }
      }
      if (!print_of(run).same_result(print_of(pt))) {
        ++out.failures.rebuild_mismatch;
        out.notes.push_back(pt.curve + " rebuild differs from the explore point");
      }
    } catch (const std::exception& e) {
      ++out.failures.crash;
      out.notes.push_back(pt.curve + " rebuild crashed: " + e.what());
    }
  }

  if (!args.trace) {
    out.metrics = end_to_end_metrics(e2e, out.attempted, out.failures, &out.notes);
    return out;
  }
  add_traced_run(tracer->spans(), e2e.iteration_seconds(), &layers);
  layers["core.explore_busy_s"] = traced_busy_s / static_cast<double>(e2e.iterations.size() / 2);
  layers["core.explore_configs"] = static_cast<double>(in.grid.size());
  for (const ExplorePoint& p : reference) layers["core.explore_pruned"] += pruned(p) ? 1 : 0;
  out.metrics = per_layer_metrics(layers);
  return out;
}

}  // namespace perfbench
