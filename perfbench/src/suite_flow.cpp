// suite-flow: a serial closed loop over every workloads::suite() kernel,
// each swept over backends {list, sdc} x micro-architectures {sequential,
// II=2, min-II} x clocks {1400, 1600, 2000} ps (234 points per sweep).
// Each kernel's FlowSession is compiled once per sweep and every point
// runs select_microarch -> schedule -> generate_rtl (with Verilog) ->
// estimate. Many small designs, so compile, RTL and synthesis are a
// visible share of the time.
#include <map>
#include <optional>

#include "bench.hpp"
#include "cosim.hpp"
#include "support/strings.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace {

using hls::core::FlowOptions;
using hls::core::FlowResult;
using hls::core::FlowSession;

struct Kernel {
  hls::workloads::Workload design;
  hls::ir::Stimulus stimulus;
};

struct Inputs {
  std::vector<Kernel> kernels;
  std::vector<FlowOptions> grid;
};

Inputs make_inputs(std::uint64_t seed, Tracer* tracer) {
  Inputs in;
  std::vector<hls::workloads::Workload> designs;
  {
    auto span = tracer->span("frontend.parse", kSetupRequest);
    designs = hls::workloads::suite();
  }
  for (std::size_t i = 0; i < designs.size(); ++i) {
    hls::ir::Stimulus s = make_stimulus(designs[i].module, seed * 1000 + i, kCosimIterations);
    in.kernels.push_back({std::move(designs[i]), std::move(s)});
  }
  for (const auto backend : {hls::sched::BackendKind::kList, hls::sched::BackendKind::kSdc}) {
    for (const int uarch : {0, 1, 2}) {  // sequential, II=2, min-II
      for (const double tclk : {1400.0, 1600.0, 2000.0}) {
        FlowOptions o;
        o.backend = backend;
        o.tclk_ps = tclk;
        o.pipeline_ii = uarch == 1 ? 2 : 0;
        o.solve_min_ii = uarch == 2;
        o.emit_verilog = true;
        in.grid.push_back(o);
      }
    }
  }
  return in;
}

struct Sweep {
  std::vector<PointPrint> prints;
  std::vector<double> parts_s;  ///< per kernel its compile, then each of its points
};

// One sweep over every kernel and configuration. The verification sweep
// (`verify`) co-simulates every feasible point and feeds the per-layer
// counters; timed sweeps only time.
Sweep sweep(const Inputs& in, Tracer* tracer, std::int64_t request, bool verify,
            Output* out, Counters* layers) {
  Sweep s;
  std::map<std::string, int> unexpected;  ///< failure -> points
  auto root = tracer->span("bench.sweep", request);
  for (const Kernel& k : in.kernels) {
    hls::workloads::Workload copy = k.design;
    const Clock::time_point job0 = Clock::now();
    std::optional<FlowSession> session;
    {
      auto span = tracer->span("core.compile", request);
      session.emplace(std::move(copy));
    }
    s.parts_s.push_back(seconds_between(job0, Clock::now()));
    for (const FlowOptions& o : in.grid) {
      const Clock::time_point t0 = Clock::now();
      PointPrint print;
      try {
        const StagedRun run = run_stages(*session, o, tracer, request);
        s.parts_s.push_back(seconds_between(t0, Clock::now()));
        print = print_of(run);
        const FlowResult& r = run.flow;
        if (verify) {
          add_run(r, layers);
          if (r.success) {
            auto span = tracer->span("rtl.cosim", request);
            std::string detail;
            if (!cosim_matches(k.design.module, *r.module, r.machine, k.stimulus, &detail)) {
              ++out->failures.cosim_mismatch;
              out->notes.push_back("cosim mismatch: " + k.design.name + ": " + detail);
            }
          }
        }
      } catch (const std::exception& e) {
        s.parts_s.push_back(seconds_between(t0, Clock::now()));
        ++out->failures.crash;
        print.failure = std::string("crash: ") + e.what();
      }
      if (!print.feasible && classify_failure(print.failure) == Outcome::kFailed) {
        ++out->failures.unexpected_code;
        if (verify) ++unexpected[k.design.name + ": " + print.failure];
      }
      s.prints.push_back(std::move(print));
      ++out->attempted;
    }
  }
  for (const auto& [what, n] : unexpected) {
    out->notes.push_back(hls::strf("unexpected failure x", n, ": ", what));
  }
  return s;
}

}  // namespace

Output run_suite_flow(const Args& args, Tracer* tracer) {
  Output out;
  EndToEnd e2e;
  Counters layers;
  const Clock::time_point setup0 = Clock::now();
  const Inputs in = make_inputs(args.seed, tracer);
  e2e.setup_s.push_back(seconds_between(setup0, Clock::now()));

  // Untimed first sweep: co-simulation, the reference every timed sweep
  // must reproduce, QoR and per-layer counters. It also warms the caches.
  const Sweep reference = sweep(in, tracer, kVerifyRequest, true, &out, &layers);
  for (const PointPrint& p : reference.prints) {
    if (p.feasible) e2e.qor.add(p.area, p.delay_ns, p.power_mw);
  }
  e2e.points_per_iteration = reference.prints.size();
  // A point's latency is its own part; a kernel's job is its compile and
  // its points.
  for (std::size_t k = 0; k < in.kernels.size(); ++k) {
    const std::size_t compile = k * (in.grid.size() + 1);
    for (std::size_t p = 1; p <= in.grid.size(); ++p) {
      e2e.point_parts.push_back({compile + p, compile + p});
    }
    e2e.job_parts.push_back({compile, compile + in.grid.size()});
  }

  closed_loop(args, tracer, 3, [&](int i) {
    sample_setup(tracer, &e2e.setup_s, [&] { return make_inputs(args.seed, tracer); });
    const Clock::time_point t0 = Clock::now();
    Sweep s = sweep(in, tracer, i, false, &out, &layers);
    const double seconds = seconds_between(t0, Clock::now());
    for (std::size_t p = 0; p < s.prints.size(); ++p) {
      if (!(s.prints[p] == reference.prints[p])) ++out.failures.nondeterministic;
    }
    e2e.iterations.push_back({seconds, std::move(s.parts_s), {}});
  });
  e2e.peak_rss_mb = peak_rss_mb();

  if (!args.trace) {
    out.metrics = end_to_end_metrics(e2e, out.attempted, out.failures, &out.notes);
    return out;
  }
  add_traced_run(tracer->spans(), e2e.iteration_seconds(), &layers);
  out.metrics = per_layer_metrics(layers);
  return out;
}

}  // namespace perfbench
