// End-to-end output generation demo: schedule a pipelined FIR filter,
// emit its Verilog, and co-simulate the cycle-accurate machine against
// the untimed reference, reporting the achieved initiation interval and
// pipeline structure (folded kernel, pipeline register chains).
//
//   $ ./examples/cosim_verilog
#include <cstdio>

#include "core/report.hpp"
#include "core/session.hpp"
#include "support/rng.hpp"

int main() {
  using namespace hls;

  core::FlowOptions opts;
  opts.pipeline_ii = 1;  // one sample per cycle

  // Drive the flow stage by stage (the staged FlowRun API): each stage can
  // be inspected before the next one runs.
  core::FlowSession session(workloads::make_fir(8));
  core::FlowRun run = session.begin(opts);
  if (run.select_microarch() && run.schedule()) {
    std::printf("scheduled in %d passes (%.4f s); generating RTL...\n\n",
                run.result().sched.passes, run.result().timings.sched_seconds);
    run.generate_rtl();
    run.estimate();
  }
  auto r = run.take();
  if (!r.success) {
    std::printf("flow failed: %s\n", r.failure_reason.c_str());
    return 1;
  }
  std::printf("%s\n", core::render_report(r).c_str());

  const auto& k = r.machine.loop.folded;
  std::printf("Folded kernel: LI=%d II=%d stages=%d, %d pipeline register "
              "bits across %zu chains\n\n",
              k.li, k.ii, k.stages, k.pipe_register_bits(),
              k.pipe_regs.size());

  // Co-simulation.
  Rng rng(7);
  ir::Stimulus s;
  std::vector<std::int64_t> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(rng.uniform(-1000, 1000));
  s.set("x", xs);
  const auto ref = ir::interpret(*r.module, s);
  const auto sim = rtl::simulate(r.machine, s);
  const bool match = ir::writes_by_port(*r.module, ref.writes) ==
                     ir::writes_by_port(*r.module, sim.writes);
  std::printf("co-simulation: %lld iterations in %lld cycles "
              "(measured II %.2f), outputs %s\n\n",
              static_cast<long long>(sim.iterations_committed),
              static_cast<long long>(sim.cycles), sim.measured_ii(),
              match ? "match the reference" : "MISMATCH");

  std::printf("Generated Verilog:\n%s\n", r.verilog.c_str());
  return match ? 0 : 1;
}
