// Reproduces paper Figure 9: "Profiling designs and scheduling times" —
// a scatter of scheduler wall-clock time against design size for ~40
// designs (filters, FFTs, image processing, 100..6000+ ops).
//
// The paper's observation: "Execution time does not correlate with input
// CDFG size, but depends on the number of pass scheduler calls". The
// summary below reports both correlations.
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/session.hpp"
#include "support/table.hpp"
#include "workloads/workloads.hpp"

namespace {

double correlation(const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  const std::size_t n = xs.size();
  double sx = 0;
  double sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double num = 0;
  double dx = 0;
  double dy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (xs[i] - mx) * (ys[i] - my);
    dx += (xs[i] - mx) * (xs[i] - mx);
    dy += (ys[i] - my) * (ys[i] - my);
  }
  return dx > 0 && dy > 0 ? num / std::sqrt(dx * dy) : 0;
}

}  // namespace

int main() {
  using namespace hls;

  auto suite = workloads::make_profile_suite();
  std::printf("Figure 9: scheduling %zu designs (paper: ~40 industrial "
              "designs, 100..6000+ ops, avg 1400)\n\n",
              suite.size());

  TextTable t({"design", "ops", "passes", "relax", "LI", "queries",
               "time (s)"});
  std::vector<double> ops, times, passes;
  double max_time = 0;
  for (auto& w : suite) {
    const int n_ops = w.op_count();
    const core::FlowSession session(std::move(w));
    core::FlowOptions opts;
    opts.emit_verilog = false;
    auto r = session.run(opts);
    if (!r.success) {
      t.row({session.name(), strf(n_ops), "-", "-", "-", "-", "FAILED"});
      continue;
    }
    t.row({session.name(), strf(n_ops), strf(r.sched.passes),
           strf(r.sched.relaxations()), strf(r.sched.schedule.num_steps),
           strf(r.sched.timing_queries), fmt_fixed(r.timings.sched_seconds, 3)});
    ops.push_back(n_ops);
    times.push_back(r.timings.sched_seconds);
    passes.push_back(r.sched.passes);
    max_time = std::max(max_time, r.timings.sched_seconds);
  }
  std::printf("%s\n", t.to_string().c_str());

  double avg = 0;
  for (double x : times) avg += x;
  avg /= static_cast<double>(times.size());
  std::printf("scheduled %zu designs; avg time %.2f s, max %.2f s "
              "(paper: avg 7 min, max < 1 h on 2010 hardware)\n",
              times.size(), avg, max_time);
  std::printf("correlation(time, #ops)    = %+.2f\n",
              correlation(ops, times));
  std::printf("correlation(time, #passes) = %+.2f\n",
              correlation(passes, times));
  std::printf("(the paper reports time tracking pass count rather than "
              "size; our pure-software reimplementation — no logic "
              "synthesis in the loop — scales mildly with size too, and "
              "pass count remains a comparable driver)\n");
  return 0;
}
