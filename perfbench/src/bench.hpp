// Shared pieces of the three workloads: run arguments, the metric sets,
// the staged flow runner the benchmark times, and point fingerprints.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "classify.hpp"
#include "core/explore.hpp"
#include "core/session.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event file.
  std::string trace_path;
};

/// Worker threads for explore-1600 and serve-mixed (suite-flow is serial).
inline constexpr int kThreads = 2;
/// Input iterations per co-simulation.
inline constexpr int kCosimIterations = 16;
/// Set-up repetitions timed before each closed-loop iteration; setup_s is
/// the median of all of them (see sample_setup).
inline constexpr int kSetupsPerIteration = 3;

/// Span request ids outside the timed iterations (which use 0, 1, ...).
inline constexpr std::int64_t kSetupRequest = -1;
inline constexpr std::int64_t kVerifyRequest = -2;
inline constexpr std::int64_t kReplayRequest = -3;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// QoR of one iteration's feasible points (deterministic).
struct Qor {
  std::vector<double> area, delay_ns, power_mw;
  void add(double area_v, double delay_v, double power_v) {
    area.push_back(area_v);
    delay_ns.push_back(delay_v);
    power_mw.push_back(power_v);
  }
};

/// One timed closed-loop iteration. Every iteration of a run does the same
/// work in the same order, so element i of parts_s (of point_ms) is the
/// same part (point) in every iteration.
struct Iteration {
  double seconds = 0;            ///< wall time of the whole iteration
  std::vector<double> parts_s;   ///< consecutive parts; they add up to about `seconds`
  std::vector<double> point_ms;  ///< per point latency, when not given as parts
};

/// A latency that runs from the start of part `first` to the end of part
/// `last` of an iteration.
struct PartRange {
  std::size_t first = 0, last = 0;
};

/// What every workload measures with tracing off.
struct EndToEnd {
  std::vector<double> setup_s;           ///< one per set-up repetition
  std::vector<Iteration> iterations;
  std::size_t points_per_iteration = 0;  ///< configurations with a final result
  /// Point and job latencies as ranges of parts, the same in every
  /// iteration; a latency is the sum of its parts' minima. Without
  /// point_parts, point latencies are the minima of the iterations'
  /// point_ms.
  std::vector<PartRange> point_parts, job_parts;
  double peak_rss_mb = 0;
  Qor qor;                               ///< from the reference iteration

  std::vector<double> iteration_seconds() const;
};

std::vector<Metric> end_to_end_metrics(const EndToEnd& e, std::uint64_t attempted,
                                       const Failures& failures, std::vector<std::string>* notes);

/// Per-layer counters and times, keyed by metric name, summed per
/// closed-loop iteration unless noted. Ratios are derived from their base
/// counters by per_layer_metrics, which lists every per-layer metric with
/// its unit; a layer a workload bypasses reads 0. See perfbench/README.md
/// for the map from each metric to the end-to-end metric it should move.
using Counters = std::map<std::string, double>;

/// Adds one finished run's scheduler counters and Verilog size.
void add_run(const hls::core::FlowResult& r, Counters* c);

std::vector<Metric> per_layer_metrics(Counters c);

/// Fills the span-derived per-layer metrics of a traced run:
///  * call times and layer self times from the traced iterations (per
///    iteration), the first set-up (the only traced one) and the replay
///    (as recorded);
///    self times leave out the inside of the opaque entry points
///    core.explore and serve.drain, which the replay splits instead;
///  * co-simulation time, spans per iteration and tracing overhead.
/// `iteration_s` holds every timed iteration; odd ones were traced.
void add_traced_run(const std::vector<Span>& spans, const std::vector<double>& iteration_s,
                    Counters* c);

/// FlowOptions exactly as core::run_point builds them for `cfg`.
hls::core::FlowOptions flow_options(const hls::core::ExploreConfig& cfg);

struct StagedRun {
  hls::core::FlowResult flow;
  /// Why the run failed, formatted like core::ExplorePoint::failure:
  /// "[stage/code] message", or "internal: ..." when the library threw
  /// InternalError (core::run_point reports those the same way). Empty on
  /// success.
  std::string failure;
};

/// Runs the four FlowRun stages with a span around each call into the
/// library: core.microarch, sched.schedule (detail: resolved backend),
/// rtl.generate, synth.estimate. Exceptions other than InternalError
/// propagate.
StagedRun run_stages(const hls::core::FlowSession& session, const hls::core::FlowOptions& options,
                     Tracer* tracer, std::int64_t request);

/// The deterministic outcome of one point, compared across iterations.
struct PointPrint {
  bool feasible = false;
  double area = 0, delay_ns = 0, power_mw = 0;  ///< 0 unless feasible
  std::string failure;
  int passes = 0;

  PointPrint() = default;
  PointPrint(bool is_feasible, std::string failure_text, int pass_count, double area_v,
             double delay_v, double power_v);

  /// Equal outcome and QoR. The pass count is left out: a warm-started
  /// explore point and its cold rebuild legitimately differ in passes.
  bool same_result(const PointPrint& o) const;
  friend bool operator==(const PointPrint&, const PointPrint&) = default;
};

PointPrint print_of(const StagedRun& r);
PointPrint print_of(const hls::core::ExplorePoint& p);

/// Peak resident set of this process image so far (VmHWM), in MB.
double peak_rss_mb();

/// One workload run: its metrics (end-to-end, or per-layer when traced)
/// and the failed-operation tally behind error_rate.
struct Output {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  Failures failures;
  std::vector<std::string> notes;  ///< sample counts and other context
};

Output run_suite_flow(const Args& args, Tracer* tracer);
Output run_explore_1600(const Args& args, Tracer* tracer);
Output run_serve_mixed(const Args& args, Tracer* tracer);

/// Times kSetupsPerIteration untraced repetitions of `setup` (input
/// generation) into `setup_s`. Called before each timed iteration: a set-up
/// takes milliseconds, and on a shared host all repetitions made back to
/// back in one process run at the same speed, which can differ by 2x from
/// one process to the next. Spread over the run, they see the host as the
/// timed iterations do.
template <class F>
void sample_setup(Tracer* tracer, std::vector<double>* setup_s, F&& setup) {
  const bool traced = tracer->enabled();
  tracer->set_enabled(false);
  for (int i = 0; i < kSetupsPerIteration; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    setup_s->push_back(seconds_between(t0, Clock::now()));
  }
  tracer->set_enabled(traced);
}

/// Closed loop: iterations run back to back until `seconds` have passed
/// (at least `min_iterations`). In a traced run every other iteration is
/// traced, so one process measures traced and untraced time alike.
template <class F>
void closed_loop(const Args& args, Tracer* tracer, int min_iterations, F&& iteration) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < min_iterations || seconds_between(start, Clock::now()) < args.seconds;
       ++i) {
    tracer->set_enabled(args.trace && i % 2 == 1);
    iteration(i);
  }
  tracer->set_enabled(args.trace);
}

}  // namespace perfbench
