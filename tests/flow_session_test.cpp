// Tests for the staged FlowSession API and the parallel exploration
// engine:
//  * run_flow and FlowSession::run produce byte-identical schedules and
//    reports for every suite workload;
//  * the staged FlowRun stage chain matches run() and enforces ordering;
//  * FlowOptions validation fails fast with structured diagnostics;
//  * explore() with 1 thread and N threads produces identical point
//    vectors, in config order, with profiling fields populated.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <regex>
#include <string>

#include "core/explore.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "frontend/parser.hpp"
#include "ir/print.hpp"
#include "workloads/workloads.hpp"

namespace hls::core {
namespace {

// ---- run_flow ≡ FlowSession::run -------------------------------------------

// Everything the schedule and estimates determine, rendered to text; the
// wall-clock timings are deliberately excluded.
std::string fingerprint(const FlowResult& r) {
  if (!r.success) return "FAILED: " + r.failure_reason;
  return r.sched.schedule.to_table(r.module->thread.dfg) + render_report(r) +
         render_trace(r.sched) + r.verilog;
}

TEST(FlowSession, MatchesRunFlowOnEverySuiteWorkload) {
  for (auto& w : workloads::suite()) {
    for (int ii : {0, 2}) {
      FlowOptions o;
      o.pipeline_ii = ii;
      auto via_facade = run_flow(w, o);  // copies the workload
      const FlowSession session(w);
      auto via_session = session.run(o);
      EXPECT_EQ(fingerprint(via_facade), fingerprint(via_session))
          << w.name << " at II=" << ii;
    }
  }
}

TEST(FlowSession, RepeatedRunsAreIdenticalAndLeaveTheModuleUntouched) {
  const FlowSession session(workloads::make_ewf());
  const std::string before = ir::print_module(session.module());
  FlowOptions o;
  auto r1 = session.run(o);
  auto r2 = session.run(o);
  ASSERT_TRUE(r1.success) << r1.failure_reason;
  EXPECT_EQ(fingerprint(r1), fingerprint(r2));
  EXPECT_EQ(ir::print_module(session.module()), before);
}

TEST(FlowSession, CompileHappensOnceAndIsReportedPerRun) {
  const FlowSession session(workloads::make_fir(8));
  ASSERT_TRUE(session.ok());
  EXPECT_GT(session.compile_seconds(), 0.0);
  auto r = session.run(FlowOptions{});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.timings.compile_seconds, session.compile_seconds());
  EXPECT_GT(r.timings.sched_seconds, 0.0);
}

// ---- Staged FlowRun --------------------------------------------------------

TEST(FlowRun, StagesRunInOrderAndMatchRunAll) {
  const FlowSession session(workloads::make_fir(8));
  FlowOptions o;
  o.pipeline_ii = 2;

  FlowRun staged = session.begin(o);
  EXPECT_FALSE(staged.schedule());  // out of order: no-op
  EXPECT_TRUE(staged.select_microarch());
  EXPECT_FALSE(staged.select_microarch());  // already done: no-op
  EXPECT_TRUE(staged.schedule());
  EXPECT_FALSE(staged.result().success);  // not estimated yet
  EXPECT_TRUE(staged.generate_rtl());
  EXPECT_TRUE(staged.estimate());
  auto r_staged = staged.take();

  auto r_all = session.run(o);
  ASSERT_TRUE(r_staged.success) << r_staged.failure_reason;
  EXPECT_EQ(fingerprint(r_staged), fingerprint(r_all));
}

TEST(FlowRun, FailedScheduleShortCircuitsLaterStages) {
  const FlowSession session(workloads::make_ewf());
  FlowOptions o;
  o.pipeline_ii = 1;  // EWF's recurrence cannot fit II=1
  o.allow_accept_slack = false;
  FlowRun run = session.begin(o);
  EXPECT_TRUE(run.select_microarch());
  EXPECT_FALSE(run.schedule());
  EXPECT_FALSE(run.generate_rtl());
  EXPECT_FALSE(run.estimate());
  auto r = run.take();
  EXPECT_FALSE(r.success);
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics.back().stage, "schedule");
  EXPECT_EQ(r.diagnostics.back().code, "infeasible");
}

// ---- Option validation -----------------------------------------------------

TEST(FlowOptionsValidation, RejectsMalformedOptions) {
  FlowOptions bad;
  bad.tclk_ps = -1600;
  bad.pipeline_ii = -2;
  bad.latency_min = 8;
  bad.latency_max = 4;
  const auto diags = validate_flow_options(bad);
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].code, "non-positive-tclk");
  EXPECT_EQ(diags[1].code, "negative-ii");
  EXPECT_EQ(diags[2].code, "inverted-latency-bound");
  for (const auto& d : diags) EXPECT_EQ(d.stage, "options");

  EXPECT_TRUE(validate_flow_options(FlowOptions{}).empty());
}

TEST(FlowOptionsValidation, RunFailsCleanlyOnMalformedOptions) {
  const FlowSession session(workloads::make_fir(4));
  FlowOptions bad;
  bad.latency_min = -3;
  auto r = session.run(bad);
  EXPECT_FALSE(r.success);
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics.front().stage, "options");
  EXPECT_EQ(r.diagnostics.front().code, "negative-latency");
  EXPECT_FALSE(r.failure_reason.empty());
}

TEST(FlowOptionsValidation, LatencyMinAboveDesignerMaxFailsStructured) {
  // latency_max = 0 keeps the designer's bound (64 for FIR); a min
  // override beyond it leaves an empty effective bound, which must fail
  // as a diagnostic rather than reach the scheduler.
  const FlowSession session(workloads::make_fir(4));
  FlowOptions o;
  o.latency_min = 100;
  auto r = session.run(o);
  EXPECT_FALSE(r.success);
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics.back().stage, "microarch");
  EXPECT_EQ(r.diagnostics.back().code, "inverted-latency-bound");
}

TEST(FlowSession, InvalidIrIsACompileDiagnosticNotACrash) {
  workloads::Workload w = workloads::make_fir(4);
  // A loop-carried mux whose carried operand is never set — and which no
  // region statement references — is structurally invalid; compilation
  // must record the problem instead of letting a pass crash on it.
  w.module.thread.dfg.loop_mux(0, w.module.thread.dfg.op(0).type);
  const FlowSession session(std::move(w));
  EXPECT_FALSE(session.ok());
  auto r = session.run(FlowOptions{});
  EXPECT_FALSE(r.success);
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics.front().stage, "compile");
  EXPECT_EQ(r.diagnostics.front().code, "invalid-ir");
}

// The paper's Figure 1 source: a do-while loop nested in the forever loop.
constexpr const char* kFigure1Source = R"(
module example1 {
  in mask: i32;
  in chrome: i32;
  in scale: i32;
  in th: i32;
  out pixel: i32;

  thread {
    forever {
      var aver: i32 = 0;
      wait;
      do {
        var filt: i32 = mask;
        var delta: i32 = mask * chrome;
        aver = aver + delta;
        if (aver > th) { aver = aver * scale; }
        wait;
        pixel = aver * filt;
      } while (delta != 0) latency(1, 3);
    }
  }
}
)";

TEST(FlowSession, NestedLoopIsAMicroarchDiagnosticNotAnInternalError) {
  frontend::ParseResult parsed =
      frontend::parse_module_or_throw(kFigure1Source);
  ASSERT_EQ(parsed.loops.size(), 2u);
  workloads::Workload w;
  w.name = "example1";
  w.module = std::move(parsed.module);
  w.loop = parsed.loops.front();  // the outer loop holds the do-while
  const FlowSession session(w);
  ASSERT_TRUE(session.ok());
  FlowResult r;
  ASSERT_NO_THROW(r = session.run(FlowOptions{}));
  EXPECT_FALSE(r.success);
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics.back().stage, "microarch");
  EXPECT_EQ(r.diagnostics.back().code, "nested-loop");
  EXPECT_EQ(r.sched.passes, 0);

  // The inner loop alone is straight-line and schedules.
  w.loop = parsed.loops.back();
  const FlowResult inner = FlowSession(std::move(w)).run(FlowOptions{});
  EXPECT_TRUE(inner.success) << inner.failure_reason;
}

TEST(FlowSession, MissingLoopIsACompileDiagnostic) {
  workloads::Workload w = workloads::make_fir(4);
  w.loop = ir::kNoStmt;
  const FlowSession session(std::move(w));
  EXPECT_FALSE(session.ok());
  auto r = session.run(FlowOptions{});
  EXPECT_FALSE(r.success);
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_EQ(r.diagnostics.front().stage, "compile");
  EXPECT_EQ(r.diagnostics.front().code, "no-loop");
}

// ---- Backend plumbing ------------------------------------------------------

TEST(FlowBackend, OptionReachesResultReportAndJson) {
  const FlowSession session(workloads::make_idct8());
  FlowOptions o;
  o.backend = sched::BackendKind::kSdc;
  auto r = session.run(o);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.sched.backend, sched::BackendKind::kSdc);
  EXPECT_NE(render_report(r).find("backend: sdc"), std::string::npos);
  EXPECT_NE(render_json(r).find("\"backend\":\"sdc\""), std::string::npos);

  auto rl = session.run(FlowOptions{});  // default stays the list backend
  ASSERT_TRUE(rl.success);
  EXPECT_EQ(rl.sched.backend, sched::BackendKind::kList);
  EXPECT_NE(render_json(rl).find("\"backend\":\"list\""), std::string::npos);
  // Same constraints, same headline outcome (schedules may differ).
  EXPECT_EQ(r.sched.schedule.num_steps, rl.sched.schedule.num_steps);
}

TEST(FlowBackend, ExploreSweepsBackendsInOneGrid) {
  const FlowSession session(workloads::make_fir(8));
  std::vector<ExploreConfig> grid = {
      {"list", 1600, 0, 0}, {"sdc", 1600, 0, 0}, {"sdc-pipe", 1600, 0, 2},
  };
  grid[1].backend = sched::BackendKind::kSdc;
  grid[2].backend = sched::BackendKind::kSdc;
  const auto pts = explore(session, grid, ExploreOptions{});
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].backend, "list");
  EXPECT_EQ(pts[1].backend, "sdc");
  EXPECT_EQ(pts[2].backend, "sdc");
  EXPECT_EQ(pts[0].feasible, pts[1].feasible);
  EXPECT_EQ(pts[0].latency, pts[1].latency);
}

TEST(FlowBackend, AutoReportsResolvedBackendInReportAndJson) {
  const FlowSession session(workloads::make_idct8());
  FlowOptions o;
  o.backend = sched::BackendKind::kAuto;
  auto r = session.run(o);
  ASSERT_TRUE(r.success) << r.failure_reason;
  // IDCT is feed-forward: kAuto resolves to the list backend, and every
  // report carries the resolved kind, never "auto".
  EXPECT_EQ(r.sched.backend, sched::BackendKind::kList);
  EXPECT_NE(render_report(r).find("backend: list"), std::string::npos);
  EXPECT_EQ(render_json(r).find("\"backend\":\"auto\""), std::string::npos);
}

// ---- Warm-start plumbing ----------------------------------------------------

// FlowOptions::warm_start reaches the scheduler, and warm/cold runs stay
// byte-identical at the flow level for both backends (the bit-level A/B
// lives in sched_golden_test; this pins the core-layer plumbing). The one
// report figure allowed to differ is the "timing queries" work counter,
// which warm passes must lower: idct8 at II=8 relaxes mostly by added
// states, whose passes replay their predecessor's prefix.
TEST(FlowBackend, WarmStartToggleKeepsResultsIdentical) {
  const auto without_query_count = [](std::string s) {
    return std::regex_replace(s, std::regex("timing queries: [0-9]+"),
                              "timing queries: -");
  };
  const FlowSession session(workloads::make_idct8());
  for (const auto backend :
       {sched::BackendKind::kList, sched::BackendKind::kSdc}) {
    FlowOptions warm;
    warm.backend = backend;
    warm.pipeline_ii = 8;
    FlowOptions cold = warm;
    cold.warm_start = false;
    auto rw = session.run(warm);
    auto rc = session.run(cold);
    ASSERT_EQ(rw.success, rc.success) << sched::backend_name(backend);
    EXPECT_EQ(without_query_count(fingerprint(rw)),
              without_query_count(fingerprint(rc)))
        << sched::backend_name(backend);
    EXPECT_EQ(rw.sched.passes, rc.sched.passes)
        << sched::backend_name(backend);
    EXPECT_LT(rw.sched.timing_queries, rc.sched.timing_queries)
        << sched::backend_name(backend);
  }
}

// Warm passes report their frontier and how many recorded decisions they
// replayed (PassRecord, render_json "warm_starts"); cold runs report none.
TEST(FlowBackend, WarmPassesReportTheirReplayPerPass) {
  const FlowSession session(workloads::make_idct8());
  FlowOptions warm;
  warm.pipeline_ii = 8;
  FlowOptions cold = warm;
  cold.warm_start = false;
  const auto rw = session.run(warm);
  const auto rc = session.run(cold);
  ASSERT_TRUE(rw.success) << rw.failure_reason;
  int warm_passes = 0;
  for (const auto& rec : rw.sched.history) {
    EXPECT_LE(rec.replayed_events, rec.trace_events) << rec.pass_number;
    if (rec.warm_frontier == 0) {
      EXPECT_EQ(rec.replayed_events, 0u) << rec.pass_number;
      continue;
    }
    ++warm_passes;
    EXPECT_LE(rec.warm_frontier, rec.num_steps) << rec.pass_number;
  }
  EXPECT_GT(warm_passes, 0);
  for (const auto& rec : rc.sched.history) {
    EXPECT_EQ(rec.warm_frontier, 0) << rec.pass_number;
  }
  EXPECT_NE(render_json(rw).find("\"warm_starts\":[{\"pass\":"),
            std::string::npos);
  EXPECT_EQ(render_json(rc).find("\"warm_starts\""), std::string::npos);
}

// ---- Parallel exploration --------------------------------------------------

// Identical up to wall-clock noise: every deterministic field must match.
void expect_points_equal(const std::vector<ExplorePoint>& a,
                         const std::vector<ExplorePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].curve, b[i].curve) << i;
    EXPECT_EQ(a[i].tclk_ps, b[i].tclk_ps) << i;
    EXPECT_EQ(a[i].latency, b[i].latency) << i;
    EXPECT_EQ(a[i].pipelined, b[i].pipelined) << i;
    EXPECT_EQ(a[i].feasible, b[i].feasible) << i;
    EXPECT_EQ(a[i].delay_ns, b[i].delay_ns) << i;
    EXPECT_EQ(a[i].area, b[i].area) << i;
    EXPECT_EQ(a[i].power_mw, b[i].power_mw) << i;
    EXPECT_EQ(a[i].passes, b[i].passes) << i;
    EXPECT_EQ(a[i].relaxations, b[i].relaxations) << i;
    EXPECT_EQ(a[i].backend, b[i].backend) << i;
    EXPECT_EQ(a[i].failure, b[i].failure) << i;
  }
}

TEST(Explore, ThreadedRunMatchesSerialRun) {
  const FlowSession session(workloads::make_idct8());
  const std::vector<ExploreConfig> grid = {
      {"seq8", 1600, 8, 0},    {"seq16", 1600, 16, 0},
      {"seq16", 2200, 16, 0},  {"pipe16", 1600, 16, 8},
      {"pipe32", 1600, 32, 16}, {"pipe32", 2200, 32, 16},
      {"too-fast", 700, 16, 0},
  };
  ExploreOptions serial;
  serial.threads = 1;
  const auto pts1 = explore(session, grid, serial);

  ExploreOptions threaded;
  threaded.threads = 4;
  const auto ptsN = explore(session, grid, threaded);

  expect_points_equal(pts1, ptsN);

  ExploreOptions negative;  // clamped to serial, not all-cores
  negative.threads = -3;
  expect_points_equal(pts1, explore(session, grid, negative));
  // Spot-check content: feasible points carry profiling fields.
  ASSERT_EQ(pts1.size(), grid.size());
  EXPECT_TRUE(pts1[0].feasible);
  EXPECT_GT(pts1[0].passes, 0);
  EXPECT_GT(pts1[0].sched_seconds, 0.0);
  EXPECT_FALSE(pts1[6].feasible);
  EXPECT_FALSE(pts1[6].failure.empty());
}

TEST(Explore, ProgressCallbackSeesEveryConfiguration) {
  const FlowSession session(workloads::make_fir(4));
  const std::vector<ExploreConfig> grid = {
      {"a", 1600, 0, 0}, {"b", 1800, 0, 0}, {"c", 2000, 0, 2},
      {"bad", -5, 0, 0},
  };
  std::atomic<int> calls{0};
  std::size_t max_completed = 0;
  ExploreOptions opts;
  opts.threads = 2;
  opts.progress = [&](const ExplorePoint& p, std::size_t completed,
                      std::size_t total) {
    ++calls;
    EXPECT_EQ(total, grid.size());
    EXPECT_GE(completed, 1u);
    EXPECT_LE(completed, total);
    EXPECT_FALSE(p.curve.empty());
    max_completed = std::max(max_completed, completed);
  };
  const auto pts = explore(session, grid, opts);
  EXPECT_EQ(calls.load(), static_cast<int>(grid.size()));
  EXPECT_EQ(max_completed, grid.size());
  // The malformed configuration surfaced as a structured infeasibility.
  EXPECT_FALSE(pts[3].feasible);
  EXPECT_FALSE(pts[3].failure.empty());
}

TEST(Explore, LegacyFactoryOverloadStillWorks) {
  const std::vector<ExploreConfig> grid = {{"seq", 1600, 0, 0}};
  const auto pts = explore([] { return workloads::make_fir(4); }, grid);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_TRUE(pts[0].feasible);
}

}  // namespace
}  // namespace hls::core
