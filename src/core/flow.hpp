// The end-to-end HLS flow (paper Figure 2): optimizer → micro-architecture
// (pipelining directive) → simultaneous scheduling and binding → output
// generation (RTL model + Verilog) → synthesis estimates.
//
// Two entry points:
//  * `core::FlowSession` (session.hpp) — the staged, reusable API: compile
//    a workload once, then run many micro-architecture configurations
//    against the immutable compiled module (possibly concurrently).
//  * `core::run_flow` — the one-shot facade, now a thin wrapper over a
//    single-use FlowSession:
//
//   core::FlowOptions opts;
//   opts.tclk_ps = 1600;
//   opts.pipeline_ii = 2;                  // 0 = sequential
//   auto result = core::run_flow(workloads::make_idct8(), opts);
//   std::cout << result.sched.schedule.to_table(result.module->thread.dfg);
#pragma once

#include <chrono>
#include <memory>

#include "rtl/sim.hpp"
#include "rtl/verilog.hpp"
#include "sched/driver.hpp"
#include "support/diagnostics.hpp"
#include "synth/power.hpp"
#include "synth/recovery.hpp"
#include "workloads/workloads.hpp"

namespace hls::core {

struct FlowOptions {
  double tclk_ps = 1600;
  const tech::Library* lib = nullptr;  ///< defaults to artisan90
  /// Scheduling backend (list, SDC, or kAuto to let the scheduler pick
  /// per problem; see sched/backend.hpp). Reports — render_report,
  /// render_json, ExplorePoint — always carry the resolved backend.
  sched::BackendKind backend = sched::BackendKind::kList;
  /// 0 = sequential micro-architecture; >0 = pipeline with this II.
  int pipeline_ii = 0;
  /// Solve for the minimum feasible initiation interval instead of
  /// taking pipeline_ii as given (sched::SchedulerOptions::solve_min_ii).
  /// Implies a pipelined micro-architecture; pipeline_ii > 0 then acts
  /// as the search floor (0 floors the search at II=1). The solved II is
  /// reported as FlowResult::sched.min_ii and in render_report /
  /// render_json ("min_ii"); no feasible II fails the schedule stage
  /// with code "no_feasible_ii".
  bool solve_min_ii = false;
  /// Override the loop's latency bound (0 keeps the designer's bound).
  int latency_min = 0;
  int latency_max = 0;
  bool run_optimizer = true;
  /// Paper feature switches, forwarded to the scheduler.
  bool enable_chaining = true;
  bool enable_move_scc = true;
  bool avoid_comb_cycles = true;
  bool use_mutual_exclusivity = true;
  bool allow_accept_slack = true;
  /// Honor the workload's mem::MemorySpec (banked arrays, port counts,
  /// I/O timing windows; docs/MEMORY.md). Off = schedule as if the spec
  /// were empty — the memory-blind baseline for A/B comparisons.
  bool memory_aware = true;
  /// Warm-start relaxation passes from the prior pass's decision trace
  /// (both backends; bit-identical results either way). Exposed here so
  /// warm/cold A/B comparisons can run at the flow/explore level.
  bool warm_start = true;
  /// Emit Verilog text into the result (costs a little time).
  bool emit_verilog = true;

  /// Deterministic work-unit budget for the scheduling stage
  /// (support/budget.hpp): pass/commit/relaxation-step limits checked at
  /// pass boundaries, plus the opt-in advisory wall-clock deadline.
  /// Exhaustion fails the run with a "schedule" diagnostic whose code is
  /// "pass_budget_exhausted" / "budget_exhausted" / "deadline_exceeded".
  support::BudgetLimits budget;
  /// Cooperative cancellation, observed at scheduling pass boundaries
  /// (diagnostic code "cancelled"). The pointee must outlive the run.
  const support::StopSource* stop = nullptr;

  /// Cross-run scheduling seed (sched::ScheduleSeed) from a finished run
  /// of the SAME module under the SAME configuration — the serve layer's
  /// trace cache feeds this. Such a seed replays bit-exact in one pass;
  /// any other seed is ignored and the run solves cold, so seeding never
  /// changes the result (SchedulerResult::seed_use reports what
  /// happened). The pointee must outlive the run.
  const sched::ScheduleSeed* seed = nullptr;
  /// Record a ScheduleSeed into SchedulerResult::seed_out on success.
  bool record_seed = false;
};

/// Checks a FlowOptions for values that would cause undefined behavior
/// downstream (non-positive clock, negative II, inverted latency bound).
/// Returns the problems as structured diagnostics with stage "options";
/// an empty vector means the options are well-formed.
std::vector<Diagnostic> validate_flow_options(const FlowOptions& options);

/// Wall-clock seconds per flow stage. `compile_seconds` covers the
/// session-level front end (optimize + predicate), which is paid once per
/// FlowSession and therefore amortized across its runs.
struct StageTimings {
  double compile_seconds = 0;
  double microarch_seconds = 0;
  double sched_seconds = 0;
  double rtl_seconds = 0;
  double synth_seconds = 0;
};

struct FlowResult {
  bool success = false;
  /// Human-readable summary of `diagnostics` (kept for existing callers;
  /// empty on success).
  std::string failure_reason;
  /// Structured failure/warning records: each names the stage that
  /// produced it ("options", "compile", "schedule", ...) and a stable
  /// machine-readable code.
  std::vector<Diagnostic> diagnostics;
  /// The transformed module (owned; machine and reports reference it).
  std::unique_ptr<ir::Module> module;
  ir::StmtId loop = ir::kNoStmt;
  sched::SchedulerResult sched;
  rtl::ModuleMachine machine;
  synth::AreaReport area;
  synth::PowerReport power;
  std::string verilog;
  StageTimings timings;  ///< per-stage wall-clock breakdown (Figure 9)

  /// Delay in ns per iteration: II × Tclk (the paper's Figures 10-11 x
  /// axis: "the delay is actually the inverse of the throughput").
  double delay_ns = 0;
};

/// One-shot convenience: compiles `workload` into a single-use session and
/// runs it once. Prefer FlowSession when running several configurations of
/// the same workload.
FlowResult run_flow(workloads::Workload workload, const FlowOptions& options);

}  // namespace hls::core
