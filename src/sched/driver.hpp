// The iterative scheduling driver: runs constrained scheduling passes and
// expert relaxations until the region schedules (paper Section IV: "we
// perform iterative simultaneous scheduling and binding passes. ... If a
// scheduling pass fails, an internal expert system is called to choose an
// action to relax some of the constraints").
#pragma once

#include <string>
#include <vector>

#include "sched/expert.hpp"
#include "support/budget.hpp"

namespace hls::sched {

/// Which scheduling algorithm runs inside the pass/relaxation loop. Both
/// backends share the Problem construction, the expert system, the
/// BindingEngine legalization machinery and the result/report shapes (see
/// backend.hpp for the interface contract).
enum class BackendKind : std::uint8_t {
  kList,  ///< the paper's timing-driven list scheduler (default)
  kSdc,   ///< difference-constraint core + shared binding engine
  kAuto,  ///< resolve_backend picks list or SDC per problem
};

/// Stable lowercase name ("list" / "sdc" / "auto") for reports and JSON.
const char* backend_name(BackendKind kind);

/// A finished run's transferable scheduling state, recorded when
/// SchedulerOptions::record_seed is on and replayed into a later run via
/// SchedulerOptions::seed. Only an exact-configuration seed is used: the
/// donor ran the *same* module under the *same* configuration (tclk, II,
/// latency, backend, feature switches). The recorded relaxations are
/// re-applied up front and the final pass replays in full through the
/// warm-start path, so the run completes in one pass with near-zero timing
/// queries — bit-exact by the warm ≡ cold guarantee. A seed from any other
/// clock period cannot skip passes: every expert decision depends on the
/// previous pass's restraint set, which depends on the clock period
/// (docs/SCHEDULER.md, "Cross-run seeding").
struct ScheduleSeed {
  // Donor configuration, checked by the compatibility rules.
  double tclk_ps = 0;
  int num_steps = 0;  ///< donor's final LI
  bool pipelined = false;
  int ii = 0;
  BackendKind backend = BackendKind::kList;  ///< donor's *resolved* backend
  /// Relaxations the donor's expert walk applied, in application order.
  std::vector<Action> actions;
  /// Decision trace of the donor's final (successful) pass; replayed in
  /// full on an exact configuration match.
  PassTrace final_trace;
};

/// How a run used (or ignored) SchedulerOptions::seed.
enum class SeedUse : std::uint8_t {
  kNone,    ///< no seed offered
  kReplay,  ///< exact-config seed: final pass replayed wholesale
  kMiss,    ///< seed incompatible or its replay failed; solved cold
};
const char* seed_use_name(SeedUse use);

struct SchedulerOptions {
  double tclk_ps = 1600;
  const tech::Library* lib = nullptr;  ///< defaults to artisan90
  PipelineConfig pipeline;
  bool anchor_io = false;

  /// Scheduling algorithm run inside the relaxation loop. kAuto resolves
  /// to list or SDC per problem (resolve_backend, backend.hpp); the
  /// resolved choice is what SchedulerResult::backend reports.
  BackendKind backend = BackendKind::kList;

  /// Aggregate hopeless passes: when the current resource counts provably
  /// leave at least this many ops without an instance slot, the driver
  /// fast-forwards the state count in one action instead of running a
  /// pass that itemizes ~n per-op restraints (and then renders and ranks
  /// all of them). Small designs never reach the cap, keeping the paper's
  /// restraint-by-restraint narrative; 0 disables the cap entirely.
  int restraint_volume_cap = 256;

  // Feature switches (for the paper's ablations).
  bool enable_chaining = true;
  bool avoid_comb_cycles = true;
  bool enable_move_scc = true;      ///< Table 4 ablation
  bool use_mutual_exclusivity = true;
  bool allow_accept_slack = true;
  /// Re-enter relaxation passes from the prior pass's decision trace,
  /// re-solving only from the invalidation frontier onward (both
  /// backends; SDC replay also re-derives its solved constraint bounds
  /// for the prefix). Results are bit-identical to cold passes (golden
  /// suite enforced); disable to force cold passes, e.g. for A/B
  /// determinism checks.
  bool warm_start = true;

  int max_passes = 128;

  /// Deterministic work-unit budget for the run (support/budget.hpp):
  /// pass, engine-commit and relaxation-step limits checked at pass
  /// boundaries, plus the opt-in advisory wall-clock deadline. A
  /// tighter budget.max_passes lowers max_passes; exhaustion surfaces as
  /// failure_code "pass_budget_exhausted" / "budget_exhausted".
  support::BudgetLimits budget;
  /// Cooperative cancellation, observed at pass boundaries (failure_code
  /// "cancelled"). The pointee must outlive the run; nullptr = never.
  const support::StopSource* stop = nullptr;

  /// Memory constraint family (banked arrays, port counts, I/O timing
  /// windows; see mem/memory.hpp and docs/MEMORY.md). nullptr = no memory
  /// constraints; scheduling is bit-exact with and without an empty spec.
  /// The pointee must outlive the run.
  const mem::MemorySpec* memory = nullptr;

  /// Cross-run seed (see ScheduleSeed). Must describe the same module;
  /// a seed from any other configuration is ignored and reported as
  /// SeedUse::kMiss.
  const ScheduleSeed* seed = nullptr;
  /// Record a ScheduleSeed for this run into SchedulerResult::seed_out on
  /// success (costs one trace copy per run; off by default).
  bool record_seed = false;

  /// Solve for the minimum initiation interval instead of taking
  /// pipeline.ii as given (pipelined regions only; ignored otherwise).
  /// The driver probes II feasibility against the star-encoded
  /// difference-constraint system (ii_probe_feasible, backend.hpp) with a
  /// binary search starting at max(1, pipeline.ii), then runs full solves
  /// upward from the smallest probe-feasible candidate until one
  /// schedules; SchedulerResult::min_ii reports the solved II. Budget
  /// limits apply to each candidate attempt; timing_queries,
  /// engine_commits and relax_steps accumulate across attempts. No
  /// candidate feasible up to latency.max fails with failure_code
  /// "no_feasible_ii".
  bool solve_min_ii = false;

  /// Use the legacy O(n^2) pairwise II-window encoding in the SDC backend
  /// instead of the per-SCC anchor star. Schedules are bit-identical
  /// across encodings (golden-suite enforced); this switch exists for
  /// that A/B and as a reference implementation, not for production use.
  bool sdc_pairwise_ii = false;
};

struct PassRecord {
  int pass_number = 0;
  int num_steps = 0;
  bool success = false;
  std::vector<std::string> restraints;  ///< rendered for reporting
  std::string action;                   ///< relaxation taken (if any)
  /// True when `action` is a relaxation that was actually applied (false
  /// for the terminal "no applicable relaxation" narration).
  bool relaxed = false;

  /// Constraint-system statistics (SDC backend; 0 for list passes).
  /// `constraint_edges` is the static edge count of the pass's difference
  /// constraint system — the figure the star encoding collapses from
  /// O(n^2) to O(n) per SCC — and `propagation_relaxations` is the
  /// Bellman-Ford edge-relaxation count the pass spent reaching its
  /// fixpoints. Emitted by render_json ("constraint_stats") so encoding
  /// regressions show up in bench artifacts, not only as wall-clock.
  std::uint64_t constraint_edges = 0;
  std::uint64_t propagation_relaxations = 0;

  /// Warm-start accounting (both backends): the step the pass replayed
  /// its predecessor's decisions up to (0 = cold pass), how many recorded
  /// decisions it replayed, and how many its own trace holds. Emitted by
  /// render_json ("warm_starts").
  int warm_frontier = 0;
  std::uint64_t replayed_events = 0;
  std::uint64_t trace_events = 0;
};

struct SchedulerResult {
  bool success = false;
  Schedule schedule;
  /// The backend that produced (or failed to produce) the schedule: the
  /// *resolved* backend, never kAuto — a kAuto request reports the
  /// concrete choice resolve_backend made for this problem.
  BackendKind backend = BackendKind::kList;
  int passes = 0;
  std::vector<PassRecord> history;
  std::uint64_t timing_queries = 0;
  std::string failure_reason;  ///< set when success == false
  /// Stable machine-readable failure classification, empty on success and
  /// for ordinary infeasibility (the flow layer maps empty to
  /// "infeasible"). Budget/cancellation codes: "pass_budget_exhausted",
  /// "budget_exhausted", "cancelled", "deadline_exceeded".
  std::string failure_code;

  /// Work-unit spend of the whole run (seed-replay attempts included):
  /// BindingEngine commits and SDC Bellman-Ford relaxation steps — what
  /// SchedulerOptions::budget meters.
  std::uint64_t engine_commits = 0;
  std::uint64_t relax_steps = 0;

  /// How the offered seed was used (kNone when none was offered).
  SeedUse seed_use = SeedUse::kNone;
  /// Recorded transferable state (only when options.record_seed and the
  /// run succeeded); what the serve layer's trace cache stores.
  ScheduleSeed seed_out;

  /// Memory-family restraints (bank-conflict / port-pressure /
  /// window-miss) recorded across all passes; reported by render_report /
  /// render_json / ExplorePoint so memory-bound convergence is observable.
  int memory_restraints = 0;

  /// Solved minimum initiation interval (options.solve_min_ii runs only):
  /// the smallest II at which the region scheduled, also written into
  /// schedule.pipeline.ii. 0 when min-II solving was off.
  int min_ii = 0;

  /// Number of relaxation actions applied across all passes (Figure 9's
  /// driver of scheduling time, alongside the pass count).
  int relaxations() const;
};

/// Schedules a linearized region under its latency bound.
SchedulerResult schedule_region(const ir::Dfg& dfg,
                                const ir::LinearRegion& region,
                                ir::LatencyBound latency,
                                std::size_t num_ports,
                                const SchedulerOptions& options);

}  // namespace hls::sched
