// Design-space exploration (paper Section VI, Figures 10-11): sweep
// micro-architectures (sequential / pipelined x latency x clock) and
// collect (delay, area, power) points per curve.
//
// The engine is batched: the workload is compiled once into a FlowSession
// and the configurations fan out across a worker pool. The returned point
// vector is ordered like `configs`, and every result field except the
// wall-clock `sched_seconds` is identical regardless of the thread count
// (every run schedules the same immutable compiled module).
//
// Model-guided mode (ExploreOptions::guided / ::prune, docs/EXPLORE.md):
// configurations that differ only in clock period form a *chain*; chains
// become the parallel work units, dispatched longest-predicted-first
// (core/cost_model.hpp) for makespan, and each chain runs serially from
// its loosest clock down. With `prune`, a provable infeasibility part-way
// down a chain skips every strictly tighter clock on that chain —
// reported as synthetic `[explore/dominated]` points without running.
// Either way the engine stays deterministic at every thread count, and
// every point it does run is field-identical to the exhaustive engine's
// except the wall-clock `sched_seconds`.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/session.hpp"

namespace hls::core {

struct ExplorePoint {
  std::string curve;    ///< e.g. "Pipelined 32", "Non-Pipelined 16"
  double tclk_ps = 0;
  int latency = 0;      ///< LI of the configuration
  bool pipelined = false;
  /// Solved minimum II when the config asked for min-II solving
  /// (ExploreConfig::solve_min_ii) and the schedule stage was reached;
  /// 0 otherwise.
  int min_ii = 0;
  double delay_ns = 0;  ///< II x Tclk (inverse throughput)
  double area = 0;
  double power_mw = 0;
  bool feasible = false;
  /// Why the configuration is infeasible; empty when feasible. Prefixed
  /// with the failing diagnostic's structured coordinates —
  /// "[stage/code] message" — so grid consumers can classify failures
  /// (options vs compile vs schedule) without parsing the free-form text.
  std::string failure;
  /// True when the run was cut short cooperatively rather than proven
  /// infeasible: a stop request ("cancelled") or the serve layer skipping
  /// the point before dispatch. Always paired with feasible == false.
  bool cancelled = false;

  // Figure 9-style profiling of the run that produced the point.
  double sched_seconds = 0;  ///< wall-clock scheduling time
  int passes = 0;            ///< scheduling passes taken
  int relaxations = 0;       ///< expert relaxation actions applied
  /// Which scheduler backend produced the point ("list" / "sdc"). A
  /// kAuto config reports the backend the scheduler resolved to; only a
  /// run that failed before scheduling keeps "auto".
  std::string backend;
  /// How the run used a cross-run scheduling seed, when one was offered
  /// through RunPointExtras ("none" / "replay" / "miss"; see
  /// sched::SeedUse). explore() never offers one, so its points report
  /// "none".
  std::string seed_use = "none";

  /// Constraint-system totals across the run's scheduling passes (SDC
  /// backend; 0 for list runs): static difference-constraint edges and
  /// Bellman-Ford edge relaxations (PassRecord::constraint_edges /
  /// ::propagation_relaxations summed over the pass history). Surfaced
  /// per point so grid-level encoding regressions are visible in
  /// BENCH_explore.json, not only as wall-clock.
  std::uint64_t constraint_edges = 0;
  std::uint64_t propagation_relaxations = 0;

  // Memory constraint family observability (all 0 for memory-free
  // designs; see mem/memory.hpp and docs/MEMORY.md).
  /// Bank-conflict / port-pressure / window-miss restraints across all
  /// scheduling passes.
  int memory_restraints = 0;
  /// Total banks across the schedule's memory pools, post-relaxation
  /// (re-bank raises this above the spec's starting value).
  int mem_banks = 0;
  /// Total port instances across the memory pools, post-relaxation.
  int mem_ports = 0;
};

struct ExploreConfig {
  std::string curve;
  double tclk_ps = 0;
  int latency = 0;       ///< target LI (used as both min and max bound)
  int pipeline_ii = 0;   ///< 0 = sequential
  /// Solve for the minimum feasible II instead of pinning pipeline_ii
  /// (FlowOptions::solve_min_ii); pipeline_ii then floors the search.
  /// The point reports the solved II in ExplorePoint::min_ii.
  bool solve_min_ii = false;
  /// Scheduler backend for this configuration (backends can be swept
  /// against each other in one grid; kAuto lets the scheduler pick per
  /// problem and the point reports the resolved choice).
  sched::BackendKind backend = sched::BackendKind::kList;
  /// Honor the session workload's mem::MemorySpec (FlowOptions::
  /// memory_aware). Off = memory-blind baseline for the same grid point.
  bool memory_aware = true;
  /// Per-point work-unit budget (FlowOptions::budget). Deterministic:
  /// a budget-exhausted point is identical at every thread count.
  support::BudgetLimits budget = {};
};

struct ExploreOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(), 1 = run
  /// serially on the calling thread (negative values are treated as 1).
  /// The point vector is deterministic and ordered either way.
  int threads = 1;
  /// Invoked once per finished configuration, serialized under a lock (a
  /// streaming/serving caller can print or publish from it). `completed`
  /// counts finished configurations so far (1..total); completion order
  /// may differ from config order when threads > 1.
  std::function<void(const ExplorePoint& point, std::size_t completed,
                     std::size_t total)>
      progress;

  /// Model-guided execution: run the grid as clock-ladder chains
  /// (explore_chain_key) dispatched longest-predicted-first
  /// (predicted_config_cost_ns), each chain serially loosest-clock-first.
  /// Points the engine runs are field-identical to the exhaustive
  /// engine's except wall-clock; the result vector stays ordered like
  /// `configs`.
  bool guided = false;
  /// Infeasibility-dominance pruning (implies the guided chain engine):
  /// once a chain point fails with a *provable* schedule-stage code
  /// (proves_infeasibility), every strictly tighter clock on that chain
  /// is reported as a synthetic `[explore/dominated]` point without
  /// running. Sound because feasibility is monotone in the clock period
  /// along a chain: a schedule found at a tight clock is valid verbatim
  /// at a looser one (chaining slack only grows), and the deterministic
  /// relaxation ladder preserves that monotonicity (test-enforced).
  /// Budget/cancellation failures are not proofs and never prune.
  bool prune = false;
};

/// Seed plumbing for run_point: lets a serving layer replay the
/// sched::ScheduleSeed of an earlier run of the SAME configuration, and
/// capture the run's own seed for later reuse. A seed never changes the
/// schedule: an exact-config seed replays the identical final pass (only
/// the pass count drops), and any other seed is ignored (the run solves
/// cold and reports seed_use "miss").
struct RunPointExtras {
  /// Seed to offer the scheduler (must describe the same module; the
  /// pointee must outlive the call). nullptr = cold.
  const sched::ScheduleSeed* seed = nullptr;
  /// Record this run's transferable state into `seed_out`.
  bool record_seed = false;
  /// Filled when record_seed is set and the run succeeded.
  sched::ScheduleSeed seed_out;
  bool seed_recorded = false;
  /// Cooperative cancellation for the run (FlowOptions::stop); observed
  /// at scheduling pass boundaries. The pointee must outlive the call.
  const support::StopSource* stop = nullptr;
};

/// Runs ONE configuration against `session`'s compiled module — the same
/// routine explore() fans out over its worker pool, exposed for callers
/// (e.g. the serve layer) that manage their own pools and want seed
/// plumbing. Thread-safe for concurrent calls on one session.
ExplorePoint run_point(const FlowSession& session, const ExploreConfig& cfg,
                       RunPointExtras* extras = nullptr);

/// Runs one flow per configuration against `session`'s compiled module,
/// fanning out across `options.threads` workers.
std::vector<ExplorePoint> explore(const FlowSession& session,
                                  const std::vector<ExploreConfig>& configs,
                                  const ExploreOptions& options = {});

/// Convenience overload: compiles `make_workload()` once into a session.
std::vector<ExplorePoint> explore(
    const std::function<workloads::Workload()>& make_workload,
    const std::vector<ExploreConfig>& configs,
    const ExploreOptions& options = {});

/// The paper's IDCT experiment grid: pipelined and non-pipelined
/// micro-architectures with latencies {8, 16, 32}, clock scaled so each
/// curve spans a range of delays (25 configurations).
std::vector<ExploreConfig> idct_paper_grid();

// ---- Model-guided engine building blocks (shared with the serve layer
// ---- and the guided-explore tests/bench).

/// Failure prefix stamped on points skipped by dominance pruning.
inline constexpr char kDominatedPrefix[] = "[explore/dominated]";

/// True when the point's failure is a *proof* of infeasibility for its
/// configuration — a schedule-stage result that cannot change on re-run:
/// the relaxation ladder exhausted every expert action
/// ("[schedule/infeasible]") or min-II search exhausted every candidate
/// ("[schedule/no_feasible_ii]"). Budget, deadline and cancellation
/// failures say the run was cut short, not that the point is infeasible,
/// so they never justify pruning.
bool proves_infeasibility(const ExplorePoint& point);

/// Chain (family) key: every ExploreConfig field EXCEPT the clock
/// period, so configs with equal keys form one clock ladder — the unit
/// of dominance pruning. Pure and deterministic.
std::string explore_chain_key(const ExploreConfig& cfg);

/// Predicted scheduling cost of one configuration in nanoseconds
/// (core/cost_model.hpp), from features available before any run: the
/// session's post-optimizer op count, the config's pipelining, and the
/// memory-pool count when memory-aware. Used to ORDER work (chain
/// dispatch, serve admission) — never to gate or alter results.
double predicted_config_cost_ns(const FlowSession& session,
                                const ExploreConfig& cfg);

/// The guided execution order as a permutation of config indices: chains
/// sorted by predicted cost descending (longest-processing-time-first
/// dispatch), each chain's members loosest clock first (ties by config
/// index). explore(guided) consumes chains directly; the serve layer
/// reorders a job's points with this at admission.
std::vector<std::size_t> guided_order(const FlowSession& session,
                                      const std::vector<ExploreConfig>& configs);

}  // namespace hls::core
