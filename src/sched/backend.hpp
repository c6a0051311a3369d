// The pluggable scheduler-backend interface.
//
// `schedule_region` (driver.cpp) owns everything both algorithms share:
// Problem construction, the recurrence bound, the expert relaxation loop
// (expert.cpp), pass records and the final schedule check. What varies is
// how one constrained scheduling *attempt* over the current Problem is
// made. A backend is constructed once per schedule_region call from the
// Problem and the SchedulerOptions (so it can cache pass-invariant
// structure — dependence graphs, constraint edges), and its `run_pass` is
// invoked once per pass against the expert-mutated Problem, producing the
// same PassOutcome shape (partial schedule + restraints) the expert
// consumes. The driver turns the pass sequence into a SchedulerResult
// with placements, arrivals and per-pass records regardless of backend.
//
// Backends:
//  * ListScheduler (backend.cpp) — the paper's timing-driven list
//    scheduling pass (pass_scheduler.cpp); supports warm starts.
//  * SdcScheduler (sdc_scheduler.hpp) — difference-constraint
//    formulation solved by an incremental longest-path core; also
//    warm-startable.
// Both drive the shared sched::BindingEngine (binder.hpp) for
// legalization, so restraints and binding semantics are structurally
// identical. BackendKind::kAuto defers the choice to resolve_backend,
// a deterministic per-problem heuristic.
#pragma once

#include <memory>

#include "sched/driver.hpp"

namespace hls::sched {

class SchedulerBackend {
 public:
  SchedulerBackend(const Problem& problem, const SchedulerOptions& options)
      : problem_(problem), options_(options) {}
  virtual ~SchedulerBackend() = default;

  SchedulerBackend(const SchedulerBackend&) = delete;
  SchedulerBackend& operator=(const SchedulerBackend&) = delete;

  virtual BackendKind kind() const = 0;
  const char* name() const { return backend_name(kind()); }

  /// True when the backend can replay a prior pass's decision trace from
  /// an invalidation frontier. The driver only computes frontiers (and
  /// passes a WarmStart) for backends that opt in.
  virtual bool warm_startable() const { return false; }

  /// One constrained scheduling attempt over the (expert-mutated)
  /// Problem. Must not mutate the Problem; failures are reported as
  /// restraints in the outcome, successes as a complete schedule.
  virtual PassOutcome run_pass(timing::TimingEngine& eng,
                               const WarmStart* warm) = 0;

 protected:
  const Problem& problem_;
  const SchedulerOptions& options_;
};

/// Resolves `options.backend` to a concrete backend kind (never kAuto).
/// Deterministic: a pure function of the problem shape and options, so
/// repeated calls — and re-runs of the same configuration — always pick
/// the same backend. The kAuto rule consults the fitted cost model
/// (core/cost_model.hpp): list unless the problem is a pipelined
/// recurrence whose predicted SDC per-pass cost stays within the fitted
/// affordability bound of list's. Coefficients are fitted offline by
/// bench/fit_cost_model.py from BENCH_scheduler.json /
/// BENCH_explore.json (docs/SCHEDULER.md).
BackendKind resolve_backend(const Problem& problem,
                            const SchedulerOptions& options);

/// Constructs the backend selected by `options.backend` (kAuto resolved
/// via resolve_backend). The Problem and options must outlive the
/// returned backend.
std::unique_ptr<SchedulerBackend> make_backend(const Problem& problem,
                                               const SchedulerOptions& options);

/// Pure II-feasibility probe (no binding, no timing queries): propagates
/// the release bounds through the difference-constraint system at
/// candidate `ii` — dependences, port write order, and the star-encoded
/// II windows — and reports false when any op's start bound saturates at
/// `max_states` (equivalently: the system has a positive cycle at this
/// II, or a bound exceeds every state count the expert could ever reach).
/// Sound: a probe-infeasible II can never be scheduled by a full solve,
/// on either backend, because every constraint here is one the solve must
/// also satisfy and resources/timing only tighten it further. Monotone in
/// `ii` (larger II weakens every window edge), which is what makes
/// min_feasible_ii a binary search. Implemented in sdc_scheduler.cpp next
/// to the constraint-edge builder it shares with the SDC backend.
bool ii_probe_feasible(const Problem& problem, const DependenceGraph& dg,
                       int ii, int max_states);

/// Smallest probe-feasible II in [lo, hi] (binary search over the
/// monotone probe; per-candidate max_states is
/// max(latency_max, candidate + 1), mirroring the driver's pipelined
/// latency bound). Returns -1 when even `hi` is infeasible. Also enforces
/// the recurrence bound: candidates below any SCC's scc_min_states are
/// infeasible by definition.
int min_feasible_ii(const Problem& problem, const DependenceGraph& dg,
                    int lo, int hi, int latency_max);

}  // namespace hls::sched
