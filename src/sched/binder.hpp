// The shared binding/legalization engine (BindingEngine) plus the pass
// vocabulary both scheduler backends speak: decision traces (PassEvent /
// PassTrace / WarmStart) and pass outcomes (PassOutcome).
//
// Both backends — the paper's timing-driven list scheduler and the SDC
// difference-constraint scheduler — legalize bindings under identical
// rules: the same dependence structure, chaining/slack verdicts,
// exclusivity-aware instance selection, write-port conflict ordering,
// combinational-cycle avoidance, commit/release semantics and restraint
// vocabulary. Until this component existed, `SdcPass` re-implemented the
// list pass's binder machinery line for line and the two stayed
// semantically identical only by convention (enforced by the
// backend-equivalence suite). The BindingEngine turns that convention
// into structure: the machinery exists exactly once, and each backend
// keeps only its solver core — ready-list serving for the list pass, the
// Bellman-Ford difference-constraint propagation for SDC — driving the
// engine through the narrow Host seam below.
//
// The engine is per-pass state (occupancy, placements, restraints are
// torn down between relaxation passes); the DependenceGraph is
// pass-invariant and built once per schedule_region by each backend.
#pragma once

#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "sched/priority.hpp"
#include "sched/problem.hpp"
#include "sched/restraint.hpp"
#include "timing/comb_cycle.hpp"
#include "timing/engine.hpp"

namespace hls::sched {

/// The dependence structure both backends schedule over, built with one
/// set of rules: carried loop-mux edges excluded, constants and
/// out-of-region values come from registers, no-speculate ops additionally
/// wait for their predicate, and consecutive writes to one port carry a
/// pseudo-dependence (ordering, no chaining exception). Static per
/// Problem — only instance counts change between passes — so backends
/// build it once per schedule_region.
struct DependenceGraph {
  std::vector<std::vector<ir::OpId>> deps;   ///< per op, sorted unique
  std::vector<std::vector<ir::OpId>> users;  ///< reverse deps
  std::vector<ir::OpId> port_next;  ///< next write on the same port
  std::vector<int> base_unmet;      ///< deps per op incl. the port pseudo-dep
};

DependenceGraph build_dependence_graph(const Problem& p);

/// One decision a pass took, in decision order. The trace makes warm
/// starts possible: after a relaxation, the next pass replays the prefix
/// of decisions the action provably cannot have changed and only re-runs
/// the binding loops from the invalidation frontier on.
struct PassEvent {
  enum class Kind : std::uint8_t {
    kCommit,      ///< op bound (pool/instance/arrival recorded)
    kDefer,       ///< try_bind failed before the deadline; op retried later
    kFatalBind,   ///< try_bind failed at the deadline (restraints recorded)
    kFatalSweep,  ///< dependences never became ready by the deadline
    kFatalFinal,  ///< left unscheduled after the last state (re-derived,
                  ///< never replayed)
  };
  Kind kind = Kind::kCommit;
  ir::OpId op = ir::kNoOp;
  int step = -1;  ///< decision step (start step for commits)
  int pool = -1;
  int instance = -1;
  int lat = 0;
  double arrival_ps = 0;
  /// kFatal*: the restraints this failure pushed, replayed verbatim.
  std::vector<Restraint> restraints;
};

struct PassTrace {
  static constexpr int kNoSaturation = std::numeric_limits<int>::max();

  std::vector<PassEvent> events;
  /// SDC passes: the first step whose end-of-step bound propagation hit a
  /// saturation cap (0 when the initial solve did). The caps grow with
  /// num_steps, so a pass with more states can derive different bounds
  /// from there on; the AddState frontier stops at it. kNoSaturation for
  /// list passes and for SDC passes that never clamped.
  int first_saturation_step = kNoSaturation;
};

/// Warm-start request: replay `trace` events at steps < `frontier_step`,
/// then schedule normally from the frontier. The caller guarantees (via
/// warm_start_frontier) that the applied relaxation cannot change any
/// decision before the frontier.
struct WarmStart {
  const PassTrace* trace = nullptr;
  int frontier_step = 0;
};

struct PassOutcome {
  bool success = false;
  Schedule schedule;  ///< complete on success; partial placement on failure
  std::vector<Restraint> restraints;
  std::vector<ir::OpId> failed_ops;
  PassTrace trace;  ///< decision log for the next pass's warm start
  /// Work-unit charges for support::Budget accounting (docs/FAULTS.md):
  /// ops committed through the engine this pass (both backends, warm
  /// replays included) and Bellman-Ford edge relaxation steps (SDC
  /// backend only; 0 for the list backend).
  std::uint64_t commits = 0;
  std::uint64_t relax_steps = 0;
  /// Static constraint-edge count of the pass's difference-constraint
  /// system (SDC backend only; 0 for list passes). Surfaced per pass in
  /// PassRecord::constraint_edges.
  std::uint64_t constraint_edges = 0;
  /// Decisions taken from the warm-start trace instead of re-derived
  /// (0 for cold passes); trace.events.size() is the pass's total.
  std::uint64_t replayed_events = 0;
};

/// The shared binder: everything a constrained scheduling attempt needs
/// besides the order in which ops are offered to it. Owns the dense
/// forbidden table and flat occupancy over the ResourceSet's global
/// instance numbering, placements, the combinational-cycle graph, the
/// per-op refusal tallies and the restraint list. `try_bind`/`commit` place
/// ops; `fatal`/`fatal_no_states` aggregate the refusals at the deadline
/// step into the restraint vocabulary the expert system consumes; both
/// backends therefore emit byte-identical restraints for the same
/// refusal history.
class BindingEngine {
 public:
  /// The callback seam to the solver. The engine never touches the
  /// solver's ready structures directly; it reports state changes and the
  /// solver updates its queues (and, for the list backend, its decision
  /// trace) in response.
  class Host {
   public:
    /// `id` was committed starting at step `e` (result step `e + lat`,
    /// placement and occupancy already recorded): remove it from the
    /// ready structures and log the decision if the solver keeps a trace.
    virtual void on_commit(ir::OpId id, int pool, int inst, int e, int lat,
                           double arrival) = 0;
    /// One dependence of `user` was satisfied; the producing result is
    /// usable from `avail_step` on.
    virtual void on_dep_satisfied(ir::OpId user, int avail_step) = 0;

   protected:
    ~Host() = default;
  };

  BindingEngine(const Problem& p, const DependenceGraph& dg,
                timing::TimingEngine& eng, Host& host);

  // ---- Queries the solver loops key their serving order off ---------------
  int latency_of(ir::OpId id) const { return p_->pool_latency(id); }
  /// Latest step at which execution may START (deadline on the result
  /// step minus the unit latency).
  int start_deadline(ir::OpId id) const {
    return p_->deadline(id) - latency_of(id);
  }
  bool scheduled(ir::OpId id) const { return placement_[id].scheduled; }
  bool op_failed(ir::OpId id) const { return failed_[id]; }
  const OpPlacement& placement(ir::OpId id) const { return placement_[id]; }
  std::size_t num_restraints() const { return restraints_.size(); }
  const std::vector<Restraint>& restraints() const { return restraints_; }

  // ---- Binding -------------------------------------------------------------
  /// One binding attempt of `id` starting at step `e`: instance selection
  /// (forbidden table, occupancy with exclusive colocation, comb-cycle
  /// avoidance, timing), write-port conflicts for free ops, SCC window
  /// feasibility. Commits (through `commit`) and returns true on success;
  /// otherwise records the refusal causes for later aggregation.
  bool try_bind(ir::OpId id, int e);
  /// Records the placement, occupancy and chaining edges, notifies the
  /// host, then releases the consumers (`on_dep_satisfied` per user, with
  /// the chaining-aware availability step). Also the warm-start replay
  /// path for recorded commits.
  void commit(ir::OpId id, int pool, int inst, int e, int lat,
              double arrival);

  // ---- Failure bookkeeping -------------------------------------------------
  /// Deadline-step failure: marks the op failed and aggregates its refusal
  /// causes at step `e` into restraints (busy/forbidden counts, best
  /// negative slack with fan-in cone blame, comb cycles, SCC windows).
  void fatal(ir::OpId id, int e);
  /// No-states failure (dependences never became ready / ran out of
  /// states). No-op when the op is already failed.
  void fatal_no_states(ir::OpId id, int e);
  /// Warm-start replay of a recorded fatal: marks the op failed and
  /// re-appends the recorded restraints verbatim.
  void replay_fatal(ir::OpId id, const std::vector<Restraint>& restraints);

  /// Assembles the pass outcome: success flag, schedule shell, restraints
  /// and failed ops moved out; on success runs the final timing pass
  /// (finalize_timing) and demotes the pass to a failure when mux growth
  /// pushed a path over the clock period. The engine is spent afterwards.
  PassOutcome finish();

 private:
  /// Why a particular instance refused a binding.
  enum class RefuseCause : std::uint8_t {
    kBusy,
    kSlack,
    kCycle,
    kForbidden,
    kWindow,
  };

  /// The refusals of one op at its latest refused step, folded as they
  /// arrive; `fatal` only ever reads the deadline step, which is the last
  /// step an op is offered at (both backends walk steps upward).
  struct RefusalTally {
    int step = -1;
    int busy = 0;  ///< kBusy + kForbidden refusals
    int pool = -1;  ///< max pool over the step's refusals
    double best_slack = -1e18;
    bool slack_seen = false;
    bool window_seen = false;
    int cycle_pool = -1;  ///< the step's last kCycle refusal
    int cycle_inst = -1;
  };

  /// A candidate's timing verdict; one per sharing-mux size in a try_bind.
  struct MuxTiming {
    bool ok = false;
    double arrival = 0;
    double slack = 0;
  };

  struct Candidate {
    int instance;
    double arrival;
    double slack;
  };

  int slot_of(int step) const {
    return p_->pipeline.enabled ? step % p_->pipeline.ii : step;
  }
  bool pool_shared(int pool) const {
    return p_->pool_members(pool) >
           p_->resources.pools[static_cast<std::size_t>(pool)].count;
  }

  void build_forbidden();
  bool is_forbidden(ir::OpId id, int pool, int inst) const;

  double operand_arrival(ir::OpId d, int e) const;
  void gather_arrivals(ir::OpId id, int e);
  /// Timing of binding `id` at step `e` onto `inst`. The instance only
  /// matters through its sharing-mux size, so verdicts are memoized per
  /// size for the current try_bind, and the operand arrivals are gathered
  /// on its first miss.
  MuxTiming candidate_timing(ir::OpId id, int e, int pool, int inst, int lat);

  bool bind_free(ir::OpId id, int e);
  bool scc_window_ok(ir::OpId id, int result_step) const;
  /// Busy bits of `pool`'s instances over the slots of a span starting at
  /// `e` (one word per 64 instances): the slot's own bitmap row for
  /// single-cycle spans, else their OR in `busy_scratch_`.
  const std::uint64_t* busy_words(int pool, int e, int lat);
  bool instance_free(ir::OpId id, int pool, int inst, int e, int lat,
                     bool excl_pred_ready) const;
  /// Would chaining any of `chained_from_` into `inst` close a cycle?
  bool creates_comb_cycle(int pool, int inst) const;
  /// Memory pools: may `inst` (bank-major port index) serve this op at
  /// all — right bank, direction-compatible port? Incompatible instances
  /// are skipped silently so busy counts mean "my bank's ports".
  bool memory_instance_ok(ir::OpId id, const alloc::ResourcePool& pool,
                          int inst) const;
  /// Classifies an all-ports-busy failure of a memory op: window closed →
  /// kWindowMiss, another bank had a compatible free port at this step →
  /// kBankConflict, otherwise kPortPressure.
  RestraintKind classify_memory_busy(ir::OpId id, int pool, int e) const;

  /// The op's tally for step `e` (reset when the op moved on to a new
  /// step), with `pool` folded into its max pool.
  RefusalTally& tally_at(ir::OpId id, int e, int pool);
  void note_refusal(ir::OpId id, int e, int pool, int inst, RefuseCause cause,
                    double slack = 0);
  bool depends_on_failure(ir::OpId id) const;

  const Problem* p_;
  const ir::Dfg* dfg_;
  const DependenceGraph* dg_;
  timing::TimingEngine* eng_;
  Host* host_;

  alloc::InstanceNumbering num_;
  int num_slots_ = 1;

  std::vector<OpPlacement> placement_;
  std::vector<bool> failed_;
  std::vector<ir::OpId> failed_list_;
  /// Occupants per global instance * num_slots + slot.
  std::vector<std::vector<ir::OpId>> occ_;
  /// Occupied-instance bitmap per slot: word (slot * busy_words_ +
  /// busy_base_[pool] + i / 64) bit (i % 64) is set when instance i of
  /// the pool has an occupant in that slot.
  std::vector<std::uint64_t> busy_bits_;
  std::vector<int> busy_base_;  ///< first bitmap word per pool
  int busy_words_ = 0;          ///< bitmap words per slot
  std::vector<std::uint64_t> busy_scratch_;
  std::vector<int> inst_ops_;    ///< committed ops per global instance
  std::vector<char> forbidden_;  ///< dense op x instance; empty = none
  timing::PathQuery pq_;  ///< scratch query (arrivals gathered per bind)
  /// Per-try_bind timing memo by mux size, valid where the stamp equals
  /// bind_epoch_ (bumped by every try_bind).
  std::vector<MuxTiming> mux_timings_;
  std::vector<std::uint32_t> mux_stamp_;
  std::uint32_t bind_epoch_ = 0;
  std::uint32_t arrivals_epoch_ = 0;  ///< pq_ arrivals gathered for it
  std::vector<Candidate> feasible_negative_;  ///< per-try_bind scratch
  /// Global instances of the op's chained FU producers (per try_bind).
  std::vector<int> chained_from_;
  timing::CombCycleGraph comb_graph_;
  /// Placed-step range per SCC (pipelined regions): lo > hi while empty.
  std::vector<std::pair<int, int>> scc_steps_;
  std::vector<Restraint> restraints_;
  std::vector<RefusalTally> tallies_;  ///< per op
  std::uint64_t commits_ = 0;  ///< PassOutcome::commits
};

/// Solver-side scaffolding shared by both backends' pass runners: owns
/// the BindingEngine, the priority-rank-ordered active set (ranks read
/// from Problem::priority), the per-step deferral epochs, and the
/// decision trace (commits, first defers, fatals with their restraint
/// slices). A backend's pass runner derives
/// from this, keeps only its own ready queues/counters and step loop,
/// and implements `on_dep_satisfied` — how a released consumer re-enters
/// those queues, which is the one readiness rule the backends genuinely
/// differ on.
class SolverHost : public BindingEngine::Host {
 protected:
  SolverHost(const Problem& p, const DependenceGraph& dg,
             timing::TimingEngine& eng);
  ~SolverHost() = default;

  /// Committed ops leave the active set and enter the trace.
  void on_commit(ir::OpId id, int pool, int inst, int e, int lat,
                 double arrival) final;

  /// Adds the op to the active set (anchored I/O is additionally tracked
  /// for removal when its home step ends).
  void insert_active(ir::OpId id);
  /// Highest-priority active op not deferred in the current epoch.
  ir::OpId pick_ready() const;
  /// Marks the op deferred for this epoch; logs only the first defer
  /// (the warm-start frontier needs the op's minimum failed-bind step).
  void defer(ir::OpId id, int e);
  /// Deadline-step failure: engine aggregation + trace record.
  void fatal(ir::OpId id, int e);
  /// No-states failure with the given event kind; no-op when already
  /// reported.
  void fatal_no_states(ir::OpId id, int e, PassEvent::Kind kind);
  /// Replays one recorded decision through the engine and the trace.
  void apply_replay(const PassEvent& ev);
  /// The engine's outcome plus this pass's trace and replay count.
  PassOutcome finish_pass();

  const Problem& p_;
  const ir::Dfg& dfg_;
  BindingEngine binder_;
  const PriorityOrder& po_;
  std::set<int> active_;  ///< ranks of currently eligible ops
  std::vector<ir::OpId> step_anchored_;
  std::vector<std::uint32_t> deferred_mark_;
  std::vector<bool> defer_logged_;
  std::uint32_t deferred_epoch_ = 1;
  /// pick_ready scan cursor: while the epoch matches deferred_epoch_,
  /// every active rank <= ready_cursor_rank_ is deferred-marked at that
  /// epoch, so scans resume past the prefix. insert_active invalidates
  /// it (epoch 0 never matches; deferred_epoch_ starts at 1 and only
  /// grows). Mutable: pick_ready is a const query whose result is
  /// identical with or without the cursor.
  mutable std::uint32_t ready_cursor_epoch_ = 0;
  mutable int ready_cursor_rank_ = 0;
  PassTrace trace_;
  std::uint64_t replayed_events_ = 0;

 private:
  void record_fatal(ir::OpId id, int e, PassEvent::Kind kind,
                    std::size_t restraints_before);
};

/// Number of ops the current resource counts provably leave without an
/// instance slot: for every pool, members beyond count x usable slots must
/// fail their binding, each with at least one restraint. This is the
/// "hopeless pass" detector behind SchedulerOptions::restraint_volume_cap
/// (exclusive colocation can only lower the true figure, so the estimate
/// is a floor on the restraint volume, not on feasibility).
int provable_resource_overflow(const Problem& p);

/// States needed so every pool fits its members (sequential regions; for
/// pipelined regions extra states do not add slots).
int states_for_resources(const Problem& p);

/// Recomputes all arrival times with the final sharing-mux sizes (commits
/// during the pass use the mux size seen at bind time; later ops can grow
/// a mux from 2 to 3+ inputs). Stores per-op arrivals and the worst slack
/// in the schedule; returns the worst slack.
double finalize_timing(const Problem& p, Schedule& s,
                       timing::TimingEngine& eng,
                       ir::OpId* worst_op_out = nullptr);

/// Asserts every schedule invariant (dependences, occupancy incl.
/// pipeline-equivalent steps, SCC windows, port write order, timing).
/// Throws InternalError with a description on the first violation.
void check_schedule(const Problem& p, const Schedule& s);

}  // namespace hls::sched
