#include "sched/sdc_scheduler.hpp"

#include <algorithm>
#include <deque>

namespace hls::sched {

using ir::kNoOp;
using ir::OpId;

namespace {

/// Builds the static constraint adjacency for a problem at initiation
/// interval `ii`: dependences, port write order, and — for pipelined
/// problems — the II windows, star-encoded through one anchor variable
/// per SCC (ids dfg.size() + scc_index) unless `pairwise` asks for the
/// reference O(n^2) member-pair encoding. Shared between the SDC backend
/// and the pure min-II feasibility probe so the two can never encode
/// different systems. `num_vars` receives ops + anchors.
std::vector<std::vector<SdcScheduler::Edge>> build_constraint_edges(
    const Problem& p, const DependenceGraph& dg, int ii, bool pairwise,
    std::size_t* num_vars) {
  const ir::Dfg& dfg = *p.dfg;
  const bool star = p.pipeline.enabled && !pairwise;
  const std::size_t vars = dfg.size() + (star ? p.sccs.size() : 0);
  std::vector<std::vector<SdcScheduler::Edge>> out(vars);
  for (OpId id : p.ops) {
    for (OpId d : dg.deps[id]) {
      // x_consumer >= x_producer + latency: the result step of the
      // producer is the earliest chainable start of the consumer.
      out[d].push_back({id, p.pool_latency(d)});
    }
  }
  // Port write order: consecutive writes to one port may share a step
  // (when mutually exclusive) but never reorder.
  for (const auto& writes : p.port_writes) {
    for (std::size_t i = 1; i < writes.size(); ++i) {
      out[writes[i - 1]].push_back({writes[i], 0});
    }
  }
  if (p.pipeline.enabled && !star) {
    // Reference pairwise encoding (kept for the golden star/pairwise
    // A/B): for SCC members a != b,
    // (x_b + lat_b) >= (x_a + lat_a) - (II - 1).
    for (const auto& scc : p.sccs) {
      for (OpId a : scc) {
        for (OpId b : scc) {
          if (a == b) continue;
          out[a].push_back(
              {b, p.pool_latency(a) - p.pool_latency(b) - (ii - 1)});
        }
      }
    }
  } else if (star) {
    // Star encoding: A_s >= x_a + lat_a for every member (the SCC's
    // latest result step), x_b >= A_s - lat_b - (II - 1) back out.
    // Composition through A_s reproduces every pairwise constraint
    // exactly; the a == b composition is x_b >= x_b - (II - 1), vacuous
    // for II >= 1. 2n edges per SCC instead of n(n - 1).
    for (std::size_t s = 0; s < p.sccs.size(); ++s) {
      const OpId anchor = static_cast<OpId>(dfg.size() + s);
      for (OpId a : p.sccs[s]) {
        out[a].push_back({anchor, p.pool_latency(a)});
        out[anchor].push_back({a, -p.pool_latency(a) - (ii - 1)});
      }
    }
  }
  if (num_vars != nullptr) *num_vars = vars;
  return out;
}

int max_region_latency(const Problem& p) {
  int lat = 0;
  for (OpId id : p.ops) lat = std::max(lat, p.pool_latency(id));
  return lat;
}

}  // namespace

SdcScheduler::SdcScheduler(const Problem& p, const SchedulerOptions& options)
    : SchedulerBackend(p, options), dg_(build_dependence_graph(p)) {
  out_ = build_constraint_edges(p, dg_, p.pipeline.ii,
                                options.sdc_pairwise_ii, &num_vars_);
  anchor_base_ = p.dfg->size();
  max_latency_ = max_region_latency(p);
  for (const auto& edges : out_) edge_count_ += edges.size();
}

namespace {

// One SDC scheduling attempt. The constraint system's least fixpoint
// (longest path from the implicit source) gives every op its earliest
// start `x_`; the solver walks the steps in order offering ready ops to
// the shared BindingEngine in priority order exactly like the list pass,
// but a failed step raises the refused ops' lower bounds — batched into
// one re-propagation per step — so dependent ops and II-window partners
// are never attempted at steps the system already excludes. Binding,
// restraints and the active-set/trace scaffolding are the shared
// BindingEngine/SolverHost (binder.cpp); this file contributes only the
// constraint core and its bound-aware ready buckets.
class SdcPass final : SolverHost {
 public:
  SdcPass(const Problem& p,
          const std::vector<std::vector<SdcScheduler::Edge>>& out,
          std::size_t anchor_base, std::size_t num_vars, int max_latency,
          const DependenceGraph& dg, timing::TimingEngine& eng,
          const WarmStart* warm)
      : SolverHost(p, dg, eng),
        out_(out),
        warm_(warm),
        anchor_base_(anchor_base),
        num_vars_(num_vars),
        // Anchors track result steps, which legitimately run past the op
        // saturation point by up to the largest pool latency; clamping
        // them at num_steps would weaken window constraints near the last
        // states relative to the pairwise encoding (whose single-edge
        // bound only clamps at the op). The slack keeps the clamp inert
        // for every value reachable from op bounds while still cutting
        // off pathological positive-cycle propagation.
        anchor_cap_(p.num_steps + max_latency) {
    unmet_ = dg.base_unmet;
    avail_.assign(dfg_.size(), 0);
    solve_initial();
    build_ready();
  }

  PassOutcome run() {
    int first = 0;
    if (warm_ != nullptr && warm_->trace != nullptr &&
        warm_->frontier_step > 0) {
      first = replay_prefix();
    }
    for (int e = first; e < p_.num_steps; ++e) {
      begin_step(e);
      while (true) {
        const OpId best = pick_ready();
        if (best == kNoOp) break;
        if (binder_.try_bind(best, e)) {
          ++deferred_epoch_;  // retry deferred ops: new chaining chances
        } else if (e >= binder_.start_deadline(best)) {
          fatal(best, e);
        } else {
          defer(best, e);
        }
      }
      end_step(e);
      sweep_missed_deadlines(e);
    }
    for (OpId id : p_.ops) {
      if (!binder_.scheduled(id) && !binder_.op_failed(id)) {
        fatal_no_states(id, p_.num_steps - 1, PassEvent::Kind::kFatalFinal);
      }
    }
    PassOutcome out = finish_pass();
    out.relax_steps = relax_steps_;
    return out;
  }

 private:
  // ---- The difference-constraint core ---------------------------------------

  bool is_anchor(OpId v) const {
    return static_cast<std::size_t>(v) >= anchor_base_;
  }

  /// Incremental Bellman-Ford longest path: relaxes from the seeded
  /// variables until the system is at its least fixpoint again. Appends
  /// every OP whose bound rose to `changed` (when given); anchor
  /// variables propagate but are never recorded — they have no bucket,
  /// no binder state, and no deadline. Op bounds saturate at num_steps
  /// ("no feasible start"); anchor bounds at num_steps + max pool
  /// latency. Both clamps also bound propagation in the
  /// (driver-precluded) event of a positive cycle. `step` is the step
  /// whose end triggered the wave (0 for the initial solve); the first
  /// one that clamps is recorded in the trace.
  void relax(std::deque<OpId>& queue, std::vector<OpId>* changed, int step) {
    while (!queue.empty()) {
      const OpId u = queue.front();
      queue.pop_front();
      in_queue_[u] = 0;
      for (const SdcScheduler::Edge& edge : out_[u]) {
        ++relax_steps_;
        const bool anchor = is_anchor(edge.to);
        const int cap = anchor ? anchor_cap_ : p_.num_steps;
        if (x_[u] + edge.weight > cap) {
          trace_.first_saturation_step =
              std::min(trace_.first_saturation_step, step);
        }
        const int bound = std::min(x_[u] + edge.weight, cap);
        if (bound <= x_[edge.to]) continue;
        // A committed op's start is final; constraints that would move it
        // cannot fire (its partners took the bound into account when it
        // was placed, and the window check at bind time guards the rest).
        if (!anchor &&
            (binder_.scheduled(edge.to) || binder_.op_failed(edge.to))) {
          continue;
        }
        x_[edge.to] = bound;
        if (!anchor && changed != nullptr) changed->push_back(edge.to);
        if (!in_queue_[edge.to]) {
          in_queue_[edge.to] = 1;
          queue.push_back(edge.to);
        }
      }
    }
  }

  void solve_initial() {
    x_.assign(num_vars_, 0);
    in_queue_.assign(num_vars_, 0);
    changed_mark_.assign(dfg_.size(), 0);
    std::deque<OpId> queue;
    for (OpId id : p_.ops) {
      x_[id] = p_.release(id);
      in_queue_[id] = 1;
      queue.push_back(id);
    }
    relax(queue, nullptr, 0);
  }

  /// Re-buckets every op in `changed_scratch_` once, at its now-final
  /// bound. relax() appends an op once per bound rise; the epoch mark
  /// dedups multi-rise ops.
  void requeue_changed() {
    ++changed_epoch_;
    for (const OpId c : changed_scratch_) {
      if (changed_mark_[c] == changed_epoch_) continue;
      changed_mark_[c] = changed_epoch_;
      if (binder_.scheduled(c) || binder_.op_failed(c)) continue;
      if (active_.erase(po_.rank[c]) > 0 || unmet_[c] == 0) enqueue(c);
    }
  }

  // ---- Readiness ------------------------------------------------------------

  void build_ready() {
    buckets_.assign(static_cast<std::size_t>(p_.num_steps), {});
    deadline_buckets_.assign(static_cast<std::size_t>(p_.num_steps), {});
    for (OpId id : p_.ops) {
      if (unmet_[id] == 0) enqueue(id);
      const int e0 = std::max(binder_.start_deadline(id), 0);
      if (e0 < p_.num_steps) {
        deadline_buckets_[static_cast<std::size_t>(e0)].push_back(id);
      }
    }
  }

  void enqueue(OpId id) {
    if (binder_.op_failed(id) || binder_.scheduled(id) || unmet_[id] != 0) {
      return;
    }
    // Earliest step the binder may still look at `id`: its constraint
    // bound, the availability of its committed dependences, and the
    // earliest undrained step — once a step has ended, its bucket has
    // been consumed, so re-bucketing there (e.g. from end_step's bound
    // propagation onto a just-erased active op) would silently drop the
    // op from every queue.
    const int floor_step = in_step_ ? current_step_ : current_step_ + 1;
    int act = std::max(avail_[id], x_[id]);
    if (p_.anchor_io && ir::is_io(dfg_.op(id).kind)) {
      // Anchored I/O may only be placed on its home step; a home step
      // that already ended means the op missed it (end-of-pass fatal).
      const int home = p_.spans.spans[id].asap;
      if (act > home || home < floor_step) return;
      act = home;
    }
    if (act < floor_step) act = floor_step;
    if (act >= p_.num_steps) return;  // beyond the last state
    if (act == current_step_ && in_step_) {
      insert_active(id);
    } else {
      buckets_[static_cast<std::size_t>(act)].push_back(id);
    }
  }

  void satisfy_dep(OpId u, int avail_step) {
    avail_[u] = std::max(avail_[u], avail_step);
    if (--unmet_[u] == 0) enqueue(u);
  }

  bool deps_available_by(OpId id, int e) const {
    return unmet_[id] == 0 && avail_[id] <= e;
  }

  void begin_step(int e) {
    current_step_ = e;
    in_step_ = true;
    ++deferred_epoch_;
    step_anchored_.clear();
    for (OpId id : buckets_[static_cast<std::size_t>(e)]) {
      if (binder_.scheduled(id) || binder_.op_failed(id)) continue;
      // A bucket entry was placed when the op's earliest step was `e`;
      // the bound only grows, so an entry whose bound moved is stale (a
      // newer entry exists at the later bucket).
      int act = std::max(avail_[id], x_[id]);
      if (p_.anchor_io && ir::is_io(dfg_.op(id).kind)) {
        const int home = p_.spans.spans[id].asap;
        if (act > home) continue;
        act = home;
      }
      if (act > e) continue;
      insert_active(id);
    }
  }

  void end_step(int e) {
    // Anchored ops are only eligible on their home step; everything else
    // that could not bind here gets its lower bound raised to e + 1 —
    // this is how resource conflicts enter the constraint system, and
    // the propagation moves dependents and window partners before they
    // are attempted. All the raises are batched into ONE Bellman-Ford
    // wave: the least fixpoint of the system is independent of the
    // relaxation order, so seeding every refused op at once reaches
    // exactly the state the former one-wave-per-op cascade reached, at a
    // fraction of the edge relaxations (each wave re-walked the shared
    // downstream cone).
    for (OpId id : step_anchored_) active_.erase(po_.rank[id]);
    in_step_ = false;
    deferred_scratch_.clear();
    for (const int r : active_) {
      deferred_scratch_.push_back(po_.order[static_cast<std::size_t>(r)]);
    }
    std::deque<OpId> queue;
    for (OpId id : deferred_scratch_) {
      if (x_[id] >= e + 1) continue;
      x_[id] = std::min(e + 1, p_.num_steps);
      if (!in_queue_[id]) {
        in_queue_[id] = 1;
        queue.push_back(id);
      }
    }
    changed_scratch_.clear();
    relax(queue, &changed_scratch_, e);
    // A refused op raised exactly to e + 1 stays in the active set and is
    // retried next step; one whose bound the wave pushed further appears
    // in `changed_scratch_` and is re-bucketed at its new earliest step
    // (requeue_changed erases it from the active set first).
    requeue_changed();
    for (OpId id : deferred_scratch_) {
      if (x_[id] >= p_.num_steps) active_.erase(po_.rank[id]);
    }
  }

  // ---- Warm start -----------------------------------------------------------

  /// Replays the previous pass's decisions for every step before the
  /// frontier. Commits and fatals come from the trace; the end-of-step
  /// bound raising runs normally over the replayed state, so the solved
  /// x_ bounds learned before the frontier are re-established without a
  /// single timing query or instance probe.
  int replay_prefix() {
    const auto& events = warm_->trace->events;
    const int frontier = std::min(warm_->frontier_step, p_.num_steps);
    std::size_t idx = 0;
    for (int e = 0; e < frontier; ++e) {
      begin_step(e);
      // Bind-loop decisions (commits, defers, deadline fatals) replay
      // first, exactly where they happened; the step's sweep fatals are
      // the tail of its event run and must wait until after end_step.
      while (idx < events.size() &&
             events[idx].kind != PassEvent::Kind::kFatalFinal &&
             events[idx].kind != PassEvent::Kind::kFatalSweep &&
             events[idx].step == e) {
        apply_replay(events[idx]);
        ++idx;
      }
      // At step end the active set is exactly the recorded pass's
      // deferred set, so the normal bound raising re-derives the same
      // constraint-system state a cold pass would reach.
      end_step(e);
      // Sweep fatals were recorded after end_step in the cold pass;
      // applying them before it would mark the swept ops failed during
      // the bound raising and cut relax() propagation paths that run
      // through them (warm bounds would lag cold ones).
      while (idx < events.size() &&
             events[idx].kind == PassEvent::Kind::kFatalSweep &&
             events[idx].step == e) {
        apply_replay(events[idx]);
        ++idx;
      }
    }
    return frontier;
  }

  // ---- Host callback (the engine reporting a release) ------------------------

  void on_dep_satisfied(OpId user, int avail_step) override {
    satisfy_dep(user, avail_step);
  }

  /// Ops whose deadline passed while their dependences never became
  /// ready (including dependences on already-failed ops).
  void sweep_missed_deadlines(int e) {
    for (OpId id : deadline_buckets_[static_cast<std::size_t>(e)]) {
      if (binder_.scheduled(id) || binder_.op_failed(id)) continue;
      if (!deps_available_by(id, e)) {
        fatal_no_states(id, e, PassEvent::Kind::kFatalSweep);
      }
    }
  }

  const std::vector<std::vector<SdcScheduler::Edge>>& out_;
  const WarmStart* warm_;
  const std::size_t anchor_base_;  ///< first anchor variable id
  const std::size_t num_vars_;     ///< ops + star anchors
  const int anchor_cap_;           ///< anchor saturation (num_steps + max lat)

  std::vector<int> unmet_;
  std::vector<int> avail_;
  std::vector<int> x_;  ///< constraint lower bound per variable (start step)
  std::vector<char> in_queue_;  ///< Bellman-Ford work-queue membership
  std::vector<OpId> changed_scratch_;
  std::vector<std::uint32_t> changed_mark_;  ///< requeue dedup epochs
  std::uint32_t changed_epoch_ = 0;
  std::uint64_t relax_steps_ = 0;  ///< edge relaxations, for PassOutcome
  std::vector<OpId> deferred_scratch_;
  std::vector<std::vector<OpId>> buckets_;
  std::vector<std::vector<OpId>> deadline_buckets_;
  /// -1 until the first begin_step, so pre-pass enqueues (build_ready)
  /// land in bucket 0 rather than being floored past it.
  int current_step_ = -1;
  bool in_step_ = false;
};

}  // namespace

PassOutcome SdcScheduler::run_pass(timing::TimingEngine& eng,
                                   const WarmStart* warm) {
  SdcPass pass(problem_, out_, anchor_base_, num_vars_, max_latency_, dg_,
               eng, warm);
  PassOutcome out = pass.run();
  out.constraint_edges = edge_count_;
  return out;
}

// ---- Minimum-II feasibility probe -----------------------------------------

bool ii_probe_feasible(const Problem& p, const DependenceGraph& dg, int ii,
                       int max_states) {
  // Recurrence bound first: an SCC whose optimistic internal chain needs
  // more states than II can never sit inside an II window, no matter
  // where the window goes. This check is tighter than the unit-latency
  // positive-cycle test below (it sees chaining against the clock
  // period), so it prunes most infeasible candidates outright.
  for (const auto& scc : p.sccs) {
    if (scc_min_states(p, scc) > ii) return false;
  }
  std::size_t num_vars = 0;
  const auto out =
      build_constraint_edges(p, dg, ii, /*pairwise=*/false, &num_vars);
  const int max_lat = max_region_latency(p);
  std::vector<int> x(num_vars, 0);
  std::vector<char> in_queue(num_vars, 0);
  std::deque<OpId> queue;
  for (OpId id : p.ops) {
    x[id] = p.release(id);
    in_queue[id] = 1;
    queue.push_back(id);
  }
  const std::size_t anchor_base = p.dfg->size();
  while (!queue.empty()) {
    const OpId u = queue.front();
    queue.pop_front();
    in_queue[u] = 0;
    for (const SdcScheduler::Edge& edge : out[u]) {
      const bool anchor = static_cast<std::size_t>(edge.to) >= anchor_base;
      const int cap = anchor ? max_states + max_lat : max_states;
      const int bound = std::min(x[u] + edge.weight, cap);
      if (bound <= x[edge.to]) continue;
      x[edge.to] = bound;
      if (!in_queue[edge.to]) {
        in_queue[edge.to] = 1;
        queue.push_back(edge.to);
      }
    }
  }
  // Saturated op bound = no start step exists within the largest state
  // count the expert could ever reach (positive cycles saturate too).
  for (OpId id : p.ops) {
    if (x[id] >= max_states) return false;
  }
  return true;
}

int min_feasible_ii(const Problem& p, const DependenceGraph& dg, int lo,
                    int hi, int latency_max) {
  if (lo > hi) return -1;
  auto feasible = [&](int ii) {
    return ii_probe_feasible(p, dg, ii, std::max(latency_max, ii + 1));
  };
  if (!feasible(hi)) return -1;
  // Invariant: feasible(hi); probe monotone in II.
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace hls::sched
