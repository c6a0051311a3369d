#include "sched/pass_scheduler.hpp"

#include <algorithm>

namespace hls::sched {

using ir::kNoOp;
using ir::OpId;

namespace {

// The pass keeps the classic list-scheduling semantics (pick the highest
// priority ready op, bind it, defer on refusal) but replaces every
// per-binding rescan with incremental state:
//
//  * readiness is event-driven: per-op unscheduled-dependency counters are
//    decremented as producers commit; an op whose counter hits zero is
//    dropped into a release-step bucket and merged into a rank-ordered
//    active set when its step begins — pick_ready is a set-front read, not
//    an O(ops) scan;
//  * binding, occupancy, timing verdicts and restraint aggregation are the
//    shared BindingEngine's, and the active-set/trace scaffolding is the
//    shared SolverHost's (binder.cpp) — this file contributes only the
//    ready buckets and the step loop;
//  * every decision is logged as a PassEvent so the next pass can warm
//    start: replay the decision prefix the relaxation provably cannot have
//    changed, then continue normally from the invalidation frontier.
//
// All of this is behavior-preserving: schedules, restraints and failure
// lists are bit-identical to the full-rescan implementation (enforced by
// the golden-hash determinism suite).
class PassRunner final : SolverHost {
 public:
  PassRunner(const Problem& p, const DependenceGraph& dg,
             timing::TimingEngine& eng, const WarmStart* warm)
      : SolverHost(p, dg, eng), warm_(warm) {
    unmet_ = dg.base_unmet;
    avail_.assign(dfg_.size(), 0);
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
          // A new binding creates chaining and exclusive-sharing
          // opportunities; let deferred ops try this step again.
          ++deferred_epoch_;
        } else {
          if (e >= binder_.start_deadline(best)) {
            fatal(best, e);
          } else {
            defer(best, e);
          }
        }
      }
      end_step();
      sweep_missed_deadlines(e);
    }
    // Anything still unscheduled ran out of states.
    for (OpId id : p_.ops) {
      if (!binder_.scheduled(id) && !binder_.op_failed(id)) {
        fatal_no_states(id, p_.num_steps - 1, PassEvent::Kind::kFatalFinal);
      }
    }
    return finish_pass();
  }

 private:
  // ---- Incremental readiness -----------------------------------------------

  void build_ready() {
    buckets_.assign(static_cast<std::size_t>(p_.num_steps), {});
    deadline_buckets_.assign(static_cast<std::size_t>(p_.num_steps), {});
    for (OpId id : p_.ops) {
      if (unmet_[id] == 0) activate(id);
      // An op is examined for a missed deadline exactly once: at the first
      // step past its start deadline (readiness is monotone, so later
      // sweeps of the same op could never fire).
      const int e0 = std::max(binder_.start_deadline(id), 0);
      if (e0 < p_.num_steps) {
        deadline_buckets_[static_cast<std::size_t>(e0)].push_back(id);
      }
    }
  }

  /// All dependences are placed; queue the op for the step where they are
  /// all available and its release permits a start.
  void activate(OpId id) {
    if (binder_.op_failed(id) || binder_.scheduled(id)) return;
    int act = std::max(avail_[id], p_.release(id));
    if (p_.anchor_io && ir::is_io(dfg_.op(id).kind)) {
      // Anchored I/O may only be placed on its home step.
      const int home = p_.spans.spans[id].asap;
      if (act > home || home < current_step_) return;
      act = home;
    }
    if (act < current_step_) act = current_step_;
    if (act >= p_.num_steps) return;  // beyond the last state
    if (act == current_step_ && in_step_) {
      insert_active(id);
    } else {
      buckets_[static_cast<std::size_t>(act)].push_back(id);
    }
  }

  void satisfy_dep(OpId u, int avail_step) {
    avail_[u] = std::max(avail_[u], avail_step);
    if (--unmet_[u] == 0) activate(u);
  }

  bool deps_available_by(OpId id, int e) const {
    return unmet_[id] == 0 && avail_[id] <= e;
  }

  void begin_step(int e) {
    current_step_ = e;
    in_step_ = true;
    ++deferred_epoch_;  // the deferred set is per step
    step_anchored_.clear();
    for (OpId id : buckets_[static_cast<std::size_t>(e)]) {
      if (binder_.scheduled(id) || binder_.op_failed(id)) continue;
      insert_active(id);
    }
  }

  void end_step() {
    // Anchored ops are only eligible on their home step.
    for (OpId id : step_anchored_) active_.erase(po_.rank[id]);
    in_step_ = false;
  }

  // ---- Warm start ----------------------------------------------------------

  /// Replays the previous pass's decisions for every step before the
  /// frontier; state (placements, occupancy, ready queues, restraints)
  /// evolves exactly as if the decisions had been re-derived.
  int replay_prefix() {
    const auto& events = warm_->trace->events;
    const int frontier = std::min(warm_->frontier_step, p_.num_steps);
    std::size_t idx = 0;
    for (int e = 0; e < frontier; ++e) {
      begin_step(e);
      while (idx < events.size() &&
             events[idx].kind != PassEvent::Kind::kFatalFinal &&
             events[idx].step == e) {
        apply_replay(events[idx]);
        ++idx;
      }
      end_step();
      // This step's sweep fatals, if any, were replayed from the trace.
    }
    return frontier;
  }

  // ---- Host callback (the engine reporting a release) ----------------------

  void on_dep_satisfied(OpId user, int avail_step) override {
    satisfy_dep(user, avail_step);
  }

  /// Ops whose deadline passed while their dependences never became ready.
  void sweep_missed_deadlines(int e) {
    for (OpId id : deadline_buckets_[static_cast<std::size_t>(e)]) {
      if (binder_.scheduled(id) || binder_.op_failed(id)) continue;
      if (!deps_available_by(id, e)) {
        fatal_no_states(id, e, PassEvent::Kind::kFatalSweep);
      }
    }
  }

  const WarmStart* warm_;
  std::vector<int> unmet_;  ///< unplaced dependences per op
  std::vector<int> avail_;  ///< max availability step over placed deps
  std::vector<std::vector<OpId>> buckets_;           ///< activation per step
  std::vector<std::vector<OpId>> deadline_buckets_;  ///< sweep per step
  int current_step_ = 0;
  bool in_step_ = false;
};

}  // namespace

PassOutcome run_pass(const Problem& p, const DependenceGraph& dg,
                     timing::TimingEngine& eng, const WarmStart* warm) {
  PassRunner runner(p, dg, eng, warm);
  return runner.run();
}

}  // namespace hls::sched
