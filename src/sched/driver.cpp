#include "sched/driver.hpp"

#include <algorithm>
#include <utility>

#include "sched/backend.hpp"
#include "support/strings.hpp"
#include "tech/library.hpp"

namespace hls::sched {

int SchedulerResult::relaxations() const {
  int n = 0;
  for (const PassRecord& r : history) n += r.relaxed ? 1 : 0;
  return n;
}

const char* seed_use_name(SeedUse use) {
  switch (use) {
    case SeedUse::kNone: return "none";
    case SeedUse::kReplay: return "replay";
    case SeedUse::kMiss: return "miss";
  }
  return "?";
}

namespace {

/// Applies one recorded seed action to the problem, translated to the
/// target configuration. Returns false (without mutating) when the action
/// cannot be transferred cleanly — the caller then abandons the seed.
bool apply_seed_action(Problem& p, const Action& a, const ExpertOptions& eopts) {
  switch (a.kind) {
    case ActionKind::kAddState: {
      const int amount = std::max(1, a.amount);
      if (p.num_steps + amount > eopts.latency.max) return false;
      break;
    }
    case ActionKind::kAddResource:
      if (a.pool < 0 ||
          a.pool >= static_cast<int>(p.resources.pools.size())) {
        return false;
      }
      break;
    case ActionKind::kForbidBinding:
      if (a.op == ir::kNoOp || !p.in_region(a.op) || a.pool < 0 ||
          a.pool >= static_cast<int>(p.resources.pools.size())) {
        return false;
      }
      break;
    case ActionKind::kMoveScc:
      if (a.scc < 0 || a.scc >= static_cast<int>(p.sccs.size()) ||
          !p.pipeline.enabled ||
          a.window_start + p.pipeline.ii - 1 > p.num_steps - 1) {
        return false;
      }
      break;
    case ActionKind::kAcceptSlack:
      break;
    case ActionKind::kAddMemPort: {
      if (a.pool < 0 || a.pool >= static_cast<int>(p.resources.pools.size())) {
        return false;
      }
      const auto& pool = p.resources.pools[static_cast<std::size_t>(a.pool)];
      if (!pool.is_memory || p.memory == nullptr) return false;
      const mem::ArraySpec& spec =
          p.memory->arrays[static_cast<std::size_t>(pool.mem_array)];
      if (pool.ports_per_bank() + std::max(1, a.amount) >
          spec.max_ports_per_bank) {
        return false;
      }
      break;
    }
    case ActionKind::kRebank: {
      if (a.pool < 0 || a.pool >= static_cast<int>(p.resources.pools.size())) {
        return false;
      }
      const auto& pool = p.resources.pools[static_cast<std::size_t>(a.pool)];
      if (!pool.is_memory || p.memory == nullptr) return false;
      const mem::ArraySpec& spec =
          p.memory->arrays[static_cast<std::size_t>(pool.mem_array)];
      if (pool.banks * 2 > spec.max_banks) return false;
      break;
    }
    case ActionKind::kWidenWindow: {
      if (a.port < 0 || p.memory == nullptr) return false;
      const mem::WindowSpec* w = nullptr;
      for (const mem::WindowSpec& ws : p.memory->windows) {
        if (ws.port == a.port) w = &ws;
      }
      if (w == nullptr || w->max_step_limit < 0 ||
          a.window_start > w->max_step_limit) {
        return false;
      }
      break;
    }
  }
  apply_action(p, a);
  return true;
}

/// The iterative pass/relaxation loop over an already-built problem.
///
/// `initial_trace`/`initial_frontier` warm-start the FIRST pass — the
/// exact-config replay path; later passes warm-start from their own
/// predecessors as before. `single_pass` returns after the first attempt,
/// successful or not (the exact-replay contract: win in one pass or let
/// the caller restart cold). Every applied relaxation is appended to
/// `applied_out` (when given) for seed recording.
SchedulerResult run_relaxation_loop(
    Problem& p, const ir::Dfg& dfg, timing::TimingEngine& eng,
    SchedulerBackend& backend, const SchedulerOptions& options,
    const ExpertOptions& eopts, const PassTrace* initial_trace,
    int initial_frontier, bool single_pass, std::vector<PassRecord> history,
    std::vector<Action>* applied_out, support::Budget& budget) {
  const bool warm_startable = options.warm_start && backend.warm_startable();
  // A work-unit pass budget tightens the option cap; exhaustion of either
  // reports the same dedicated code at the loop's end.
  int max_passes = options.max_passes;
  if (options.budget.max_passes > 0 &&
      options.budget.max_passes < max_passes) {
    max_passes = static_cast<int>(options.budget.max_passes);
  }

  SchedulerResult result;
  result.backend = backend.kind();
  result.history = std::move(history);

  auto note_applied = [&](const Action& a) {
    if (applied_out != nullptr) applied_out->push_back(a);
  };

  auto finish_success = [&](PassOutcome&& outcome, PassRecord&& rec) {
    result.history.push_back(std::move(rec));
    result.success = true;
    result.schedule = std::move(outcome.schedule);
    result.timing_queries = eng.queries();
    check_schedule(p, result.schedule);
    if (options.record_seed) {
      result.seed_out.tclk_ps = options.tclk_ps;
      result.seed_out.num_steps = p.num_steps;
      result.seed_out.pipelined = p.pipeline.enabled;
      result.seed_out.ii = p.pipeline.enabled ? p.pipeline.ii : 0;
      result.seed_out.backend = backend.kind();
      result.seed_out.final_trace = std::move(outcome.trace);
    }
  };

  // Warm-start state: the previous pass's decision trace plus the first
  // step the applied relaxation could have changed. A zero frontier (or an
  // invalidated trace) means a cold pass.
  PassTrace trace;
  bool trace_valid = false;
  int frontier = 0;
  if (warm_startable && initial_trace != nullptr && initial_frontier > 0) {
    trace = *initial_trace;
    trace_valid = true;
    frontier = initial_frontier;
  }
  // Timing windows pin ALAPs at absolute steps, so a spans-infeasibility
  // under windows is not (only) a latency shortfall — adding states cannot
  // raise a window-clamped deadline, and the fast-forward would burn its
  // state budget without converging. Let the expert walk see the
  // window-miss restraints instead.
  const bool has_windows =
      std::any_of(p.mem_window_max.begin(), p.mem_window_max.end(),
                  [](int w) { return w >= 0; });

  for (int pass = 1; pass <= max_passes; ++pass) {
    // Budgets and cancellation are observed only here, BETWEEN passes: a
    // pass always runs to completion, so exhaustion is a pure function of
    // the work done so far — byte-reproducible at any thread count — and
    // cancellation never leaves a half-mutated problem behind.
    const support::BudgetVerdict verdict = budget.check();
    if (verdict != support::BudgetVerdict::kOk) {
      result.failure_code = support::budget_verdict_code(verdict);
      result.failure_reason = budget.describe(verdict);
      result.timing_queries = eng.queries();
      return result;
    }
    bool fast_forwarded = false;
    // Fast-forward wide latency shortfalls: when the life spans prove the
    // region cannot fit by a large margin, add the missing states at once.
    // Near-feasible cases still go through the per-pass expert walk, so
    // small designs keep the paper's restraint-by-restraint narrative.
    if (!p.spans.feasible && !single_pass && !has_windows) {
      int shortage = 0;
      for (ir::OpId id : p.ops) {
        if (p.spans.spans[id].in_region) {
          shortage = std::max(shortage, p.spans.spans[id].asap -
                                            p.spans.spans[id].alap);
        }
      }
      if (shortage > 3 && p.num_steps + shortage - 2 <= eopts.latency.max) {
        PassRecord rec;
        rec.pass_number = pass;
        rec.num_steps = p.num_steps;
        rec.success = false;
        rec.action = strf("fast-forward: +", shortage - 2,
                          " states (life spans infeasible)");
        rec.relaxed = true;
        result.history.push_back(std::move(rec));
        Action a;
        a.kind = ActionKind::kAddState;
        a.amount = shortage - 2;
        note_applied(a);
        p.num_steps += shortage - 2;
        refresh_spans(p);
        fast_forwarded = true;
      }
    }
    // Restraint-volume cap: a pass that provably cannot bind `overflow`
    // ops would emit (at least) that many per-op restraints, render them
    // all into the pass record, and have the expert rank them — only for
    // the relaxation to be "add many states" anyway. Emit the aggregate
    // add-state action directly instead, in the same driver iteration as
    // a life-span fast-forward so the hopeless pass is never run at all.
    // Pipelined regions are exempt (states do not add slots there; the
    // expert's add-resource reasoning is the right lever), as are
    // problems below the cap, which keep the per-restraint narrative.
    if (options.restraint_volume_cap > 0 && !p.pipeline.enabled &&
        p.num_steps < eopts.latency.max && !single_pass) {
      const int overflow = provable_resource_overflow(p);
      if (overflow >= options.restraint_volume_cap) {
        const int target =
            std::min(states_for_resources(p), eopts.latency.max);
        if (target > p.num_steps) {
          PassRecord rec;
          rec.pass_number = pass;
          rec.num_steps = p.num_steps;
          rec.success = false;
          rec.action = strf("fast-forward: +", target - p.num_steps,
                            " states (", overflow,
                            " ops over resource capacity)");
          rec.relaxed = true;
          result.history.push_back(std::move(rec));
          Action a;
          a.kind = ActionKind::kAddState;
          a.amount = target - p.num_steps;
          note_applied(a);
          p.num_steps = target;
          refresh_spans(p);
          fast_forwarded = true;
        }
      }
    }
    if (fast_forwarded) {
      result.passes = pass;
      trace_valid = false;  // spans moved: no decision survives
      continue;
    }
    const WarmStart warm{&trace, frontier};
    const bool use_warm = warm_startable && trace_valid && frontier > 0;
    PassOutcome outcome = backend.run_pass(eng, use_warm ? &warm : nullptr);
    budget.charge_commits(outcome.commits);
    budget.charge_relax_steps(outcome.relax_steps);
    PassRecord rec;
    rec.pass_number = pass;
    rec.num_steps = p.num_steps;
    rec.success = outcome.success;
    rec.constraint_edges = outcome.constraint_edges;
    rec.propagation_relaxations = outcome.relax_steps;
    rec.warm_frontier = use_warm ? std::min(frontier, p.num_steps) : 0;
    rec.replayed_events = outcome.replayed_events;
    rec.trace_events = outcome.trace.events.size();
    for (const Restraint& r : outcome.restraints) {
      rec.restraints.push_back(r.to_string(dfg));
      if (is_memory_restraint(r.kind)) ++result.memory_restraints;
    }
    result.passes = pass;

    if (outcome.success) {
      finish_success(std::move(outcome), std::move(rec));
      return result;
    }
    if (single_pass) {
      result.history.push_back(std::move(rec));
      result.failure_reason = "seed replay failed";
      result.timing_queries = eng.queries();
      return result;
    }

    const ExpertDecision decision = choose_action(p, outcome, eopts, eng);
    if (!decision.has_action) {
      rec.action = decision.narration;
      result.history.push_back(std::move(rec));
      result.failure_reason = strf(
          "no applicable relaxation after pass ", pass, " at ", p.num_steps,
          " states (latency bound [", eopts.latency.min, ",",
          eopts.latency.max, "])");
      result.timing_queries = eng.queries();
      return result;
    }
    rec.action = decision.action.to_string(p);
    rec.relaxed = true;
    result.history.push_back(std::move(rec));
    apply_action(p, decision.action);
    note_applied(decision.action);
    if (warm_startable) {
      frontier = warm_start_frontier(p, decision.action, outcome.trace);
      trace = std::move(outcome.trace);
      trace_valid = true;
    }
  }
  result.failure_code = "pass_budget_exhausted";
  result.failure_reason = strf("pass budget (", max_passes, ") exhausted");
  result.timing_queries = eng.queries();
  return result;
}

/// One full scheduling run at a FIXED configuration (the entire former
/// schedule_region): problem construction, recurrence bound, seeding,
/// and the relaxation loop. The public schedule_region either forwards
/// here directly or, under options.solve_min_ii, drives this once per
/// candidate II.
SchedulerResult schedule_region_impl(
    const ir::Dfg& dfg, const ir::LinearRegion& region,
    ir::LatencyBound latency, std::size_t num_ports,
    const SchedulerOptions& options,
    std::shared_ptr<const alloc::LifespanContext> span_context = nullptr) {
  const tech::Library& lib =
      options.lib != nullptr ? *options.lib : tech::artisan90();
  timing::TimingEngine eng(lib, options.tclk_ps);

  Problem p = build_problem(dfg, region, latency, lib, options.tclk_ps,
                            options.pipeline, num_ports, options.anchor_io,
                            options.use_mutual_exclusivity, options.memory,
                            std::move(span_context));
  p.enable_chaining = options.enable_chaining;
  p.avoid_comb_cycles = options.avoid_comb_cycles;
  p.exclusive_colocation = options.use_mutual_exclusivity;

  // The result reports the *resolved* backend: a kAuto request resolves
  // deterministically per problem (resolve_backend) and every consumer —
  // render_report, render_json, ExplorePoint — sees what actually ran.
  const BackendKind resolved = resolve_backend(p, options);

  // Recurrence bound: an SCC whose optimistic chain needs more states than
  // II can never satisfy the window constraint, no matter where the window
  // sits (the designer must raise II; the paper leaves II to the designer).
  if (options.pipeline.enabled) {
    for (std::size_t i = 0; i < p.sccs.size(); ++i) {
      const int needed = scc_min_states(p, p.sccs[i]);
      if (needed > options.pipeline.ii) {
        SchedulerResult result;
        result.backend = resolved;
        result.failure_reason = strf(
            "recurrence infeasible: an inter-iteration dependency cycle "
            "(SCC #", i, ", ", p.sccs[i].size(), " ops) needs at least ",
            needed, " states, more than II=", options.pipeline.ii,
            "; increase the initiation interval or the clock period");
        return result;
      }
    }
  }

  ExpertOptions eopts;
  eopts.latency = latency;
  if (options.pipeline.enabled) {
    // LI may grow beyond the sequential bound as long as the designer's
    // maximum allows; the minimum is II+1 (paper Section V, condition 2).
    eopts.latency.min = std::max(latency.min, options.pipeline.ii + 1);
    eopts.latency.max = std::max(latency.max, eopts.latency.min);
  }
  eopts.enable_move_scc = options.enable_move_scc;
  eopts.allow_accept_slack = options.allow_accept_slack;

  std::unique_ptr<SchedulerBackend> backend = make_backend(p, options);

  std::vector<Action> applied;
  std::vector<Action>* applied_out =
      options.record_seed ? &applied : nullptr;
  // One budget for the whole run: a failed seed-replay attempt's work
  // counts against the cold restart that follows it.
  support::Budget budget(options.budget, options.stop);
  auto stamp_seed = [&](SchedulerResult& result) {
    if (options.record_seed && result.success) {
      result.seed_out.actions = std::move(applied);
    }
    result.engine_commits = budget.commits();
    result.relax_steps = budget.relax_steps();
  };

  // ---- Cross-run seeding -----------------------------------------------
  // Only an exact-configuration seed is used: it re-applies the donor's
  // recipe and replays its final pass wholesale (bit-exact by the warm ≡
  // cold guarantee: a successful trace has no fatal events, so a full
  // replay re-derives the identical schedule). A seed from another clock
  // period, backend or pipelining shape cannot skip passes soundly — each
  // expert decision depends on the previous pass's clock-dependent
  // restraints — so it is ignored and the run reports kMiss.
  const ScheduleSeed* seed = options.seed;
  const bool exact_seed =
      seed != nullptr && options.warm_start && backend->warm_startable() &&
      seed->backend == backend->kind() && seed->tclk_ps == options.tclk_ps &&
      seed->pipelined == p.pipeline.enabled &&
      (!p.pipeline.enabled || seed->ii == p.pipeline.ii);

  std::vector<PassRecord> history;
  if (exact_seed) {
    Problem pristine = p;
    bool transferred = true;
    for (const Action& a : seed->actions) {
      if (!apply_seed_action(p, a, eopts)) {
        transferred = false;
        break;
      }
    }
    transferred = transferred && p.num_steps == seed->num_steps;
    if (transferred) {
      if (applied_out != nullptr) {
        applied_out->assign(seed->actions.begin(), seed->actions.end());
      }
      PassRecord rec;
      rec.pass_number = 0;
      rec.num_steps = p.num_steps;
      rec.success = false;
      rec.action = strf("seed: exact config match, re-applied ",
                        seed->actions.size(),
                        " recorded relaxations; final pass replays");
      rec.relaxed = !seed->actions.empty();
      std::vector<PassRecord> seeded_history;
      seeded_history.push_back(std::move(rec));
      SchedulerResult replayed = run_relaxation_loop(
          p, dfg, eng, *backend, options, eopts, &seed->final_trace,
          p.num_steps, /*single_pass=*/true, std::move(seeded_history),
          applied_out, budget);
      if (replayed.success) {
        replayed.seed_use = SeedUse::kReplay;
        stamp_seed(replayed);
        return replayed;
      }
    }
    // Replay impossible or failed: solve cold from the pristine problem.
    p = std::move(pristine);
    if (applied_out != nullptr) applied_out->clear();
    PassRecord miss;
    miss.pass_number = 0;
    miss.num_steps = p.num_steps;
    miss.success = false;
    miss.action = "seed: exact replay unavailable, solving cold";
    history.push_back(std::move(miss));
  }

  SchedulerResult result = run_relaxation_loop(
      p, dfg, eng, *backend, options, eopts, nullptr, 0,
      /*single_pass=*/false, std::move(history), applied_out, budget);
  if (seed != nullptr) result.seed_use = SeedUse::kMiss;
  stamp_seed(result);
  return result;
}

}  // namespace

SchedulerResult schedule_region(const ir::Dfg& dfg,
                                const ir::LinearRegion& region,
                                ir::LatencyBound latency,
                                std::size_t num_ports,
                                const SchedulerOptions& options) {
  if (!options.solve_min_ii || !options.pipeline.enabled) {
    return schedule_region_impl(dfg, region, latency, num_ports, options);
  }

  // ---- Minimum-II solving ----------------------------------------------
  // Phase 1 (pure probe, no binding): binary-search the smallest II whose
  // star-encoded difference-constraint system has a fixpoint within the
  // reachable state counts (ii_probe_feasible is sound and monotone in
  // II, backend.hpp). Phase 2: run full fixed-II solves upward from that
  // candidate until one schedules — the probe is necessary, not
  // sufficient (resources and timing can refuse a probe-feasible II), and
  // the first candidate that fully schedules is by construction the
  // minimum: every smaller II is either probe-infeasible or was attempted
  // and failed. This matches an exhaustive II sweep's answer while
  // skipping the sweep's infeasible prefix without running a single pass
  // on it. Each candidate attempt gets the full option budget; the
  // returned timing_queries/engine_commits/relax_steps accumulate the
  // whole escalation. The probe and every candidate share one span
  // context.
  const tech::Library& lib =
      options.lib != nullptr ? *options.lib : tech::artisan90();
  const int floor_ii = std::max(1, options.pipeline.ii);
  SchedulerOptions probe_opts = options;
  probe_opts.pipeline = {true, floor_ii};
  Problem probe_p =
      build_problem(dfg, region, latency, lib, options.tclk_ps,
                    probe_opts.pipeline, num_ports, options.anchor_io,
                    options.use_mutual_exclusivity, options.memory);
  const DependenceGraph probe_dg = build_dependence_graph(probe_p);
  const int hi = std::max(floor_ii, latency.max);
  const int start = min_feasible_ii(probe_p, probe_dg, floor_ii, hi,
                                    latency.max);

  auto min_ii_record = [&](const std::string& text) {
    PassRecord rec;
    rec.pass_number = 0;
    rec.action = text;
    return rec;
  };
  auto no_feasible = [&](const std::string& detail) {
    SchedulerResult r;
    r.backend = resolve_backend(probe_p, probe_opts);
    r.failure_code = "no_feasible_ii";
    r.failure_reason = strf("no feasible initiation interval in [", floor_ii,
                            ",", hi, "]: ", detail);
    r.history.push_back(min_ii_record(r.failure_reason));
    return r;
  };
  if (start < 0) {
    return no_feasible(
        "the difference-constraint system has no fixpoint within the "
        "latency bound at any candidate II");
  }

  std::uint64_t queries = 0;
  std::uint64_t commits = 0;
  std::uint64_t relax = 0;
  int attempts = 0;
  for (int ii = start; ii <= hi; ++ii) {
    // Re-probe each candidate (one Bellman-Ford, no binding) before
    // paying for a full relaxation ladder. With the probe monotone in II
    // this never fires after `start`, but it keeps the escalation sound
    // under any future constraint family whose probe is not.
    if (ii > start &&
        !ii_probe_feasible(probe_p, probe_dg, ii,
                           std::max(latency.max, ii + 1))) {
      continue;
    }
    SchedulerOptions o2 = options;
    o2.solve_min_ii = false;
    o2.pipeline = {true, ii};
    ++attempts;
    SchedulerResult r = schedule_region_impl(dfg, region, latency, num_ports,
                                             o2, probe_p.span_context);
    queries += r.timing_queries;
    commits += r.engine_commits;
    relax += r.relax_steps;
    const bool out_of_budget =
        r.failure_code == "budget_exhausted" || r.failure_code == "cancelled" ||
        r.failure_code == "deadline_exceeded";
    if (r.success || out_of_budget) {
      r.timing_queries = queries;
      r.engine_commits = commits;
      r.relax_steps = relax;
      if (r.success) {
        r.min_ii = ii;
        r.history.insert(
            r.history.begin(),
            min_ii_record(strf("min-II solve: probe-feasible from II=", start,
                               ", solved at II=", ii, " (", attempts,
                               " candidate attempt", attempts == 1 ? "" : "s",
                               ")")));
      }
      return r;
    }
  }
  SchedulerResult r = no_feasible(
      strf("all ", attempts, " probe-feasible candidate(s) from II=", start,
           " failed to schedule"));
  r.timing_queries = queries;
  r.engine_commits = commits;
  r.relax_steps = relax;
  return r;
}

}  // namespace hls::sched
