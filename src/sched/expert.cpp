#include "sched/expert.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "support/diagnostics.hpp"
#include "support/strings.hpp"

namespace hls::sched {

using ir::kNoOp;
using ir::OpId;

const char* action_kind_name(ActionKind k) {
  switch (k) {
    case ActionKind::kAddState: return "add-state";
    case ActionKind::kAddResource: return "add-resource";
    case ActionKind::kForbidBinding: return "forbid-binding";
    case ActionKind::kMoveScc: return "move-scc";
    case ActionKind::kAcceptSlack: return "accept-negative-slack";
    case ActionKind::kAddMemPort: return "add-mem-port";
    case ActionKind::kRebank: return "re-bank";
    case ActionKind::kWidenWindow: return "widen-window";
  }
  return "?";
}

std::string Action::to_string(const Problem& p) const {
  std::string s = action_kind_name(kind);
  switch (kind) {
    case ActionKind::kAddState:
      s += strf(" -> ", p.num_steps + amount, " states");
      break;
    case ActionKind::kAddResource:
      s += strf(" ", p.resources.pools[static_cast<std::size_t>(pool)].name,
                " -> ",
                p.resources.pools[static_cast<std::size_t>(pool)].count +
                    amount,
                " instances");
      break;
    case ActionKind::kForbidBinding:
      s += strf(" op=%", op, " on ",
                p.resources.pools[static_cast<std::size_t>(pool)].name, "[",
                instance, "]");
      break;
    case ActionKind::kMoveScc:
      s += strf(" scc=", scc, " window -> s", window_start + 1);
      break;
    case ActionKind::kAcceptSlack:
      break;
    case ActionKind::kAddMemPort:
      s += strf(" ", p.resources.pools[static_cast<std::size_t>(pool)].name,
                " -> ",
                p.resources.pools[static_cast<std::size_t>(pool)]
                        .ports_per_bank() +
                    amount,
                " ports/bank");
      break;
    case ActionKind::kRebank:
      s += strf(" ", p.resources.pools[static_cast<std::size_t>(pool)].name,
                " -> ",
                p.resources.pools[static_cast<std::size_t>(pool)].banks * 2,
                " banks");
      break;
    case ActionKind::kWidenWindow:
      s += strf(" port=", port, " max -> s", window_start + 1);
      break;
  }
  s += strf(" (gain=", fmt_fixed(gain, 2), " cost=", fmt_fixed(cost, 2), ")");
  return s;
}

namespace {

/// Checks whether `op` would meet timing on a hypothetical instance of its
/// pool at the restraint's step, after adding `extra` instances. Returns
/// the hypothesis verdict. This is how the expert knows that "adding one
/// more multiplier does not help because two multiplications cannot fit in
/// the given clock cycle" (paper, Example 1, second pass).
bool helps_timing_with_instances(const Problem& p, const PassOutcome& outcome,
                                 OpId op, int step, int extra,
                                 timing::TimingEngine& eng) {
  const ir::Dfg& dfg = *p.dfg;
  const int pool = p.resources.pool_of(op);
  if (pool < 0) return false;
  const auto& pdesc = p.resources.pools[static_cast<std::size_t>(pool)];
  if (pdesc.latency_cycles > 0) return true;  // registered: timing is fixed
  const ir::Op& o = dfg.op(op);
  std::vector<double> arrivals;
  for (std::size_t i = 0; i < o.operands.size(); ++i) {
    if (o.kind == ir::OpKind::kLoopMux && i == 1) continue;
    const OpId d = o.operands[i];
    if (d == kNoOp) continue;
    if (dfg.is_const(d)) {
      arrivals.push_back(0);
    } else if (!p.in_region(d) || !outcome.schedule.placement[d].scheduled ||
               outcome.schedule.placement[d].step != step) {
      arrivals.push_back(p.lib->reg_clk_to_q_ps());
    } else {
      arrivals.push_back(outcome.schedule.placement[d].arrival_ps);
    }
  }
  const bool still_shared = p.pool_members(pool) > pdesc.count + extra;
  timing::PathQuery q;
  q.operand_arrivals_ps = arrivals;
  q.cls = pdesc.cls;
  q.width = pdesc.width;
  q.in_mux_inputs = still_shared ? 2 : 0;
  q.out_mux_inputs = still_shared ? 2 : 0;
  return eng.register_slack_ps(eng.output_arrival_ps(q)) >= -1e-9;
}

}  // namespace

ExpertDecision choose_action(const Problem& p, const PassOutcome& outcome,
                             const ExpertOptions& opts,
                             timing::TimingEngine& eng) {
  std::vector<Action> candidates;
  std::string narration;

  const bool can_add_state = p.num_steps < opts.latency.max;

  // --- AddState: benefits essentially every restraint kind. ----------------
  if (can_add_state) {
    Action a;
    a.kind = ActionKind::kAddState;
    a.cost = 1.0;
    // Scale the number of added states by the failure volume: each new
    // state absorbs roughly one op per resource instance, so large designs
    // converge in a few passes while Example-1-sized ones keep the paper's
    // one-state-at-a-time narrative.
    std::set<OpId> failed;
    for (const Restraint& r : outcome.restraints) {
      if (r.op != kNoOp) failed.insert(r.op);
    }
    const int capacity = std::max(1, p.resources.total_instances());
    a.amount = std::clamp(
        static_cast<int>(failed.size()) / capacity, 1,
        std::max(1, opts.latency.max - p.num_steps));
    for (const Restraint& r : outcome.restraints) {
      switch (r.kind) {
        case RestraintKind::kNoResource:
        case RestraintKind::kNegativeSlack:
        case RestraintKind::kNoStates:
          // SCC members are capped by their II window, which extra states
          // cannot widen; moving the window is the right lever for them.
          a.gain += r.scc >= 0 ? 0.25 * r.weight : r.weight;
          break;
        case RestraintKind::kSccWindow:
          // More states do not widen an II-bounded window.
          break;
        case RestraintKind::kCombCycle:
          a.gain += 0.25 * r.weight;  // more room sometimes sidesteps it
          break;
        case RestraintKind::kBankConflict:
        case RestraintKind::kPortPressure:
          // Sequential regions: extra states spread the accesses over more
          // steps. In a pipelined kernel every II-slot repeats, so states
          // add no port bandwidth there (same SCC-style cap).
          a.gain += p.pipeline.enabled ? 0 : r.weight;
          break;
        case RestraintKind::kWindowMiss:
          break;  // extra states cannot reopen an absolute window
      }
    }
    if (a.gain > 0) candidates.push_back(a);
  }

  // --- AddResource per pool. -------------------------------------------------
  std::map<int, Action> add_resource;
  for (const Restraint& r : outcome.restraints) {
    if (r.pool < 0) continue;
    const auto& pdesc = p.resources.pools[static_cast<std::size_t>(r.pool)];
    // Memory pools keep the banks x ports_per_bank invariant; only the
    // dedicated memory actions below may grow them.
    if (pdesc.is_memory) continue;
    auto& a = add_resource[r.pool];
    a.kind = ActionKind::kAddResource;
    a.pool = r.pool;
    // Cost scales with silicon: a multiplier is much more expensive than a
    // comparator (normalized so a 32-bit adder costs about 1).
    a.cost = std::max(0.25, p.lib->fu_area(pdesc.cls, pdesc.width) /
                                p.lib->fu_area(tech::FuClass::kAdder, 32));
    // First hypothesis: one extra instance. If sharing muxes are the real
    // problem, a bigger amount that fully unshares the pool may be the
    // only fix; amortize its cost over the added instances.
    const int unshare_amount = std::max(1, p.pool_members(r.pool) - pdesc.count);
    switch (r.kind) {
      case RestraintKind::kNoResource:
        if (helps_timing_with_instances(p, outcome, r.op, r.step, 1, eng)) {
          a.gain += r.weight;
        } else if (helps_timing_with_instances(p, outcome, r.op, r.step,
                                               unshare_amount, eng)) {
          a.amount = std::max(a.amount, unshare_amount);
          a.gain += r.weight;
        }
        break;
      case RestraintKind::kNegativeSlack:
        // Extra instances reduce sharing-mux depth; credit only when the
        // hypothetical timing works out.
        if (helps_timing_with_instances(p, outcome, r.op, r.step, 1, eng)) {
          a.gain += 0.5 * r.weight;
        } else if (helps_timing_with_instances(p, outcome, r.op, r.step,
                                               unshare_amount, eng)) {
          a.amount = std::max(a.amount, unshare_amount);
          a.gain += 0.5 * r.weight;
        }
        break;
      case RestraintKind::kCombCycle:
        a.gain += 0.5 * r.weight;
        break;
      default:
        break;
    }
  }
  for (auto& [pool, a] : add_resource) {
    a.cost *= a.amount;  // cost scales with the instances added
  }
  for (auto& [pool, a] : add_resource) {
    if (a.gain > 0) candidates.push_back(a);
  }

  // --- Memory family: add a port per bank, re-bank, widen a window. --------
  // Port pressure reads as "every bank saturated" (more ports per bank is
  // the direct lever), bank conflicts as "my bank saturated while another
  // idled" (re-placement is the direct lever, an extra port the indirect
  // one), window misses as "the contract closed too early" (only widening
  // helps, and only where the spec permits it).
  {
    std::map<int, Action> add_port;  // keyed by pool
    std::map<int, Action> rebank;    // keyed by pool
    std::map<int, Action> widen;     // keyed by module port
    const double adder_area = p.lib->fu_area(tech::FuClass::kAdder, 32);
    for (const Restraint& r : outcome.restraints) {
      if (!is_memory_restraint(r.kind) || p.memory == nullptr) continue;
      if (r.kind == RestraintKind::kWindowMiss) {
        if (r.op == kNoOp || r.op >= p.dfg->size()) continue;
        const ir::Op& o = p.dfg->op(r.op);
        const mem::WindowSpec* w = nullptr;
        for (const mem::WindowSpec& ws : p.memory->windows) {
          if (ws.port == static_cast<int>(o.port)) w = &ws;
        }
        if (w == nullptr || w->max_step_limit < 0) continue;  // hard contract
        const int cur = p.mem_window_max[r.op];
        if (cur < 0 || cur >= w->max_step_limit) continue;  // exhausted
        // Jump to the op's chain-feasible result step, but always make
        // progress by at least one step; never past the contract limit.
        const int target = std::min(
            w->max_step_limit,
            std::max(cur + 1, p.spans.spans[r.op].asap + p.pool_latency(r.op)));
        auto& a = widen[o.port];
        a.kind = ActionKind::kWidenWindow;
        a.port = o.port;
        a.window_start = std::max(a.window_start, target);
        a.cost = 0.5;
        a.gain += r.weight;
        continue;
      }
      if (r.pool < 0) continue;
      const auto& pdesc = p.resources.pools[static_cast<std::size_t>(r.pool)];
      if (!pdesc.is_memory) continue;
      const mem::ArraySpec& spec =
          p.memory->arrays[static_cast<std::size_t>(pdesc.mem_array)];
      const double port_area =
          p.lib->fu_area(tech::FuClass::kMemPort, pdesc.width);
      if (pdesc.ports_per_bank() < spec.max_ports_per_bank) {
        auto& a = add_port[r.pool];
        a.kind = ActionKind::kAddMemPort;
        a.pool = r.pool;
        a.amount = 1;
        // One new RW port in every bank.
        a.cost = std::max(0.25, pdesc.banks * port_area / adder_area);
        a.gain +=
            r.kind == RestraintKind::kPortPressure ? r.weight : 0.5 * r.weight;
      }
      if (pdesc.banks * 2 <= spec.max_banks) {
        auto& a = rebank[r.pool];
        a.kind = ActionKind::kRebank;
        a.pool = r.pool;
        // Doubling the banks duplicates the whole port array.
        a.cost = std::max(
            0.25, pdesc.banks * pdesc.ports_per_bank() * port_area / adder_area);
        a.gain += r.kind == RestraintKind::kBankConflict ? r.weight
                                                         : 0.25 * r.weight;
      }
    }
    for (auto& [pool, a] : add_port) {
      if (a.gain > 0) candidates.push_back(a);
    }
    for (auto& [pool, a] : rebank) {
      if (a.gain > 0) candidates.push_back(a);
    }
    for (auto& [port, a] : widen) {
      if (a.gain > 0) candidates.push_back(a);
    }
  }

  // --- ForbidBinding for combinational cycles. ---------------------------------
  for (const Restraint& r : outcome.restraints) {
    if (r.kind != RestraintKind::kCombCycle) continue;
    Action a;
    a.kind = ActionKind::kForbidBinding;
    a.op = r.op;
    a.pool = r.pool;
    a.instance = r.instance;
    a.cost = 0.3;
    a.gain = r.weight;
    candidates.push_back(a);
  }

  // --- MoveScc (the Section V relaxation; ablated in Table 4). ------------------
  if (opts.enable_move_scc && p.pipeline.enabled) {
    std::map<int, Action> move;
    for (const Restraint& r : outcome.restraints) {
      if (r.scc < 0) continue;
      // Window alignments repeat modulo II; once a few full phases have
      // been tried, sliding further cannot help and other levers (adding
      // resources to break sharing-mux delays) must take over.
      if (p.scc_move_count[static_cast<std::size_t>(r.scc)] >
          p.pipeline.ii + 2) {
        continue;
      }
      if (r.kind != RestraintKind::kNegativeSlack &&
          r.kind != RestraintKind::kSccWindow &&
          r.kind != RestraintKind::kNoStates) {
        continue;
      }
      // Current effective window start: pinned value or the earliest
      // placed member from the failed pass.
      int cur = p.scc_window_start[static_cast<std::size_t>(r.scc)];
      if (cur < 0) {
        cur = p.num_steps;
        for (OpId id : p.sccs[static_cast<std::size_t>(r.scc)]) {
          const auto& pl = outcome.schedule.placement[id];
          if (pl.scheduled) cur = std::min(cur, pl.step);
        }
        if (cur == p.num_steps) cur = 0;
      }
      // Jump far enough that the failed member fits at its chain-feasible
      // step (ASAP), but always make progress by at least one step.
      int target = cur + 1;
      if (r.op != kNoOp && r.op < p.spans.spans.size()) {
        target = std::max(target,
                          p.spans.spans[r.op].asap - p.pipeline.ii + 1);
      }
      if (target + p.pipeline.ii - 1 > p.num_steps - 1) continue;  // no room
      auto& a = move[r.scc];
      a.kind = ActionKind::kMoveScc;
      a.scc = r.scc;
      a.window_start = std::max(a.window_start, target);
      a.cost = 0.5;
      a.gain += r.weight;
    }
    for (auto& [scc, a] : move) candidates.push_back(a);
  }

  // --- AcceptSlack: strictly a last resort. --------------------------------------
  // Applicable when the remaining failures are timing-shaped: negative
  // slack, SCC windows that only close with a slack compromise, and their
  // downstream no-states cascade.
  const bool slack_shaped = std::any_of(
      outcome.restraints.begin(), outcome.restraints.end(),
      [](const Restraint& r) {
        return r.kind == RestraintKind::kNegativeSlack ||
               r.kind == RestraintKind::kSccWindow;
      });
  if (opts.allow_accept_slack && !p.accept_negative_slack &&
      candidates.empty() && slack_shaped && !outcome.restraints.empty()) {
    Action a;
    a.kind = ActionKind::kAcceptSlack;
    a.cost = 100.0;
    a.gain = 1.0;
    candidates.push_back(a);
  }

  ExpertDecision d;
  if (candidates.empty()) {
    d.narration = "expert: no applicable relaxation (overconstrained)";
    return d;
  }
  auto best = std::max_element(
      candidates.begin(), candidates.end(), [](const Action& a,
                                               const Action& b) {
        if (a.score() != b.score()) return a.score() < b.score();
        // Deterministic tie-break: prefer cheaper, then by kind order.
        if (a.cost != b.cost) return a.cost > b.cost;
        return static_cast<int>(a.kind) > static_cast<int>(b.kind);
      });
  d.has_action = true;
  d.action = *best;
  narration = strf("expert: ", outcome.restraints.size(), " restraints; ",
                   candidates.size(), " candidate actions; chose ",
                   best->to_string(p));
  d.narration = narration;
  return d;
}

int warm_start_frontier(const Problem& p, const Action& a,
                        const PassTrace& trace) {
  // AcceptSlack turns every failing timing verdict into a commit and
  // rewrites SCC releases, which leaves no safe prefix. The
  // accept-negative-slack endgame is also globally sensitive: any extra
  // instance extends the least-negative-candidate set of every bind.
  if (a.kind == ActionKind::kAcceptSlack || p.accept_negative_slack) return 0;

  int frontier = p.num_steps;
  switch (a.kind) {
    case ActionKind::kAddState: {
      // With the same ranks, releases and no earlier deadline, a pass over
      // more states offers the same ops in the same order at every step,
      // and every bind attempt sees the same occupancy and timing. Only
      // three things can differ: a deadline that moved later turns a
      // recorded fatal into a defer (stop at the first fatal of an op
      // whose deadline moved; one an SCC window still pins recurs
      // verbatim); a bind whose unit would run into the old last state,
      // refused there, may now fit (stop the largest latency short of
      // it); and an SDC bound clamped at the old state count may now rise
      // further (stop at the first clamp).
      const SpanShift& shift = p.span_shift;
      if (!shift.ranks_same || !shift.releases_same ||
          !shift.deadlines_not_earlier) {
        return 0;
      }
      int max_latency = 0;
      for (const alloc::ResourcePool& pool : p.resources.pools) {
        max_latency = std::max(max_latency, pool.latency_cycles);
      }
      frontier = std::min({frontier, shift.previous_num_steps - 1 - max_latency,
                           trace.first_saturation_step});
      for (const PassEvent& ev : trace.events) {
        if (ev.step >= frontier) break;  // events are step-ordered
        if (ev.kind != PassEvent::Kind::kCommit &&
            ev.kind != PassEvent::Kind::kDefer &&
            shift.deadline_moved[ev.op]) {
          frontier = ev.step;
          break;
        }
      }
      break;
    }
    case ActionKind::kAddResource: {
      const auto& pdesc = p.resources.pools[static_cast<std::size_t>(a.pool)];
      const int members = p.pool_members(a.pool);
      const int added = std::max(1, a.amount);
      const bool was_shared = members > pdesc.count - added;
      const bool now_shared = members > pdesc.count;
      if (was_shared != now_shared) return 0;  // every bind's muxes retime
      for (const PassEvent& ev : trace.events) {
        if ((ev.kind == PassEvent::Kind::kDefer ||
             ev.kind == PassEvent::Kind::kFatalBind) &&
            p.resources.pool_of(ev.op) == a.pool) {
          frontier = std::min(frontier, ev.step);
          break;  // events are step-ordered
        }
      }
      break;
    }
    case ActionKind::kForbidBinding: {
      for (const PassEvent& ev : trace.events) {
        if (ev.op == a.op) {
          frontier = std::min(frontier, ev.step);
          break;
        }
      }
      break;
    }
    case ActionKind::kMoveScc: {
      // MoveScc only re-pins scc_window_start: the clamp enters through
      // release()/deadline() of the SCC's MEMBERS (problem.cpp) and the
      // spans of every other op are untouched. Under the star-encoded II
      // windows nothing can diverge before the NEW window's earliest
      // member entry: members seed their constraint bound at release(),
      // non-member bounds move only through dependence edges from member
      // results (>= release + latency) or through the SCC anchor, whose
      // value is a function of member bounds — and every old-trace event
      // such a move can invalidate FOLLOWS some member event in step
      // order, which the first-member-event clamp below already covers.
      // The legacy window-tail bound (deadline - latency) is sound for
      // the same reasons; whichever is later wins, so warm passes after
      // a window move replay the longest provably-safe prefix (members
      // with latency >= II - 1 make the release bound the later one).
      const auto& members = p.sccs[static_cast<std::size_t>(a.scc)];
      std::vector<bool> is_member(p.dfg->size(), false);
      int release_floor = p.num_steps;
      int window_tail = p.num_steps;
      for (ir::OpId id : members) {
        is_member[id] = true;
        const int pool = p.resources.pool_of(id);
        const int lat =
            pool < 0
                ? 0
                : p.resources.pools[static_cast<std::size_t>(pool)]
                      .latency_cycles;
        release_floor = std::min(release_floor, std::max(0, p.release(id)));
        window_tail = std::min(window_tail, std::max(0, p.deadline(id) - lat));
      }
      frontier = std::min(frontier, std::max(release_floor, window_tail));
      for (const PassEvent& ev : trace.events) {
        if (ev.op != kNoOp && is_member[ev.op]) {
          frontier = std::min(frontier, ev.step);
          break;
        }
      }
      break;
    }
    default:
      return 0;
  }
  return std::max(frontier, 0);
}

void apply_action(Problem& p, const Action& a) {
  switch (a.kind) {
    case ActionKind::kAddState:
      p.num_steps += std::max(1, a.amount);
      refresh_spans(p);
      break;
    case ActionKind::kAddResource:
      p.resources.pools[static_cast<std::size_t>(a.pool)].count +=
          std::max(1, a.amount);
      break;
    case ActionKind::kForbidBinding:
      p.forbidden.insert({a.op, a.pool, a.instance});
      break;
    case ActionKind::kMoveScc:
      p.scc_window_start[static_cast<std::size_t>(a.scc)] = a.window_start;
      ++p.scc_move_count[static_cast<std::size_t>(a.scc)];
      break;
    case ActionKind::kAcceptSlack:
      p.accept_negative_slack = true;
      break;
    case ActionKind::kAddMemPort: {
      auto& pool = p.resources.pools[static_cast<std::size_t>(a.pool)];
      pool.bank_rw_ports += std::max(1, a.amount);
      pool.count = pool.banks * pool.ports_per_bank();
      break;
    }
    case ActionKind::kRebank: {
      auto& pool = p.resources.pools[static_cast<std::size_t>(a.pool)];
      pool.banks *= 2;
      pool.count = pool.banks * pool.ports_per_bank();
      refresh_memory_banks(p, a.pool);
      break;
    }
    case ActionKind::kWidenWindow: {
      for (OpId id : p.ops) {
        const ir::Op& o = p.dfg->op(id);
        if (o.kind != ir::OpKind::kRead && o.kind != ir::OpKind::kWrite) {
          continue;
        }
        if (static_cast<int>(o.port) != a.port || p.mem_window_max[id] < 0) {
          continue;
        }
        p.mem_window_max[id] = std::max(p.mem_window_max[id], a.window_start);
      }
      refresh_spans(p);
      break;
    }
  }
}

}  // namespace hls::sched
