#include "sched/binder.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "support/diagnostics.hpp"
#include "support/strings.hpp"

namespace hls::sched {

using ir::kNoOp;
using ir::Op;
using ir::OpId;
using ir::OpKind;
using tech::FuClass;

DependenceGraph build_dependence_graph(const Problem& p) {
  const ir::Dfg& dfg = *p.dfg;
  DependenceGraph dg;
  dg.deps.assign(dfg.size(), {});
  dg.users.assign(dfg.size(), {});
  dg.port_next.assign(dfg.size(), kNoOp);
  dg.base_unmet.assign(dfg.size(), 0);
  for (OpId id : p.ops) {
    const Op& o = dfg.op(id);
    auto& d = dg.deps[id];
    for (std::size_t i = 0; i < o.operands.size(); ++i) {
      if (o.kind == OpKind::kLoopMux && i == 1) continue;  // carried
      const OpId x = o.operands[i];
      if (x == kNoOp) continue;
      if (!p.in_region(x)) continue;  // consts / outer values: registered
      d.push_back(x);
    }
    // Speculable ops execute regardless of their predicate (hardware
    // speculation); only no-speculate ops (writes) wait for the enable.
    if (o.pred != kNoOp && o.no_speculate && p.in_region(o.pred)) {
      d.push_back(o.pred);
    }
    std::sort(d.begin(), d.end());
    d.erase(std::unique(d.begin(), d.end()), d.end());
  }
  for (OpId id : p.ops) {
    for (OpId d : dg.deps[id]) dg.users[d].push_back(id);
    dg.base_unmet[id] = static_cast<int>(dg.deps[id].size());
  }
  // Port write ordering is an extra pseudo-dependence on the previous
  // write to the same port (availability = its placed step, no chaining
  // exception).
  for (const auto& writes : p.port_writes) {
    for (std::size_t i = 1; i < writes.size(); ++i) {
      dg.port_next[writes[i - 1]] = writes[i];
      ++dg.base_unmet[writes[i]];
    }
  }
  return dg;
}

BindingEngine::BindingEngine(const Problem& p, const DependenceGraph& dg,
                             timing::TimingEngine& eng, Host& host)
    : p_(&p), dfg_(p.dfg), dg_(&dg), eng_(&eng), host_(&host) {
  placement_.assign(dfg_->size(), OpPlacement{});
  failed_.assign(dfg_->size(), false);
  num_ = p_->resources.numbering();
  num_slots_ = p_->pipeline.enabled ? p_->pipeline.ii : p_->num_steps;
  occ_.assign(static_cast<std::size_t>(num_.total) *
                  static_cast<std::size_t>(num_slots_),
              {});
  busy_base_.reserve(p_->resources.pools.size());
  for (const auto& pool : p_->resources.pools) {
    busy_base_.push_back(busy_words_);
    busy_words_ += (pool.count + 63) / 64;
  }
  busy_bits_.assign(static_cast<std::size_t>(busy_words_) *
                        static_cast<std::size_t>(num_slots_),
                    0);
  inst_ops_.assign(static_cast<std::size_t>(num_.total), 0);
  tallies_.assign(dfg_->size(), RefusalTally{});
  // Without avoidance nothing queries the graph, so it stays empty.
  if (p_->avoid_comb_cycles) comb_graph_ = timing::CombCycleGraph(num_.total);
  if (p_->pipeline.enabled) {
    scc_steps_.assign(p_->sccs.size(), {std::numeric_limits<int>::max(),
                                        std::numeric_limits<int>::min()});
  }
  build_forbidden();
}

// ---- Forbidden table --------------------------------------------------------

void BindingEngine::build_forbidden() {
  if (p_->forbidden.empty()) return;
  forbidden_.assign(dfg_->size() * static_cast<std::size_t>(num_.total), 0);
  for (const auto& [op, pool, inst] : p_->forbidden) {
    if (pool < 0 || pool >= static_cast<int>(p_->resources.pools.size()) ||
        inst < 0 ||
        inst >= p_->resources.pools[static_cast<std::size_t>(pool)].count) {
      continue;
    }
    forbidden_[op * static_cast<std::size_t>(num_.total) +
               static_cast<std::size_t>(num_.global(pool, inst))] = 1;
  }
}

bool BindingEngine::is_forbidden(OpId id, int pool, int inst) const {
  if (forbidden_.empty()) return false;
  return forbidden_[id * static_cast<std::size_t>(num_.total) +
                    static_cast<std::size_t>(num_.global(pool, inst))] != 0;
}

// ---- Timing -----------------------------------------------------------------

double BindingEngine::operand_arrival(OpId d, int e) const {
  if (dfg_->is_const(d)) return 0;  // hard-wired constant
  if (!p_->in_region(d)) return p_->lib->reg_clk_to_q_ps();
  const OpPlacement& pl = placement_[d];
  HLS_ASSERT(pl.scheduled, "operand not scheduled");
  if (pl.step == e) return pl.arrival_ps;  // chained (or registered result)
  return p_->lib->reg_clk_to_q_ps();
}

/// All data operands (carried edges excluded) plus, for no-speculate
/// ops, the predicate (its enable must settle before the clock edge).
/// Fills the scratch query's arrivals (one gather per try_bind, not one
/// per candidate instance).
void BindingEngine::gather_arrivals(OpId id, int e) {
  const Op& o = dfg_->op(id);
  auto& arrivals = pq_.operand_arrivals_ps;
  arrivals.clear();
  for (std::size_t i = 0; i < o.operands.size(); ++i) {
    if (o.kind == OpKind::kLoopMux && i == 1) continue;
    if (o.operands[i] == kNoOp) continue;
    arrivals.push_back(operand_arrival(o.operands[i], e));
  }
  if (o.pred != kNoOp && o.no_speculate && p_->in_region(o.pred)) {
    arrivals.push_back(operand_arrival(o.pred, e));
  }
}

BindingEngine::MuxTiming BindingEngine::candidate_timing(OpId id, int e,
                                                         int pool, int inst,
                                                         int lat) {
  const int mux_inputs =
      lat == 0 && pool_shared(pool)
          ? std::max(2, inst_ops_[static_cast<std::size_t>(
                            num_.global(pool, inst))] +
                            1)
          : 0;
  const auto key = static_cast<std::size_t>(mux_inputs);
  if (key >= mux_timings_.size()) {
    mux_timings_.resize(key + 1);
    mux_stamp_.resize(key + 1, 0);
  }
  if (mux_stamp_[key] == bind_epoch_) return mux_timings_[key];
  if (arrivals_epoch_ != bind_epoch_) {
    gather_arrivals(id, e);
    arrivals_epoch_ = bind_epoch_;
  }
  MuxTiming t;
  const auto& pdesc = p_->resources.pools[static_cast<std::size_t>(pool)];
  if (lat > 0) {
    // Multi-cycle: operands must be registered at execution start.
    const bool registered = std::all_of(
        pq_.operand_arrivals_ps.begin(), pq_.operand_arrivals_ps.end(),
        [&](double a) { return a <= p_->lib->reg_clk_to_q_ps() + 1e-9; });
    if (!registered) {
      t.slack = -1e18;  // not representable: needs registered inputs
    } else {
      t.arrival = p_->lib->reg_clk_to_q_ps();  // registered result
      const double internal = p_->lib->fu_delay_into_cycle_ps(pdesc.cls) +
                              p_->lib->reg_setup_ps();
      t.slack = p_->tclk_ps - internal;
      t.ok = t.slack >= -1e-9;
    }
  } else {
    pq_.cls = pdesc.cls;
    pq_.width = pdesc.width;
    pq_.in_mux_inputs = mux_inputs;
    pq_.out_mux_inputs = mux_inputs;
    t.arrival = eng_->output_arrival_ps(pq_);
    t.slack = eng_->register_slack_ps(t.arrival);
    t.ok = t.slack >= -1e-9;
  }
  mux_stamp_[key] = bind_epoch_;
  mux_timings_[key] = t;
  return t;
}

// ---- Binding ----------------------------------------------------------------

bool BindingEngine::scc_window_ok(OpId id, int result_step) const {
  if (!p_->pipeline.enabled) return true;
  const int scc = p_->scc_of[id];
  if (scc < 0) return true;
  // The op itself is not placed yet, so the SCC's range is its members'.
  const auto [lo, hi] = scc_steps_[static_cast<std::size_t>(scc)];
  return std::max(hi, result_step) - std::min(lo, result_step) <=
         p_->pipeline.ii - 1;
}

bool BindingEngine::instance_free(OpId id, int pool, int inst, int e, int lat,
                                  bool excl_pred_ready) const {
  const int g = num_.global(pool, inst);
  const int span = std::max(1, lat);
  for (int s = e; s < e + span; ++s) {
    if (s >= p_->num_steps) return false;
    const auto& slot_ops =
        occ_[static_cast<std::size_t>(g) * static_cast<std::size_t>(num_slots_) +
             static_cast<std::size_t>(slot_of(s))];
    for (OpId other : slot_ops) {
      if (!(p_->exclusive_colocation && p_->exclusive(id, other))) {
        return false;
      }
      if (!excl_pred_ready) return false;
    }
  }
  return true;
}

const std::uint64_t* BindingEngine::busy_words(int pool, int e, int lat) {
  const auto& pdesc = p_->resources.pools[static_cast<std::size_t>(pool)];
  const auto row = [&](int s) {
    return busy_bits_.data() +
           static_cast<std::size_t>(slot_of(s)) *
               static_cast<std::size_t>(busy_words_) +
           static_cast<std::size_t>(busy_base_[static_cast<std::size_t>(pool)]);
  };
  if (lat <= 1) return row(e);  // one slot: its row as it stands
  const std::size_t words = static_cast<std::size_t>(pdesc.count + 63) / 64;
  busy_scratch_.assign(words, 0);
  for (int s = e; s < e + lat; ++s) {
    const std::uint64_t* r = row(s);
    for (std::size_t w = 0; w < words; ++w) busy_scratch_[w] |= r[w];
  }
  return busy_scratch_.data();
}

bool BindingEngine::creates_comb_cycle(int pool, int inst) const {
  const int me = num_.global(pool, inst);
  for (const int from : chained_from_) {
    if (comb_graph_.would_create_cycle(from, me)) return true;
  }
  return false;
}

bool BindingEngine::memory_instance_ok(OpId id,
                                       const alloc::ResourcePool& pool,
                                       int inst) const {
  const int ppb = pool.ports_per_bank();
  if (inst / ppb != p_->mem_bank(id)) return false;
  const int offset = inst % ppb;
  return dfg_->op(id).kind == OpKind::kWrite ? pool.offset_writes(offset)
                                             : pool.offset_reads(offset);
}

RestraintKind BindingEngine::classify_memory_busy(OpId id, int pool,
                                                  int e) const {
  // A closed timing window is the root cause whenever it is the binding
  // deadline: more ports cannot reopen it, only widening can.
  const int wmax = p_->window_max_of(id);
  if (wmax >= 0 && p_->deadline(id) == wmax) {
    return RestraintKind::kWindowMiss;
  }
  // Own bank saturated while another bank had a direction-compatible port
  // free at this very step: the placement map, not the port count, is at
  // fault — re-banking can spread the accesses.
  const auto& pdesc = p_->resources.pools[static_cast<std::size_t>(pool)];
  const int ppb = pdesc.ports_per_bank();
  const int lat = pdesc.latency_cycles;
  const bool is_write = dfg_->op(id).kind == OpKind::kWrite;
  for (int inst = 0; inst < pdesc.count; ++inst) {
    if (inst / ppb == p_->mem_bank(id)) continue;
    const int offset = inst % ppb;
    if (is_write ? !pdesc.offset_writes(offset) : !pdesc.offset_reads(offset)) {
      continue;
    }
    if (instance_free(id, pool, inst, e, lat, /*excl_pred_ready=*/false)) {
      return RestraintKind::kBankConflict;
    }
  }
  return RestraintKind::kPortPressure;
}

bool BindingEngine::try_bind(OpId id, int e) {
  const int pool = p_->resources.pool_of(id);
  if (pool < 0) return bind_free(id, e);

  const auto& pdesc = p_->resources.pools[static_cast<std::size_t>(pool)];
  const int lat = pdesc.latency_cycles;
  if (lat > 0 && p_->pipeline.enabled && lat > p_->pipeline.ii) {
    // A multi-cycle unit cannot be rebooked every II cycles.
    note_refusal(id, e, pool, -1, RefuseCause::kBusy);
    return false;
  }
  if (e + lat >= p_->num_steps) {
    // The registered result would land past the last state.
    note_refusal(id, e, pool, -1, RefuseCause::kBusy);
    return false;
  }

  // SCC window feasibility at this step (checked once, not per instance).
  if (!scc_window_ok(id, e + lat)) {
    note_refusal(id, e, pool, -1, RefuseCause::kWindow);
    return false;
  }

  ++bind_epoch_;  // new timing memo; operands gathered on the first miss
  // Exclusive sharing needs the op's predicate available at this step;
  // that is invariant across instances and slots, so check it once.
  const Op& o = dfg_->op(id);
  const bool excl_pred_ready =
      o.pred != kNoOp && p_->in_region(o.pred) &&
      placement_[o.pred].scheduled && placement_[o.pred].step <= e;

  // Memory-pooled writes keep the same-port/same-slot exclusivity rule
  // free writes get in bind_free (distinct bank ports do not make two
  // writes to ONE element in one step meaningful).
  if (pdesc.is_memory && o.kind == OpKind::kWrite) {
    for (OpId other : p_->port_writes[o.port]) {
      if (other == id || !placement_[other].scheduled) continue;
      const int other_slot = slot_of(placement_[other].step);
      if (other_slot == slot_of(e + lat) &&
          !(p_->exclusive_colocation && p_->exclusive(id, other))) {
        note_refusal(id, e, pool, -1, RefuseCause::kBusy);
        return false;
      }
    }
  }

  // Chained FU producers (registered results excepted): each new chaining
  // edge producer -> candidate must not close a comb cycle.
  chained_from_.clear();
  if (p_->avoid_comb_cycles) {
    for (OpId d : dg_->deps[id]) {
      const OpPlacement& pl = placement_[d];
      if (pl.step != e || pl.pool < 0 || latency_of(d) > 0) continue;
      chained_from_.push_back(num_.global(pl.pool, pl.instance));
    }
  }

  feasible_negative_.clear();
  const auto bind_instance = [&](int inst) {
    if (is_forbidden(id, pool, inst)) {
      note_refusal(id, e, pool, inst, RefuseCause::kForbidden);
      return false;
    }
    if (creates_comb_cycle(pool, inst)) {
      note_refusal(id, e, pool, inst, RefuseCause::kCycle);
      return false;
    }
    const MuxTiming t = candidate_timing(id, e, pool, inst, lat);
    if (!t.ok) {
      note_refusal(id, e, pool, inst, RefuseCause::kSlack, t.slack);
      if (t.slack > -1e17) feasible_negative_.push_back({inst, t.arrival, t.slack});
      return false;
    }
    commit(id, pool, inst, e, lat, t.arrival);
    return true;
  };

  if (!pdesc.is_memory && !(p_->exclusive_colocation && excl_pred_ready)) {
    // The op cannot share a slot: every occupied instance refuses as busy,
    // so count them in one go and try only the free ones, in order. The
    // count may include instances past the one that binds; only an op
    // that fails ever reads its tally.
    const std::uint64_t* busy_bits = busy_words(pool, e, lat);
    const int words = (pdesc.count + 63) / 64;
    int busy = 0;
    for (int w = 0; w < words; ++w) busy += std::popcount(busy_bits[w]);
    if (busy > 0) tally_at(id, e, pool).busy += busy;
    // First instance at or after `from` with a clear busy bit.
    const auto next_free = [&](int from) {
      for (int w = from / 64; w < words; ++w) {
        std::uint64_t free_bits = ~busy_bits[w];
        if (w == from / 64) free_bits &= ~std::uint64_t{0} << (from % 64);
        if (free_bits != 0) {
          return std::min(pdesc.count, w * 64 + std::countr_zero(free_bits));
        }
      }
      return pdesc.count;
    };
    for (int inst = next_free(0); inst < pdesc.count;
         inst = next_free(inst + 1)) {
      if (bind_instance(inst)) return true;
    }
  } else {
    for (int inst = 0; inst < pdesc.count; ++inst) {
      if (pdesc.is_memory && !memory_instance_ok(id, pdesc, inst)) {
        continue;  // wrong bank / direction: not a candidate, not a refusal
      }
      if (!instance_free(id, pool, inst, e, lat, excl_pred_ready)) {
        note_refusal(id, e, pool, inst, RefuseCause::kBusy);
        continue;
      }
      if (bind_instance(inst)) return true;
    }
  }
  if (p_->accept_negative_slack && !feasible_negative_.empty()) {
    // Last-resort mode: take the least-negative binding; logic synthesis
    // will have to recover the slack with area (Table 4's mechanism).
    auto best = std::max_element(
        feasible_negative_.begin(), feasible_negative_.end(),
        [](const Candidate& a, const Candidate& b) {
          return a.slack < b.slack;
        });
    commit(id, pool, best->instance, e, lat, best->arrival);
    return true;
  }
  return false;
}

bool BindingEngine::bind_free(OpId id, int e) {
  const Op& o = dfg_->op(id);
  if (!scc_window_ok(id, e)) {
    note_refusal(id, e, -1, -1, RefuseCause::kWindow);
    return false;
  }
  // Write-port conflict: two writes to one port in one step are only
  // allowed when mutually exclusive.
  if (o.kind == OpKind::kWrite) {
    for (OpId other : p_->port_writes[o.port]) {
      if (other == id || !placement_[other].scheduled) continue;
      const int other_slot = slot_of(placement_[other].step);
      if (other_slot == slot_of(e) &&
          !(p_->exclusive_colocation && p_->exclusive(id, other))) {
        note_refusal(id, e, -1, -1, RefuseCause::kBusy);
        return false;
      }
    }
  }
  gather_arrivals(id, e);
  pq_.cls = FuClass::kNone;  // wiring only: the latest operand arrival
  const double arrival = o.kind == OpKind::kRead
                             ? p_->lib->reg_clk_to_q_ps()
                             : eng_->output_arrival_ps(pq_);
  const double slack = eng_->register_slack_ps(arrival);
  if (slack < -1e-9 && !p_->accept_negative_slack) {
    note_refusal(id, e, -1, -1, RefuseCause::kSlack, slack);
    return false;
  }
  commit(id, -1, -1, e, 0, arrival);
  return true;
}

void BindingEngine::commit(OpId id, int pool, int inst, int e, int lat,
                           double arrival) {
  ++commits_;
  OpPlacement& pl = placement_[id];
  pl.scheduled = true;
  pl.step = e + lat;
  pl.pool = pool;
  pl.instance = inst;
  pl.arrival_ps = arrival;
  if (pool >= 0) {
    const int g = num_.global(pool, inst);
    const int span = std::max(1, lat);
    const std::size_t word = static_cast<std::size_t>(
        busy_base_[static_cast<std::size_t>(pool)] + inst / 64);
    for (int s = e; s < e + span; ++s) {
      const auto slot = static_cast<std::size_t>(slot_of(s));
      occ_[static_cast<std::size_t>(g) * static_cast<std::size_t>(num_slots_) +
           slot]
          .push_back(id);
      busy_bits_[slot * static_cast<std::size_t>(busy_words_) + word] |=
          std::uint64_t{1} << (inst % 64);
    }
    ++inst_ops_[static_cast<std::size_t>(g)];
    // Register chaining edges for false-cycle avoidance.
    if (lat == 0 && p_->avoid_comb_cycles) {
      for (OpId d : dg_->deps[id]) {
        const OpPlacement& dp = placement_[d];
        if (dp.step == e + lat && dp.pool >= 0 && latency_of(d) == 0) {
          comb_graph_.add_edge(num_.global(dp.pool, dp.instance), g);
        }
      }
    }
  }
  if (p_->pipeline.enabled && p_->scc_of[id] >= 0) {
    auto& [lo, hi] = scc_steps_[static_cast<std::size_t>(p_->scc_of[id])];
    lo = std::min(lo, pl.step);
    hi = std::max(hi, pl.step);
  }
  host_->on_commit(id, pool, inst, e, lat, arrival);

  // Release consumers: the result is available to them from `res_avail`
  // (chaining allows the commit step itself; otherwise the step after,
  // unless the result is registered within the step).
  const double thresh = p_->lib->reg_clk_to_q_ps() + 1e-9;
  const int res_avail = p_->enable_chaining
                            ? pl.step
                            : pl.step + (arrival <= thresh ? 0 : 1);
  for (OpId u : dg_->users[id]) host_->on_dep_satisfied(u, res_avail);
  if (dg_->port_next[id] != kNoOp) {
    host_->on_dep_satisfied(dg_->port_next[id], pl.step);
  }
}

// ---- Failure bookkeeping ----------------------------------------------------

BindingEngine::RefusalTally& BindingEngine::tally_at(OpId id, int e,
                                                    int pool) {
  RefusalTally& t = tallies_[id];
  if (t.step != e) {
    t = RefusalTally{};
    t.step = e;
  }
  t.pool = std::max(t.pool, pool);
  return t;
}

void BindingEngine::note_refusal(OpId id, int e, int pool, int inst,
                                 RefuseCause cause, double slack) {
  RefusalTally& t = tally_at(id, e, pool);
  switch (cause) {
    case RefuseCause::kBusy: ++t.busy; break;
    case RefuseCause::kForbidden: ++t.busy; break;
    case RefuseCause::kSlack:
      t.slack_seen = true;
      t.best_slack = std::max(t.best_slack, slack);
      break;
    case RefuseCause::kCycle:
      t.cycle_pool = pool;
      t.cycle_inst = inst;
      break;
    case RefuseCause::kWindow: t.window_seen = true; break;
  }
}

void BindingEngine::fatal(OpId id, int e) {
  failed_[id] = true;
  failed_list_.push_back(id);
  // Aggregate the refusal causes at the deadline step into restraints.
  const RefusalTally& t = tallies_[id];
  if (t.step == e) {
    const int busy = t.busy;
    const int pool = t.pool;
    const double best_slack = t.best_slack;
    const bool slack_seen = t.slack_seen;
    if (busy > 0) {
      Restraint r;
      r.kind =
          pool >= 0 &&
                  p_->resources.pools[static_cast<std::size_t>(pool)].is_memory
              ? classify_memory_busy(id, pool, e)
              : RestraintKind::kNoResource;
      r.op = id;
      r.step = e;
      r.pool = pool;
      r.weight = busy;
      restraints_.push_back(r);
    }
    if (slack_seen) {
      Restraint r;
      r.kind = RestraintKind::kNegativeSlack;
      r.op = id;
      r.step = e;
      r.pool = pool;
      r.slack_ps = best_slack;
      r.scc = p_->pipeline.enabled ? p_->scc_of[id] : -1;
      restraints_.push_back(r);
    }
    if (busy > 0 || slack_seen) {
      // Fan-in cone analysis (paper IV.B): when a failed op chains after
      // producers in the same state, the root cause may be THEIR pool
      // (e.g. a multiplier forced into the last state drags its consumer
      // over the clock). Emit secondary restraints against the chained
      // producers with decayed weight.
      for (OpId d : dg_->deps[id]) {
        const OpPlacement& dp = placement_[d];
        if (!dp.scheduled || dp.step != e || dp.pool < 0) continue;
        if (dp.arrival_ps <= p_->lib->reg_clk_to_q_ps() + 1e-9) continue;
        // Only blame the producer when congestion delayed it: it sits
        // later than its chain-feasible step, so more capacity in ITS
        // pool could move it (and this op's chain) earlier.
        if (p_->spans.spans[d].asap >= dp.step) continue;
        Restraint r;
        r.kind = RestraintKind::kNegativeSlack;
        r.op = d;
        r.step = e;
        r.pool = dp.pool;
        r.slack_ps = best_slack;
        r.scc = p_->pipeline.enabled ? p_->scc_of[d] : -1;
        r.weight = 0.5;
        restraints_.push_back(r);
      }
    }
    if (t.cycle_pool >= 0) {
      Restraint r;
      r.kind = RestraintKind::kCombCycle;
      r.op = id;
      r.step = e;
      r.pool = t.cycle_pool;
      r.instance = t.cycle_inst;
      restraints_.push_back(r);
    }
    if (t.window_seen) {
      Restraint r;
      r.kind = RestraintKind::kSccWindow;
      r.op = id;
      r.step = e;
      r.scc = p_->scc_of[id];
      restraints_.push_back(r);
    }
  }
  // Matches the historical behavior: an op that failed with no refusal
  // at the deadline step is marked failed without a restraint (the
  // no-states fallback bails out because `failed_` is already set).
}

bool BindingEngine::depends_on_failure(OpId id) const {
  for (OpId d : dg_->deps[id]) {
    if (failed_[d]) return true;
  }
  return false;
}

void BindingEngine::fatal_no_states(OpId id, int e) {
  if (failed_[id]) return;  // already reported
  failed_[id] = true;
  failed_list_.push_back(id);
  Restraint r;
  // Dependences that never became ready before a window-clamped deadline
  // are the window's fault: extra states cannot raise the deadline.
  const int wmax = p_->window_max_of(id);
  r.kind = wmax >= 0 && p_->deadline(id) == wmax ? RestraintKind::kWindowMiss
                                                 : RestraintKind::kNoStates;
  if (r.kind == RestraintKind::kWindowMiss) r.pool = p_->resources.pool_of(id);
  r.op = id;
  r.step = e;
  r.scc = p_->pipeline.enabled ? p_->scc_of[id] : -1;
  // Secondary failures (a dependence already failed) weigh less so the
  // expert is not flooded by the cascade.
  r.weight = depends_on_failure(id) ? 0.25 : 1.0;
  restraints_.push_back(r);
}

void BindingEngine::replay_fatal(OpId id,
                                 const std::vector<Restraint>& restraints) {
  failed_[id] = true;
  failed_list_.push_back(id);
  for (const Restraint& r : restraints) restraints_.push_back(r);
}

PassOutcome BindingEngine::finish() {
  PassOutcome out;
  out.success = std::none_of(p_->ops.begin(), p_->ops.end(),
                             [&](OpId id) { return failed_[id]; });
  out.schedule.num_steps = p_->num_steps;
  out.schedule.pipeline = p_->pipeline;
  out.schedule.resources = p_->resources;
  out.schedule.placement = std::move(placement_);
  out.restraints = std::move(restraints_);
  out.failed_ops = std::move(failed_list_);
  out.commits = commits_;
  if (out.success) {
    OpId worst_op = kNoOp;
    out.schedule.worst_slack_ps =
        finalize_timing(*p_, out.schedule, *eng_, &worst_op);
    if (out.schedule.worst_slack_ps < -1e-9 && !p_->accept_negative_slack) {
      // Mux growth after commit pushed a path over the clock period.
      out.success = false;
      Restraint r;
      r.kind = RestraintKind::kNegativeSlack;
      r.op = worst_op;
      r.step = out.schedule.placement[worst_op].step;
      r.pool = out.schedule.placement[worst_op].pool;
      r.slack_ps = out.schedule.worst_slack_ps;
      out.restraints.push_back(r);
      out.failed_ops.push_back(worst_op);
    }
  }
  return out;
}

// ---- Solver-side scaffolding ------------------------------------------------

SolverHost::SolverHost(const Problem& p, const DependenceGraph& dg,
                       timing::TimingEngine& eng)
    : p_(p),
      dfg_(*p.dfg),
      binder_(p, dg, eng, *this),
      po_(p.priority) {
  deferred_mark_.assign(dfg_.size(), 0);
  defer_logged_.assign(dfg_.size(), false);
}

void SolverHost::on_commit(OpId id, int pool, int inst, int e, int lat,
                           double arrival) {
  active_.erase(po_.rank[id]);
  PassEvent ev;
  ev.kind = PassEvent::Kind::kCommit;
  ev.op = id;
  ev.step = e;
  ev.pool = pool;
  ev.instance = inst;
  ev.lat = lat;
  ev.arrival_ps = arrival;
  trace_.events.push_back(std::move(ev));
}

void SolverHost::insert_active(OpId id) {
  active_.insert(po_.rank[id]);
  // The newcomer may rank before the scan cursor without being deferred;
  // the next pick_ready must see it.
  ready_cursor_epoch_ = 0;
  if (p_.anchor_io && ir::is_io(dfg_.op(id).kind)) {
    step_anchored_.push_back(id);
  }
}

OpId SolverHost::pick_ready() const {
  // Resume after the last rank OBSERVED deferred in this epoch: erases
  // cannot un-defer anything before the cursor, and inserts reset it, so
  // skipping the prefix returns exactly what a full scan would. Without
  // the cursor the bind loop is quadratic in the step's deferred set
  // (every defer re-scans the whole marked prefix) — the second-hottest
  // path of a large cold SDC solve.
  auto it = ready_cursor_epoch_ == deferred_epoch_
                ? active_.upper_bound(ready_cursor_rank_)
                : active_.begin();
  for (; it != active_.end(); ++it) {
    const int r = *it;
    const OpId id = po_.order[static_cast<std::size_t>(r)];
    if (deferred_mark_[id] == deferred_epoch_) {
      // Known-deferred prefix grows: remember it. The op we RETURN is
      // not part of it (the caller may still bind it).
      ready_cursor_epoch_ = deferred_epoch_;
      ready_cursor_rank_ = r;
      continue;
    }
    return id;
  }
  return kNoOp;
}

void SolverHost::defer(OpId id, int e) {
  deferred_mark_[id] = deferred_epoch_;
  // Only the first defer matters to the warm-start frontier (it has the
  // op's minimum failed-bind step); skip the rest to bound the trace.
  if (defer_logged_[id]) return;
  defer_logged_[id] = true;
  PassEvent ev;
  ev.kind = PassEvent::Kind::kDefer;
  ev.op = id;
  ev.step = e;
  trace_.events.push_back(std::move(ev));
}

void SolverHost::record_fatal(OpId id, int e, PassEvent::Kind kind,
                              std::size_t restraints_before) {
  PassEvent ev;
  ev.kind = kind;
  ev.op = id;
  ev.step = e;
  const auto& restraints = binder_.restraints();
  ev.restraints.assign(restraints.begin() +
                           static_cast<std::ptrdiff_t>(restraints_before),
                       restraints.end());
  trace_.events.push_back(std::move(ev));
}

void SolverHost::fatal(OpId id, int e) {
  const std::size_t restraints_before = binder_.num_restraints();
  active_.erase(po_.rank[id]);
  binder_.fatal(id, e);
  record_fatal(id, e, PassEvent::Kind::kFatalBind, restraints_before);
}

void SolverHost::fatal_no_states(OpId id, int e, PassEvent::Kind kind) {
  if (binder_.op_failed(id)) return;  // already reported
  const std::size_t restraints_before = binder_.num_restraints();
  active_.erase(po_.rank[id]);
  binder_.fatal_no_states(id, e);
  record_fatal(id, e, kind, restraints_before);
}

PassOutcome SolverHost::finish_pass() {
  PassOutcome out = binder_.finish();
  out.trace = std::move(trace_);
  out.replayed_events = replayed_events_;
  return out;
}

void SolverHost::apply_replay(const PassEvent& ev) {
  ++replayed_events_;
  switch (ev.kind) {
    case PassEvent::Kind::kCommit:
      binder_.commit(ev.op, ev.pool, ev.instance, ev.step, ev.lat,
                     ev.arrival_ps);
      break;
    case PassEvent::Kind::kDefer:
      defer_logged_[ev.op] = true;
      trace_.events.push_back(ev);
      break;
    case PassEvent::Kind::kFatalBind:
    case PassEvent::Kind::kFatalSweep:
      binder_.replay_fatal(ev.op, ev.restraints);
      active_.erase(po_.rank[ev.op]);
      trace_.events.push_back(ev);
      break;
    case PassEvent::Kind::kFatalFinal:
      break;  // never replayed; the final loop re-derives these
  }
}

// ---- The volume-cap fast-forward detector -----------------------------------

int provable_resource_overflow(const Problem& p) {
  const int slots = p.pipeline.enabled ? p.pipeline.ii : p.num_steps;
  int overflow = 0;
  for (std::size_t i = 0; i < p.resources.pools.size(); ++i) {
    // A multi-cycle member occupies `span` consecutive slots, so an
    // instance hosts at most slots/span ops (back-to-back packing).
    const int span = std::max(1, p.resources.pools[i].latency_cycles);
    const int capacity = p.resources.pools[i].count * (slots / span);
    overflow += std::max(0, p.pool_member_counts[i] - capacity);
  }
  return overflow;
}

int states_for_resources(const Problem& p) {
  int needed = p.num_steps;
  for (std::size_t i = 0; i < p.resources.pools.size(); ++i) {
    const int count = p.resources.pools[i].count;
    if (count <= 0 || p.pool_member_counts[i] == 0) continue;
    const int span = std::max(1, p.resources.pools[i].latency_cycles);
    needed = std::max(
        needed, ((p.pool_member_counts[i] + count - 1) / count) * span);
  }
  return needed;
}

// ---- Final timing and schedule invariants -----------------------------------

double finalize_timing(const Problem& p, Schedule& s,
                       timing::TimingEngine& eng, ir::OpId* worst_op_out) {
  const ir::Dfg& dfg = *p.dfg;
  // Final op count per instance determines the real mux sizes.
  const alloc::InstanceNumbering num = s.resources.numbering();
  std::vector<int> final_counts(static_cast<std::size_t>(num.total), 0);
  for (OpId id : p.ops) {
    const OpPlacement& pl = s.placement[id];
    if (pl.scheduled && pl.pool >= 0) {
      ++final_counts[static_cast<std::size_t>(num.global(pl.pool, pl.instance))];
    }
  }
  double worst = 1e18;
  OpId worst_op = kNoOp;
  timing::PathQuery q;
  // The region's ops in the DFG's topological order (the span context
  // filters Dfg::topo_order once per problem).
  for (OpId id : p.span_context->order) {
    OpPlacement& pl = s.placement[id];
    if (!pl.scheduled) continue;
    const Op& o = dfg.op(id);
    auto& arrivals = q.operand_arrivals_ps;
    arrivals.clear();
    for (std::size_t i = 0; i < o.operands.size(); ++i) {
      if (o.kind == OpKind::kLoopMux && i == 1) continue;
      const OpId d = o.operands[i];
      if (d == kNoOp) continue;
      if (dfg.is_const(d)) {
        arrivals.push_back(0);
      } else if (!p.in_region(d) || s.placement[d].step != pl.step) {
        arrivals.push_back(p.lib->reg_clk_to_q_ps());
      } else {
        arrivals.push_back(s.placement[d].arrival_ps);
      }
    }
    double arrival;
    if (pl.pool >= 0) {
      const auto& pdesc = s.resources.pools[static_cast<std::size_t>(pl.pool)];
      if (pdesc.latency_cycles > 0) {
        arrival = p.lib->reg_clk_to_q_ps();
      } else {
        const bool shared = p.pool_members(pl.pool) > pdesc.count;
        const int n = final_counts[static_cast<std::size_t>(
            num.global(pl.pool, pl.instance))];
        q.cls = pdesc.cls;
        q.width = pdesc.width;
        q.in_mux_inputs = shared ? std::max(2, n) : 0;
        q.out_mux_inputs = shared ? std::max(2, n) : 0;
        arrival = eng.output_arrival_ps(q);
      }
    } else if (o.kind == OpKind::kRead) {
      arrival = p.lib->reg_clk_to_q_ps();
    } else {
      q.cls = FuClass::kNone;
      arrival = eng.output_arrival_ps(q);
    }
    pl.arrival_ps = arrival;
    const double slack = eng.register_slack_ps(arrival);
    if (slack < worst) {
      worst = slack;
      worst_op = id;
    }
  }
  s.worst_slack_ps = worst == 1e18 ? 0 : worst;
  if (worst_op_out != nullptr) *worst_op_out = worst_op;
  return s.worst_slack_ps;
}

void check_schedule(const Problem& p, const Schedule& s) {
  const ir::Dfg& dfg = *p.dfg;
  auto fail = [&](const std::string& msg) {
    throw InternalError(strf("schedule invariant violated: ", msg));
  };
  // Every region op scheduled in range with a resource when needed.
  for (OpId id : p.ops) {
    const OpPlacement& pl = s.placement[id];
    if (!pl.scheduled) fail(strf("op %", id, " not scheduled"));
    if (pl.step < 0 || pl.step >= s.num_steps) {
      fail(strf("op %", id, " step out of range"));
    }
    const int pool = s.resources.pool_of(id);
    if (pool >= 0 && pl.pool != pool) {
      fail(strf("op %", id, " bound to wrong pool"));
    }
    if (pool >= 0 &&
        (pl.instance < 0 ||
         pl.instance >=
             s.resources.pools[static_cast<std::size_t>(pool)].count)) {
      fail(strf("op %", id, " instance out of range"));
    }
    // Memory legality: bound to a port of its own bank, direction ok.
    if (pool >= 0 &&
        s.resources.pools[static_cast<std::size_t>(pool)].is_memory) {
      const auto& pd = s.resources.pools[static_cast<std::size_t>(pool)];
      const int ppb = pd.ports_per_bank();
      if (pl.instance / ppb != p.mem_bank(id)) {
        fail(strf("op %", id, " bound to bank ", pl.instance / ppb,
                  " but placed in bank ", p.mem_bank(id)));
      }
      const int offset = pl.instance % ppb;
      const bool is_write = dfg.op(id).kind == OpKind::kWrite;
      if (is_write ? !pd.offset_writes(offset) : !pd.offset_reads(offset)) {
        fail(strf("op %", id, " bound to a direction-incompatible port"));
      }
    }
    // Timing windows (the accept-negative-slack endgame may legally pull
    // SCC members before their window opens; the deadline still holds).
    if (!p.mem_window_max.empty()) {
      const int wmin = p.mem_window_min[id];
      const int wmax = p.mem_window_max[id];
      if (!p.accept_negative_slack && wmin >= 0 && pl.step < wmin) {
        fail(strf("op %", id, " before its window opens at s", wmin + 1));
      }
      if (wmax >= 0 && pl.step > wmax) {
        fail(strf("op %", id, " after its window closes at s", wmax + 1));
      }
    }
  }
  // Dependences.
  for (OpId id : p.ops) {
    const Op& o = dfg.op(id);
    for (std::size_t i = 0; i < o.operands.size(); ++i) {
      if (o.kind == OpKind::kLoopMux && i == 1) continue;
      const OpId d = o.operands[i];
      if (d == kNoOp || dfg.is_const(d) || !p.in_region(d)) continue;
      if (s.placement[d].step > s.placement[id].step) {
        fail(strf("op %", id, " scheduled before operand %", d));
      }
    }
  }
  // Occupancy including pipeline-equivalent steps and multi-cycle spans.
  std::map<std::tuple<int, int, int>, std::vector<OpId>> occ;
  for (OpId id : p.ops) {
    const OpPlacement& pl = s.placement[id];
    if (pl.pool < 0) continue;
    const int lat =
        s.resources.pools[static_cast<std::size_t>(pl.pool)].latency_cycles;
    const int start = pl.step - lat;
    for (int t = start; t < start + std::max(1, lat); ++t) {
      const int slot = s.kernel_step(t);
      occ[{pl.pool, pl.instance, slot}].push_back(id);
    }
  }
  for (const auto& [key, ops] : occ) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        if (!alloc::mutually_exclusive(dfg, ops[i], ops[j])) {
          fail(strf("ops %", ops[i], " and %", ops[j],
                    " share an instance slot without exclusivity"));
        }
      }
    }
  }
  // SCC windows.
  if (p.pipeline.enabled) {
    for (const auto& scc : p.sccs) {
      int lo = s.num_steps;
      int hi = -1;
      for (OpId id : scc) {
        lo = std::min(lo, s.placement[id].step);
        hi = std::max(hi, s.placement[id].step);
      }
      if (hi - lo > p.pipeline.ii - 1) {
        fail(strf("SCC spans ", hi - lo + 1, " states > II=", p.pipeline.ii));
      }
    }
  }
  // Port write order.
  for (const auto& writes : p.port_writes) {
    for (std::size_t i = 1; i < writes.size(); ++i) {
      if (s.placement[writes[i - 1]].step > s.placement[writes[i]].step) {
        fail("port writes out of order");
      }
    }
  }
  // Timing.
  if (!p.accept_negative_slack && s.worst_slack_ps < -1e-9) {
    fail(strf("worst slack ", s.worst_slack_ps, "ps"));
  }
}

}  // namespace hls::sched
