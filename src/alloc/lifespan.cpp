#include "alloc/lifespan.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace hls::alloc {

using ir::Dfg;
using ir::kNoOp;
using ir::LinearRegion;
using ir::Op;
using ir::OpId;
using ir::OpKind;
using tech::FuClass;

LifespanContext::LifespanContext(const Dfg& dfg_in, const LinearRegion& region,
                                 const tech::Library& lib_in)
    : dfg(&dfg_in), lib(&lib_in) {
  const std::size_t n = dfg_in.size();
  home.assign(n, -1);
  for (int s = 0; s < region.num_steps(); ++s) {
    for (OpId id : region.steps[s]) home[id] = s;
  }
  const auto in_region = [&](OpId id) { return home[id] >= 0; };

  // Dependence model must mirror the scheduler's: predicate edges only
  // matter for no-speculate consumers (writes). Speculable ops execute
  // regardless of their predicate, so the predicate producer does not
  // constrain their life span. Consts and outer values never constrain a
  // span either, so both lists keep region members only.
  deps.assign(n, {});
  users.assign(n, {});
  for (OpId id = 0; id < n; ++id) {
    if (!in_region(id)) continue;
    const Op& o = dfg_in.op(id);
    auto& d = deps[id];
    for (std::size_t i = 0; i < o.operands.size(); ++i) {
      if (o.kind == OpKind::kLoopMux && i == 1) continue;  // carried
      const OpId x = o.operands[i];
      if (x != kNoOp && in_region(x)) d.push_back(x);
    }
    if (o.pred != kNoOp && o.no_speculate && in_region(o.pred)) {
      d.push_back(o.pred);
    }
    std::sort(d.begin(), d.end());
    d.erase(std::unique(d.begin(), d.end()), d.end());
    for (OpId x : d) {
      // The carried edge constrains across iterations, not within one.
      if (o.kind == OpKind::kLoopMux && o.operands[1] == x) continue;
      users[x].push_back(id);
    }
  }
  for (OpId id : dfg_in.topo_order()) {
    if (in_region(id)) order.push_back(id);
  }

  fu_delay.assign(n, 0);
  mc_latency.assign(n, 0);
  for (OpId id : order) {
    const FuClass c = tech::fu_class_for(dfg_in, id);
    if (c == FuClass::kNone) continue;
    mc_latency[id] = lib_in.fu_latency_cycles(c);
    // Multi-cycle units are registered: no combinational delay to chain.
    if (mc_latency[id] == 0) {
      fu_delay[id] =
          lib_in.fu_delay_ps(c, tech::resource_width_for(dfg_in, id));
    }
  }
}

LifespanResult compute_lifespans(const LifespanContext& ctx, int num_steps,
                                 double tclk_ps, bool anchor_io,
                                 const std::vector<int>* window_min,
                                 const std::vector<int>* window_max) {
  HLS_ASSERT(num_steps >= 1, "region needs at least one step");
  const Dfg& dfg = *ctx.dfg;
  const tech::Library& lib = *ctx.lib;
  LifespanResult out;
  out.num_steps = num_steps;
  out.spans.assign(dfg.size(), OpSpan{});
  for (OpId id : ctx.order) out.spans[id].in_region = true;
  const auto home_step = [&](OpId id) {
    return std::min(ctx.home[id], num_steps - 1);
  };

  // Usable combinational window per cycle (optimistic: no sharing muxes).
  const double usable = tclk_ps - lib.reg_clk_to_q_ps() - lib.reg_setup_ps();
  const double launch = lib.reg_clk_to_q_ps();

  // ---- ASAP: forward chain packing ----------------------------------------
  for (OpId id : ctx.order) {
    OpSpan& sp = out.spans[id];
    const Op& o = dfg.op(id);
    const double fu = ctx.fu_delay[id];
    const int mc_latency = ctx.mc_latency[id];

    int step = 0;
    double arr_in = launch;  // region inputs / carried values are registered
    for (OpId d : ctx.deps[id]) {
      const OpSpan& ds = out.spans[d];
      const int d_result =
          ds.asap;  // multi-cycle result step already folded into asap below
      if (d_result > step) {
        step = d_result;
        arr_in = ds.asap_arrival_ps;
      } else if (d_result == step) {
        arr_in = std::max(arr_in, ds.asap_arrival_ps);
      }
    }
    if (mc_latency > 0) {
      // Operands must be registered: if anything chains into this step,
      // start one step later. Result is registered after mc_latency cycles.
      bool chained = false;
      for (OpId d : ctx.deps[id]) {
        if (out.spans[d].asap == step &&
            out.spans[d].asap_arrival_ps > launch) {
          chained = true;
        }
      }
      if (chained) ++step;
      step += mc_latency;  // result step
      sp.asap = step;
      sp.asap_arrival_ps = launch;
    } else {
      double arr_out = arr_in + fu;
      if (arr_out + lib.reg_setup_ps() > tclk_ps) {
        // Cut the chain: register inputs, move to the next step.
        ++step;
        arr_out = launch + fu;
        HLS_ASSERT(fu <= usable, "operation '", o.name, "' (",
                   tech::fu_class_name(tech::fu_class_for(dfg, id)),
                   ") cannot fit in the clock period even alone: ", fu,
                   " > ", usable, " ps");
      }
      sp.asap = step;
      sp.asap_arrival_ps = arr_out;
    }
    if (anchor_io && ir::is_io(o.kind)) {
      sp.asap = std::max(sp.asap, home_step(id));
      if (sp.asap != step) sp.asap_arrival_ps = launch + fu;
    }
    // Timing-window lower bound: the op may not start before wmin, and
    // because consumers read sp.asap the pin propagates downstream.
    if (window_min != nullptr && !window_min->empty() &&
        (*window_min)[id] >= 0) {
      const int wmin = std::min((*window_min)[id], num_steps - 1);
      if (wmin > sp.asap) {
        sp.asap = wmin;
        sp.asap_arrival_ps = launch + fu;
      }
    }
  }

  // ---- ALAP: mirrored backward chain packing --------------------------------
  // tail(op): combinational delay from the op's inputs to the next register
  // boundary below it; cuts_below: register stages strictly below the op.
  std::vector<double> tail(dfg.size(), 0);
  std::vector<int> cuts_below(dfg.size(), 0);
  for (auto it = ctx.order.rbegin(); it != ctx.order.rend(); ++it) {
    const OpId id = *it;
    OpSpan& sp = out.spans[id];
    const double fu = ctx.fu_delay[id];

    double max_tail = 0;
    int max_cuts = 0;
    for (OpId u : ctx.users[id]) {
      if (cuts_below[u] > max_cuts) {
        max_cuts = cuts_below[u];
        max_tail = tail[u];
      } else if (cuts_below[u] == max_cuts) {
        max_tail = std::max(max_tail, tail[u]);
      }
    }
    double t = max_tail + fu;
    int cuts = max_cuts;
    if (launch + t + lib.reg_setup_ps() > tclk_ps) {
      // The op cannot chain into its critical consumer: register boundary.
      ++cuts;
      t = fu;
    }
    if (ctx.mc_latency[id] > 0) {
      cuts += ctx.mc_latency[id];
      t = 0;
    }
    // Timing-window upper bound, folded into the cut count *before* it is
    // stored so producers of the windowed op inherit the earlier deadline
    // (unlike the anchor_io clamp below, which is op-local by design: home
    // steps already order the whole timed region).
    if (window_max != nullptr && !window_max->empty() &&
        (*window_max)[id] >= 0) {
      const int floor_cuts = num_steps - 1 - (*window_max)[id];
      if (floor_cuts > cuts) {
        cuts = floor_cuts;
        t = fu;  // the window acts as a register boundary below the op
      }
    }
    tail[id] = t;
    cuts_below[id] = cuts;
    sp.alap = num_steps - 1 - cuts;
    if (anchor_io && ir::is_io(dfg.op(id).kind)) {
      sp.alap = std::min(sp.alap, home_step(id));
    }
    if (sp.alap < sp.asap && out.feasible) {
      out.feasible = false;
      out.first_infeasible = id;
    }
  }
  return out;
}

}  // namespace hls::alloc
