#include "sched/problem.hpp"

#include <algorithm>
#include <utility>

#include "ir/analysis.hpp"
#include "support/diagnostics.hpp"

namespace hls::sched {

using ir::OpId;

int Problem::deadline_at(OpId id, int alap) const {
  int d = alap;
  if (pipeline.enabled && scc_of[id] >= 0) {
    const int ws = scc_window_start[static_cast<std::size_t>(scc_of[id])];
    if (ws >= 0) d = std::min(d, ws + pipeline.ii - 1);
  }
  return d;
}

int Problem::release(OpId id) const {
  // Clamp to the last state: when the region is too short the op is still
  // *tried* there, so the failure produces the specific restraint (busy /
  // slack) the expert reasons about, exactly as in the paper's Example 1.
  int r = std::min(spans.spans[id].asap, num_steps - 1);
  // In the accept-negative-slack endgame, SCC members may bind earlier
  // than their chain-feasible step: their II window traps them in an early
  // stage and they take the slack hit (the Table 4 ablation keeps an SCC
  // where it is, accumulating negative slack instead of moving it). Ops
  // outside SCCs keep their normal chain-feasible release.
  if (accept_negative_slack && pipeline.enabled && scc_of[id] >= 0) r = 0;
  if (pipeline.enabled && scc_of[id] >= 0) {
    const int ws = scc_window_start[static_cast<std::size_t>(scc_of[id])];
    if (ws >= 0) r = std::max(r, ws);
  }
  return r;
}

Problem build_problem(
    const ir::Dfg& dfg, const ir::LinearRegion& region,
    ir::LatencyBound latency, const tech::Library& lib, double tclk_ps,
    PipelineConfig pipeline, std::size_t num_ports, bool anchor_io,
    bool use_mutual_exclusivity, const mem::MemorySpec* memory,
    std::shared_ptr<const alloc::LifespanContext> span_context) {
  if (span_context == nullptr) {
    span_context =
        std::make_shared<const alloc::LifespanContext>(dfg, region, lib);
  }
  HLS_ASSERT(span_context->dfg == &dfg && span_context->lib == &lib,
             "span context built over a different design or library");
  Problem p;
  p.span_context = std::move(span_context);
  p.dfg = &dfg;
  p.lib = &lib;
  p.tclk_ps = tclk_ps;
  p.region = region;
  p.ops = region.all_ops();
  p.pipeline = pipeline;
  p.anchor_io = anchor_io;
  p.exclusive_colocation = use_mutual_exclusivity;

  // The paper starts scheduling at the minimum latency but estimates the
  // initial resource set against the maximum ("3 multiplies in at most 3
  // states -> one multiplier").
  p.num_steps = pipeline.enabled
                    ? std::max(latency.min, pipeline.ii + 1)
                    : latency.min;
  const int estimate_steps = std::max(latency.max, p.num_steps);
  auto estimate_spans = alloc::compute_lifespans(
      *p.span_context, estimate_steps, tclk_ps, anchor_io);
  auto set = alloc::cluster_resources(dfg, p.ops, lib);
  alloc::EstimateOptions eopts;
  eopts.pipeline_ii = pipeline.enabled ? pipeline.ii : 0;
  eopts.use_mutual_exclusivity = use_mutual_exclusivity;
  p.resources = alloc::estimate_initial_counts(dfg, std::move(set),
                                               estimate_spans, estimate_steps,
                                               eopts);

  // Memory pools: one per banked array, appended after the clustered FU
  // pools (reads/writes cluster to kNone, so the estimator never sees
  // them). Instances are bank-major (bank * ports_per_bank + offset), so
  // bank-conflict detection rides the flat-occupancy machinery unchanged.
  if (memory != nullptr && !memory->empty()) {
    memory->validate();
    p.memory = memory;
    p.mem_bank_of.assign(dfg.size(), -1);
    p.mem_window_min.assign(dfg.size(), -1);
    p.mem_window_max.assign(dfg.size(), -1);
    for (std::size_t ai = 0; ai < memory->arrays.size(); ++ai) {
      const mem::ArraySpec& a = memory->arrays[ai];
      alloc::ResourcePool pool;
      pool.cls = tech::FuClass::kMemPort;
      pool.is_memory = true;
      pool.mem_array = static_cast<int>(ai);
      pool.banks = a.banks;
      pool.bank_read_ports = a.bank_read_ports;
      pool.bank_write_ports = a.bank_write_ports;
      pool.bank_rw_ports = a.bank_rw_ports;
      pool.count = pool.banks * pool.ports_per_bank();
      pool.latency_cycles = a.latency_cycles;
      pool.name = "mem:" + a.name;
      const int pool_idx = static_cast<int>(p.resources.pools.size());
      int width = 1;
      for (OpId id : p.ops) {
        const ir::Op& o = dfg.op(id);
        if (o.kind != ir::OpKind::kRead && o.kind != ir::OpKind::kWrite) {
          continue;
        }
        const int port = static_cast<int>(o.port);
        if (port < a.first_port || port >= a.first_port + a.num_elems) {
          continue;
        }
        p.resources.op_pool[id] = pool_idx;
        p.mem_bank_of[id] = a.bank_of(port - a.first_port);
        width = std::max(width, tech::resource_width_for(dfg, id));
      }
      pool.width = width;
      p.resources.pools.push_back(std::move(pool));
    }
    for (const mem::WindowSpec& w : memory->windows) {
      for (OpId id : p.ops) {
        const ir::Op& o = dfg.op(id);
        if (o.kind != ir::OpKind::kRead && o.kind != ir::OpKind::kWrite) {
          continue;
        }
        if (static_cast<int>(o.port) != w.port) continue;
        p.mem_window_min[id] = w.min_step;
        p.mem_window_max[id] = w.max_step;
      }
    }
  }

  // SCCs restricted to region ops (inter-iteration dependency cycles).
  p.scc_of.assign(dfg.size(), -1);
  if (pipeline.enabled) {
    std::vector<bool> in_region(dfg.size(), false);
    for (OpId id : p.ops) in_region[id] = true;
    for (const auto& comp : ir::nontrivial_sccs(dfg)) {
      const bool inside = std::all_of(comp.begin(), comp.end(),
                                      [&](OpId id) { return in_region[id]; });
      if (!inside) continue;
      const int idx = static_cast<int>(p.sccs.size());
      for (OpId id : comp) p.scc_of[id] = idx;
      p.sccs.push_back(comp);
    }
    p.scc_window_start.assign(p.sccs.size(), -1);
    p.scc_move_count.assign(p.sccs.size(), 0);
  }

  p.excl = alloc::ExclusivityMatrix(dfg, p.ops);
  p.fanout_cones = ir::fanout_cone_sizes(dfg);

  p.pool_member_counts.assign(p.resources.pools.size(), 0);
  for (OpId id : p.ops) {
    const int pool = p.resources.pool_of(id);
    if (pool >= 0) ++p.pool_member_counts[static_cast<std::size_t>(pool)];
  }

  // Port write ordering.
  p.port_writes.assign(num_ports, {});
  for (OpId id : p.ops) {
    const ir::Op& o = dfg.op(id);
    if (o.kind == ir::OpKind::kWrite) p.port_writes[o.port].push_back(id);
  }

  refresh_spans(p);
  return p;
}

void refresh_spans(Problem& p) {
  const std::vector<int>* wmin =
      p.mem_window_min.empty() ? nullptr : &p.mem_window_min;
  const std::vector<int>* wmax =
      p.mem_window_max.empty() ? nullptr : &p.mem_window_max;
  alloc::LifespanResult next = alloc::compute_lifespans(
      *p.span_context, p.num_steps, p.tclk_ps, p.anchor_io, wmin, wmax);

  // Compare against the spans being replaced. SCC windows and the
  // accept-slack mode are not span state, so release() and deadline()
  // move exactly when their span terms do.
  SpanShift shift;
  shift.previous_num_steps = p.spans.num_steps;
  const bool comparable = !p.spans.spans.empty();
  bool uniform = comparable;  // every mobility moved by the same amount
  if (comparable) {
    shift.releases_same = true;
    shift.deadlines_not_earlier = true;
    shift.deadline_moved.assign(p.dfg->size(), false);
    const int old_last = p.spans.num_steps - 1;
    const int new_last = p.num_steps - 1;
    int delta = 0;
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
      const OpId id = p.ops[i];
      const alloc::OpSpan& was = p.spans.spans[id];
      const alloc::OpSpan& now = next.spans[id];
      const int d = now.mobility() - was.mobility();
      if (i == 0) delta = d;
      uniform = uniform && d == delta;
      if (now.asap != was.asap ||
          std::min(now.asap, new_last) != std::min(was.asap, old_last)) {
        shift.releases_same = false;
      }
      const int deadline_was = p.deadline_at(id, was.alap);
      const int deadline_now = p.deadline_at(id, now.alap);
      if (deadline_now < deadline_was) shift.deadlines_not_earlier = false;
      shift.deadline_moved[id] = deadline_now != deadline_was;
    }
  }
  p.spans = std::move(next);
  // Priorities differ only in mobility, so a uniform shift keeps the order.
  shift.ranks_same = uniform;
  if (!uniform) {
    PriorityOrder po = compute_priority_order(p);
    shift.ranks_same = po.rank == p.priority.rank;
    p.priority = std::move(po);
  }
  p.span_shift = std::move(shift);
}

void refresh_memory_banks(Problem& p, int pool_idx) {
  const alloc::ResourcePool& pool =
      p.resources.pools[static_cast<std::size_t>(pool_idx)];
  HLS_ASSERT(pool.is_memory && p.memory != nullptr,
             "refresh_memory_banks on non-memory pool ", pool_idx);
  // Evaluate the placement map at the pool's *current* bank count (the
  // spec keeps the starting value; re-bank mutates only the pool).
  mem::ArraySpec a =
      p.memory->arrays[static_cast<std::size_t>(pool.mem_array)];
  a.banks = pool.banks;
  for (OpId id : p.ops) {
    if (p.resources.pool_of(id) != pool_idx) continue;
    p.mem_bank_of[id] = a.bank_of(p.dfg->op(id).port - a.first_port);
  }
}

int scc_min_states(const Problem& p, const std::vector<OpId>& scc) {
  const ir::Dfg& dfg = *p.dfg;
  const tech::Library& lib = *p.lib;
  const double launch = lib.reg_clk_to_q_ps();
  std::vector<bool> member(dfg.size(), false);
  for (OpId id : scc) member[id] = true;

  const alloc::LifespanContext& ctx = *p.span_context;
  std::vector<int> state(dfg.size(), 0);
  std::vector<double> arrival(dfg.size(), launch);
  int needed = 1;
  for (OpId id : ctx.order) {  // SCCs are restricted to region ops
    if (!member[id]) continue;
    const ir::Op& o = dfg.op(id);
    const double fu = ctx.fu_delay[id];
    int st = 0;
    double arr = launch;  // external inputs come from registers
    for (std::size_t i = 0; i < o.operands.size(); ++i) {
      if (o.kind == ir::OpKind::kLoopMux && i == 1) continue;
      const OpId d = o.operands[i];
      if (d == ir::kNoOp || !member[d]) continue;
      if (state[d] > st) {
        st = state[d];
        arr = arrival[d];
      } else if (state[d] == st) {
        arr = std::max(arr, arrival[d]);
      }
    }
    double out = arr + fu;
    if (out + lib.reg_setup_ps() > p.tclk_ps) {
      ++st;
      out = launch + fu;
    }
    const int lat = ctx.mc_latency[id];
    if (lat > 0) {
      st += lat;
      out = launch;
    }
    state[id] = st;
    arrival[id] = out;
    needed = std::max(needed, st + 1);
  }
  return needed;
}

}  // namespace hls::sched
