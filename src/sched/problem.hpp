// The constrained scheduling problem handed to the pass scheduler, and
// mutated by the expert system between passes (states added, resources
// added, bindings forbidden, SCC windows moved).
#pragma once

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "alloc/estimate.hpp"
#include "alloc/lifespan.hpp"
#include "mem/memory.hpp"
#include "sched/priority.hpp"
#include "sched/schedule.hpp"
#include "tech/library.hpp"

namespace hls::sched {

/// How the most recent refresh_spans moved the spans it replaced. The
/// AddState warm-start frontier (warm_start_frontier, expert.hpp) keys off
/// it: a pass prefix can only replay when the new spans serve the same ops
/// in the same order no earlier and fail none of them sooner.
struct SpanShift {
  int previous_num_steps = 0;  ///< step count of the replaced spans; 0 = none
  bool ranks_same = false;     ///< the priority rank table is unchanged
  /// No op's release() moved (nor its ASAP, which anchored I/O reads as
  /// its home step).
  bool releases_same = false;
  bool deadlines_not_earlier = false;  ///< no op's deadline() moved earlier
  /// Per OpId: deadline() moved at all (empty when nothing was compared).
  std::vector<bool> deadline_moved;
};

struct Problem {
  const ir::Dfg* dfg = nullptr;
  const tech::Library* lib = nullptr;
  double tclk_ps = 0;

  ir::LinearRegion region;       ///< program-order home view
  std::vector<ir::OpId> ops;     ///< region ops, program order
  int num_steps = 1;             ///< current latency attempt (LI)
  alloc::ResourceSet resources;  ///< pools with instance counts
  PipelineConfig pipeline;

  // Feature switches (paper features + ablations).
  bool anchor_io = false;          ///< timed region: pin I/O to home steps
  bool enable_chaining = true;     ///< IV.B.2
  bool avoid_comb_cycles = true;   ///< IV.B.3
  bool exclusive_colocation = true;  ///< predicate-exclusive sharing
  /// Last-resort relaxation: accept negative slack instead of failing
  /// (the Table 4 ablation path; synthesis recovers the slack with area).
  bool accept_negative_slack = false;

  // Pipelining state (paper Section V).
  std::vector<std::vector<ir::OpId>> sccs;  ///< region-restricted SCCs
  std::vector<int> scc_of;                  ///< per OpId; -1 = none
  std::vector<int> scc_window_start;        ///< per SCC; -1 = unpinned
  std::vector<int> scc_move_count;          ///< MoveScc applications per SCC

  /// Bindings forbidden by comb-cycle restraints: (op, pool, instance).
  /// Small and expert-mutated; each pass flattens it into a dense per-op x
  /// per-instance table before entering the binding loops.
  std::set<std::tuple<ir::OpId, int, int>> forbidden;

  /// Mutual exclusivity over the region ops, precomputed once at build
  /// (alloc::mutually_exclusive re-derived per query was an inner-loop
  /// cost of instance_free).
  alloc::ExclusivityMatrix excl;
  bool exclusive(ir::OpId a, ir::OpId b) const { return excl.exclusive(a, b); }

  /// Per port: write ops in program order (ordering constraint).
  std::vector<std::vector<ir::OpId>> port_writes;

  /// Memory constraint family (nullptr = none; see docs/MEMORY.md). Pool
  /// geometry for the arrays lives on the `is_memory` ResourcePools; the
  /// tables below carry the per-op placement and current window state the
  /// expert system mutates between passes (re-bank moves elements across
  /// banks, widen-window raises mem_window_max).
  const mem::MemorySpec* memory = nullptr;
  std::vector<int> mem_bank_of;     ///< per OpId; -1 = not a memory access
  std::vector<int> mem_window_min;  ///< per OpId; -1 = unwindowed
  std::vector<int> mem_window_max;  ///< per OpId; -1 = unwindowed

  bool has_memory() const { return memory != nullptr; }
  int window_max_of(ir::OpId id) const {
    return mem_window_max.empty() ? -1
                                  : mem_window_max[static_cast<std::size_t>(id)];
  }
  int mem_bank(ir::OpId id) const {
    return mem_bank_of.empty() ? -1
                               : mem_bank_of[static_cast<std::size_t>(id)];
  }

  /// Fanout cone sizes (static per DFG), cached so priority recomputation
  /// only redoes the span-dependent mobility part.
  std::vector<int> fanout_cones;

  /// Region ops per resource pool (indexed like resources.pools). Pool
  /// membership is static per problem — only instance counts change — so
  /// the expert's cost model reads these instead of rescanning `ops` for
  /// every restraint pool (`pool_member_count` was a per-restraint O(n)
  /// walk once passes became cheap).
  std::vector<int> pool_member_counts;
  int pool_members(int pool) const {
    return pool < 0 ? 0 : pool_member_counts[static_cast<std::size_t>(pool)];
  }

  /// Pass-invariant span inputs (dependences, topological order, unit
  /// delays), shared by problem copies and by the candidates of a
  /// minimum-II solve.
  std::shared_ptr<const alloc::LifespanContext> span_context;
  /// Life spans for the current num_steps (refresh after changing it).
  alloc::LifespanResult spans;
  /// Scheduling-order ranks for the current spans; maintained by
  /// refresh_spans and read by every pass.
  PriorityOrder priority;
  /// What the last refresh_spans changed.
  SpanShift span_shift;

  bool in_region(ir::OpId id) const {
    return id < spans.spans.size() && spans.spans[id].in_region;
  }
  /// Latency in cycles of the op's resource pool (0 for ops that need no
  /// function unit). Both scheduler backends and the binding engine key
  /// start-deadline and result-step arithmetic off this.
  int pool_latency(ir::OpId id) const {
    const int pool = resources.pool_of(id);
    if (pool < 0) return 0;
    return resources.pools[static_cast<std::size_t>(pool)].latency_cycles;
  }
  /// Effective deadline step for an op (ALAP clamped by its SCC window).
  int deadline(ir::OpId id) const {
    return deadline_at(id, spans.spans[id].alap);
  }
  /// deadline() of the op if its ALAP step were `alap`.
  int deadline_at(ir::OpId id, int alap) const;
  /// Earliest step for an op (ASAP clamped by its SCC window).
  int release(ir::OpId id) const;
};

/// Assembles a Problem: clusters + estimates resources (using the latency
/// bound maximum, per the paper), computes SCCs for pipelined regions, and
/// fills derived tables. `num_ports` sizes the port-order tables.
/// `span_context` (optional) must have been built over the same dfg,
/// region and library; problems that share it skip rebuilding it.
Problem build_problem(
    const ir::Dfg& dfg, const ir::LinearRegion& region,
    ir::LatencyBound latency, const tech::Library& lib, double tclk_ps,
    PipelineConfig pipeline, std::size_t num_ports, bool anchor_io,
    bool use_mutual_exclusivity, const mem::MemorySpec* memory = nullptr,
    std::shared_ptr<const alloc::LifespanContext> span_context = nullptr);

/// Recomputes `spans` for the current num_steps (and window tables) by
/// re-running the ASAP/ALAP sweeps over `span_context`, re-sorts
/// `priority` unless every mobility shifted by the same amount, and
/// records the change in `span_shift`.
void refresh_spans(Problem& p);

/// Recomputes `mem_bank_of` for the ops of memory pool `pool` from the
/// pool's current bank count (after the expert's re-bank action).
void refresh_memory_banks(Problem& p, int pool);

/// Minimum number of states the SCC's internal dependence chain needs with
/// all external inputs registered (optimistic chaining, no sharing muxes).
/// This is the recurrence bound: if it exceeds II, no window placement can
/// satisfy the paper's SCC-within-II-states condition.
int scc_min_states(const Problem& p, const std::vector<ir::OpId>& scc);

}  // namespace hls::sched
