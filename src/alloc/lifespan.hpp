// Timing-aware ASAP / ALAP life spans (paper Section IV.A).
//
// Improving on pure step-level mobility (Sharma-Jain), life spans are
// computed with approximate timing: a greedy chain-packing pass walks the
// DFG in topological order accumulating combinational delay (ignoring
// sharing muxes, as the paper specifies for the initial estimate) and cuts
// the chain at register boundaries when the usable cycle time would be
// exceeded. ALAP mirrors the pass from the region's deadline.
#pragma once

#include <vector>

#include "ir/region.hpp"
#include "tech/library.hpp"

namespace hls::alloc {

struct OpSpan {
  int asap = 0;
  int alap = 0;
  /// Optimistic arrival of the op's output within its ASAP step (ps).
  double asap_arrival_ps = 0;
  bool in_region = false;

  int mobility() const { return alap - asap; }
};

struct LifespanResult {
  std::vector<OpSpan> spans;  ///< indexed by OpId; in_region marks members
  int num_steps = 0;          ///< the step count the spans were computed for
  bool feasible = true;       ///< false if some op has alap < asap
  ir::OpId first_infeasible = ir::kNoOp;
};

/// Everything the span sweeps read that does not depend on the step
/// count, the clock period or the timing windows: the dependence lists
/// (already filtered to region members, carried edges excluded), a
/// topological order of the region, each op's program-order home step
/// and its optimistic unit delay and multi-cycle latency. Built once per
/// scheduling problem and shared by every re-sweep (added states, widened
/// windows) and by every candidate of a minimum-II solve.
struct LifespanContext {
  LifespanContext(const ir::Dfg& dfg, const ir::LinearRegion& region,
                  const tech::Library& lib);

  const ir::Dfg* dfg;
  const tech::Library* lib;
  std::vector<ir::OpId> order;  ///< region ops, topological
  /// Per OpId: in-region dependences the ASAP sweep chains from, and
  /// in-region users the ALAP sweep cuts against.
  std::vector<std::vector<ir::OpId>> deps;
  std::vector<std::vector<ir::OpId>> users;
  std::vector<int> home;         ///< per OpId: region step, -1 = outside
  std::vector<double> fu_delay;  ///< optimistic (no sharing muxes), ps
  std::vector<int> mc_latency;   ///< unit latency, 0 = combinational
};

/// Computes spans for the context's region over `num_steps` control
/// steps. If `anchor_io` is true (timed regions), reads/writes are pinned
/// to their home step.
///
/// `window_min` / `window_max` (optional, indexed by OpId, -1 = none) fold
/// absolute I/O timing windows (mem::WindowSpec) into the spans: the ASAP
/// pass clamps an op's earliest step up to window_min (propagating to its
/// consumers), and the ALAP pass folds window_max into the register-cut
/// count *before* it is stored, so producers of a windowed op are pulled
/// earlier too. Both scheduler backends then enforce the window purely
/// through release()/deadline().
LifespanResult compute_lifespans(const LifespanContext& ctx, int num_steps,
                                 double tclk_ps, bool anchor_io,
                                 const std::vector<int>* window_min = nullptr,
                                 const std::vector<int>* window_max = nullptr);

}  // namespace hls::alloc
