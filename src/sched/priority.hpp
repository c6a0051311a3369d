// List-scheduling priorities (paper Figure 7 and Section IV.B): "The
// priority function takes into account the mobility of the operations
// defined by timing-aware ASAP/ALAP intervals (similar to Force-Directed
// Scheduling), the complexity of operations (more complex ones are
// scheduled first), the size of the fanout cone of an operation".
#pragma once

#include <vector>

#include "ir/op.hpp"

namespace hls::sched {

struct Problem;

struct Priority {
  int mobility = 0;        ///< smaller = more urgent
  double complexity = 0;   ///< unit delay; larger first
  int fanout_cone = 0;     ///< larger first
  ir::OpId op = ir::kNoOp; ///< ascending id tie break

  /// True if *this should be scheduled before `other`.
  bool before(const Priority& other) const {
    if (mobility != other.mobility) return mobility < other.mobility;
    if (complexity != other.complexity) return complexity > other.complexity;
    if (fanout_cone != other.fanout_cone) {
      return fanout_cone > other.fanout_cone;
    }
    return op < other.op;
  }
};

/// The total scheduling order both backends serve their ready sets in, as
/// a dense rank per OpId and its inverse. Rank 0 is the op `before` puts
/// first; non-region ops get rank dfg.size(). Since `before` is a strict
/// total order (the op-id tie break), a single int compare on ranks
/// reproduces it exactly — the ready queues sort on ranks instead of
/// re-running the four-field comparison per pick.
struct PriorityOrder {
  std::vector<int> rank;        ///< OpId -> scheduling-order rank
  std::vector<ir::OpId> order;  ///< rank -> OpId
};

/// Sorts the problem's region ops by `Priority::before` over their
/// current spans. Only mobility depends on the spans, so refresh_spans
/// (problem.hpp) calls this only when the mobilities did not all shift by
/// the same amount; the table lives on the Problem and passes read it.
PriorityOrder compute_priority_order(const Problem& p);

}  // namespace hls::sched
