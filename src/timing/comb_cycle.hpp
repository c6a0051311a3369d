// False combinational cycle avoidance (paper Figure 6, Section IV.B.3).
//
// Sharing muxes make resource-to-resource wiring permanent: if an op on
// resource A chains into an op on resource B in one state, and another
// state chains B into A, the netlist contains a combinational cycle even
// though no reachable state sensitizes it. The paper's tool avoids such
// bindings entirely rather than reporting false paths to logic synthesis.
//
// CombCycleGraph tracks chaining edges between resource instances across
// all states of one pass and answers "would adding this edge close a
// cycle?". The query runs once per chaining candidate inside
// BindingEngine::try_bind, so the graph keeps a topological order of its
// nodes, maintained on every add_edge with the Pearce–Kelly dynamic
// topological sort ("A dynamic topological sort algorithm for directed
// acyclic graphs", JEA 2006). A query from->to is answered at once when
// `to` is ordered after `from` (no path back can exist); otherwise a DFS
// from `to` skips every node ordered past `from`. The engine never adds
// an edge the query refused, so its graph stays acyclic; a caller that
// does close a cycle turns the graph cyclic, after which queries fall
// back to the plain DFS.
//
// Storage is dense adjacency indexed by instance id with an epoch-stamped
// visited scratch: no per-query allocation, no tree lookups. Instance ids
// are small dense integers (alloc::InstanceNumbering).
#pragma once

#include <cstdint>
#include <vector>

namespace hls::timing {

class CombCycleGraph {
 public:
  /// Nodes 0..num_nodes-1 exist up front; larger ids grow the graph.
  explicit CombCycleGraph(int num_nodes = 0);

  /// True if adding edge from->to would create a cycle (including the
  /// two-node cycle from->to->from). Self edges are cycles by definition.
  bool would_create_cycle(int from, int to) const;

  /// Records a chaining edge between resource instances (idempotent).
  void add_edge(int from, int to);

  /// True once an added edge closed a cycle; the topological order is
  /// then abandoned and queries use the plain DFS.
  bool cyclic() const { return cyclic_; }

 private:
  void ensure(int node);
  /// DFS from `from` looking for `to`, never entering nodes ordered past
  /// `max_ord`.
  bool reachable(int from, int to, int max_ord) const;
  /// Pearce–Kelly repair after inserting from->to with
  /// ord_[to] < ord_[from]; marks the graph cyclic instead when `to`
  /// reaches `from`.
  void reorder(int from, int to);

  /// out_[v] / in_[v]: successors / predecessors; degrees are tiny (an
  /// instance chains into a handful of others), so linear scans win.
  std::vector<std::vector<int>> out_;
  std::vector<std::vector<int>> in_;
  std::vector<int> ord_;  ///< topological position per node (a permutation)
  bool cyclic_ = false;
  mutable std::vector<std::uint32_t> seen_;  ///< visited iff == seen_epoch_
  mutable std::uint32_t seen_epoch_ = 0;
  mutable std::vector<int> work_;  ///< DFS stack scratch
  std::vector<int> fwd_;           ///< reorder scratch: affected successors
  std::vector<int> bwd_;           ///< reorder scratch: affected predecessors
  std::vector<int> slots_;         ///< reorder scratch: freed positions
};

}  // namespace hls::timing
