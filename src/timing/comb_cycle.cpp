#include "timing/comb_cycle.hpp"

#include <algorithm>
#include <limits>

namespace hls::timing {

CombCycleGraph::CombCycleGraph(int num_nodes) {
  if (num_nodes > 0) ensure(num_nodes - 1);
}

void CombCycleGraph::ensure(int node) {
  const std::size_t old = ord_.size();
  if (static_cast<std::size_t>(node) < old) return;
  const std::size_t n = static_cast<std::size_t>(node) + 1;
  out_.resize(n);
  in_.resize(n);
  seen_.resize(n, 0);
  // New nodes have no edges, so appending them keeps the order valid.
  ord_.resize(n);
  for (std::size_t v = old; v < n; ++v) ord_[v] = static_cast<int>(v);
}

bool CombCycleGraph::reachable(int from, int to, int max_ord) const {
  ++seen_epoch_;
  seen_[static_cast<std::size_t>(from)] = seen_epoch_;
  work_.clear();
  work_.push_back(from);
  while (!work_.empty()) {
    const int v = work_.back();
    work_.pop_back();
    for (const int w : out_[static_cast<std::size_t>(v)]) {
      if (w == to) return true;
      const auto wi = static_cast<std::size_t>(w);
      if (seen_[wi] != seen_epoch_ && ord_[wi] <= max_ord) {
        seen_[wi] = seen_epoch_;
        work_.push_back(w);
      }
    }
  }
  return false;
}

bool CombCycleGraph::would_create_cycle(int from, int to) const {
  if (from == to) return true;
  const int n = static_cast<int>(ord_.size());
  if (from >= n || to >= n) return false;  // an edgeless node
  if (cyclic_) return reachable(to, from, std::numeric_limits<int>::max());
  const int bound = ord_[static_cast<std::size_t>(from)];
  // Every path runs through increasing positions, so a path to->...->from
  // needs ord(to) < ord(from) and stays at positions below ord(from).
  if (ord_[static_cast<std::size_t>(to)] > bound) return false;
  return reachable(to, from, bound);
}

void CombCycleGraph::add_edge(int from, int to) {
  ensure(std::max(from, to));
  auto& succ = out_[static_cast<std::size_t>(from)];
  if (std::find(succ.begin(), succ.end(), to) != succ.end()) return;
  succ.push_back(to);
  in_[static_cast<std::size_t>(to)].push_back(from);
  if (cyclic_) return;
  if (from == to) {
    cyclic_ = true;
    return;
  }
  if (ord_[static_cast<std::size_t>(from)] < ord_[static_cast<std::size_t>(to)]) {
    return;  // already consistent
  }
  reorder(from, to);
}

void CombCycleGraph::reorder(int from, int to) {
  const int lb = ord_[static_cast<std::size_t>(to)];
  const int ub = ord_[static_cast<std::size_t>(from)];
  // Forward: everything `to` reaches inside the affected window [lb, ub].
  ++seen_epoch_;
  fwd_.clear();
  work_.clear();
  seen_[static_cast<std::size_t>(to)] = seen_epoch_;
  work_.push_back(to);
  while (!work_.empty()) {
    const int v = work_.back();
    work_.pop_back();
    fwd_.push_back(v);
    for (const int w : out_[static_cast<std::size_t>(v)]) {
      if (w == from) {
        cyclic_ = true;  // to reaches from: the new edge closed a cycle
        return;
      }
      const auto wi = static_cast<std::size_t>(w);
      if (seen_[wi] != seen_epoch_ && ord_[wi] < ub) {
        seen_[wi] = seen_epoch_;
        work_.push_back(w);
      }
    }
  }
  // Backward: everything reaching `from` inside the window. Disjoint from
  // the forward set, since a shared node would be a path to->...->from.
  ++seen_epoch_;
  bwd_.clear();
  seen_[static_cast<std::size_t>(from)] = seen_epoch_;
  work_.push_back(from);
  while (!work_.empty()) {
    const int v = work_.back();
    work_.pop_back();
    bwd_.push_back(v);
    for (const int w : in_[static_cast<std::size_t>(v)]) {
      const auto wi = static_cast<std::size_t>(w);
      if (seen_[wi] != seen_epoch_ && ord_[wi] > lb) {
        seen_[wi] = seen_epoch_;
        work_.push_back(w);
      }
    }
  }
  // Reuse the affected positions: predecessors first, then successors,
  // each keeping its relative order.
  const auto by_ord = [this](int a, int b) {
    return ord_[static_cast<std::size_t>(a)] < ord_[static_cast<std::size_t>(b)];
  };
  std::sort(fwd_.begin(), fwd_.end(), by_ord);
  std::sort(bwd_.begin(), bwd_.end(), by_ord);
  slots_.clear();
  for (const int v : bwd_) slots_.push_back(ord_[static_cast<std::size_t>(v)]);
  for (const int v : fwd_) slots_.push_back(ord_[static_cast<std::size_t>(v)]);
  std::sort(slots_.begin(), slots_.end());
  std::size_t k = 0;
  for (const int v : bwd_) ord_[static_cast<std::size_t>(v)] = slots_[k++];
  for (const int v : fwd_) ord_[static_cast<std::size_t>(v)] = slots_[k++];
}

}  // namespace hls::timing
