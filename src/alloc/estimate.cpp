#include "alloc/estimate.hpp"

#include <algorithm>
#include <map>

#include "support/diagnostics.hpp"

namespace hls::alloc {

using ir::Dfg;
using ir::kNoOp;
using ir::OpId;

bool mutually_exclusive(const Dfg& dfg, OpId a, OpId b) {
  const ir::Op& oa = dfg.op(a);
  const ir::Op& ob = dfg.op(b);
  return oa.pred != kNoOp && oa.pred == ob.pred &&
         oa.pred_value != ob.pred_value;
}

ExclusivityMatrix::ExclusivityMatrix(const Dfg& dfg,
                                     const std::vector<OpId>& ops) {
  index_.assign(dfg.size(), -1);
  std::vector<OpId> predicated;
  for (OpId id : ops) {
    if (dfg.op(id).pred != kNoOp) {
      index_[id] = static_cast<int>(predicated.size());
      predicated.push_back(id);
    }
  }
  n_ = predicated.size();
  bits_.assign(n_ * n_, false);
  // Exclusive pairs share a predicate with opposite polarity, so only
  // true-side x false-side pairs within one predicate group need bits.
  std::map<OpId, std::pair<std::vector<int>, std::vector<int>>> by_pred;
  for (OpId id : predicated) {
    const ir::Op& o = dfg.op(id);
    auto& group = by_pred[o.pred];
    (o.pred_value ? group.first : group.second).push_back(index_[id]);
  }
  for (const auto& [pred, group] : by_pred) {
    for (int i : group.first) {
      for (int j : group.second) {
        bits_[static_cast<std::size_t>(i) * n_ + static_cast<std::size_t>(j)] =
            true;
        bits_[static_cast<std::size_t>(j) * n_ + static_cast<std::size_t>(i)] =
            true;
      }
    }
  }
}

namespace {

/// Effective op count after pairing off mutually exclusive ops: per
/// predicate op, the true-side and false-side ops can share instances
/// pairwise, so they contribute max(#true, #false) instead of the sum.
int effective_count(const Dfg& dfg, const std::vector<OpId>& ops) {
  int unpredicated = 0;
  std::map<OpId, std::pair<int, int>> by_pred;  // pred -> (true, false)
  for (OpId id : ops) {
    const ir::Op& o = dfg.op(id);
    if (o.pred == kNoOp) {
      ++unpredicated;
    } else if (o.pred_value) {
      ++by_pred[o.pred].first;
    } else {
      ++by_pred[o.pred].second;
    }
  }
  int n = unpredicated;
  for (const auto& [pred, tf] : by_pred) {
    n += std::max(tf.first, tf.second);
  }
  return n;
}

int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// A pool member as the interval sweep sees it.
struct SweepOp {
  int asap;
  int alap;
  int group;  ///< predicate group index; -1 = counts alone
  bool value;
};

/// max over step intervals [a, b] of ceil(N_eff(a, b) * occupancy /
/// (b - a + 1)), where N_eff counts the ops whose span lies inside the
/// interval. For each `a` one sweep over b adds ops as b reaches their
/// ALAP, keeping max(#true, #false) per predicate group incrementally:
/// O(S * (S + N)) per pool instead of building every interval's op list.
int interval_demand(std::vector<SweepOp>& ops, int num_groups, int num_steps,
                    int occupancy) {
  std::sort(ops.begin(), ops.end(),
            [](const SweepOp& x, const SweepOp& y) { return x.alap < y.alap; });
  std::vector<std::pair<int, int>> tally(static_cast<std::size_t>(num_groups));
  int demand = 1;
  for (int a = 0; a < num_steps; ++a) {
    std::fill(tally.begin(), tally.end(), std::pair<int, int>{0, 0});
    int n = 0;  // effective count of the ops added so far
    std::size_t next = 0;
    for (int b = a; b < num_steps; ++b) {
      // An op with asap >= a lies inside [a, b] from b = max(alap, a) on.
      for (; next < ops.size() && std::max(ops[next].alap, a) <= b; ++next) {
        const SweepOp& op = ops[next];
        if (op.asap < a) continue;
        if (op.group < 0) {
          ++n;
          continue;
        }
        auto& [t, f] = tally[static_cast<std::size_t>(op.group)];
        const int before = std::max(t, f);
        ++(op.value ? t : f);
        n += std::max(t, f) - before;
      }
      if (n > 0) demand = std::max(demand, ceil_div(n * occupancy, b - a + 1));
    }
  }
  return demand;
}

}  // namespace

ResourceSet estimate_initial_counts(const Dfg& dfg, ResourceSet set,
                                    const LifespanResult& spans,
                                    int num_steps,
                                    const EstimateOptions& opts) {
  const auto members = set.members();
  std::vector<SweepOp> sweep;
  std::map<OpId, int> groups;
  for (std::size_t p = 0; p < set.pools.size(); ++p) {
    const auto& ops = members[p];
    if (ops.empty()) {
      set.pools[p].count = 0;
      continue;
    }
    const int occupancy = std::max(1, set.pools[p].latency_cycles);
    sweep.clear();
    groups.clear();
    for (OpId id : ops) {
      const OpSpan& sp = spans.spans[id];
      const ir::Op& o = dfg.op(id);
      int group = -1;
      if (opts.use_mutual_exclusivity && o.pred != kNoOp) {
        group = groups.try_emplace(o.pred, static_cast<int>(groups.size()))
                    .first->second;
      }
      sweep.push_back({sp.asap, sp.alap, group, o.pred_value});
    }
    int demand = interval_demand(sweep, static_cast<int>(groups.size()),
                                 num_steps, occupancy);
    if (opts.pipeline_ii > 0) {
      // An instance is busy on all steps equivalent modulo II, so it offers
      // at most II slots regardless of the latency interval.
      const int n = opts.use_mutual_exclusivity
                        ? effective_count(dfg, ops)
                        : static_cast<int>(ops.size());
      demand = std::max(demand,
                        ceil_div(n * occupancy, opts.pipeline_ii));
    }
    set.pools[p].count = demand;
  }
  return set;
}

}  // namespace hls::alloc
