#include "sched/priority.hpp"

#include <algorithm>

#include "sched/problem.hpp"

namespace hls::sched {

PriorityOrder compute_priority_order(const Problem& p) {
  const ir::Dfg& dfg = *p.dfg;
  std::vector<Priority> priorities(dfg.size());
  for (ir::OpId id : p.ops) {
    Priority& pr = priorities[id];
    pr.op = id;
    pr.mobility = p.spans.spans[id].mobility();
    pr.fanout_cone = p.fanout_cones[id];
    const tech::FuClass cls = tech::fu_class_for(dfg, id);
    pr.complexity =
        cls == tech::FuClass::kNone
            ? 0
            : p.lib->fu_delay_ps(cls, tech::resource_width_for(dfg, id));
  }
  PriorityOrder po;
  po.order = p.ops;
  std::sort(po.order.begin(), po.order.end(), [&](ir::OpId a, ir::OpId b) {
    return priorities[a].before(priorities[b]);
  });
  po.rank.assign(dfg.size(), static_cast<int>(dfg.size()));
  for (std::size_t i = 0; i < po.order.size(); ++i) {
    po.rank[po.order[i]] = static_cast<int>(i);
  }
  return po;
}

}  // namespace hls::sched
