#include "ir/dfg.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "support/diagnostics.hpp"

namespace hls::ir {

OpId Dfg::add(Op op) {
  for (OpId o : op.operands) {
    HLS_ASSERT(o == kNoOp || o < ops_.size(), "operand id out of range");
  }
  ops_.push_back(std::move(op));
  return static_cast<OpId>(ops_.size() - 1);
}

Dfg Dfg::from_ops(std::vector<Op> ops) {
  Dfg d;
  d.ops_ = std::move(ops);
  for (const Op& o : d.ops_) {
    for (OpId x : o.operands) {
      HLS_ASSERT(x == kNoOp || x < d.ops_.size(),
                 "from_ops: operand id out of range");
    }
    HLS_ASSERT(o.pred == kNoOp || o.pred < d.ops_.size(),
               "from_ops: pred id out of range");
  }
  return d;
}

const Op& Dfg::op(OpId id) const {
  HLS_ASSERT(id < ops_.size(), "op id ", id, " out of range");
  return ops_[id];
}

Op& Dfg::op_mut(OpId id) {
  HLS_ASSERT(id < ops_.size(), "op id ", id, " out of range");
  return ops_[id];
}

OpId Dfg::constant(std::int64_t value, Type t, std::string name) {
  Op o;
  o.kind = OpKind::kConst;
  o.type = t;
  o.imm = canonicalize(value, t);
  o.name = std::move(name);
  return add(std::move(o));
}

OpId Dfg::read(std::uint32_t port, Type t, std::string name) {
  Op o;
  o.kind = OpKind::kRead;
  o.type = t;
  o.port = port;
  o.name = std::move(name);
  return add(std::move(o));
}

OpId Dfg::write(std::uint32_t port, OpId value, std::string name) {
  Op o;
  o.kind = OpKind::kWrite;
  o.type = op(value).type;
  o.operands = {value};
  o.port = port;
  o.no_speculate = true;  // writes are side effects; never speculate
  o.name = std::move(name);
  return add(std::move(o));
}

OpId Dfg::binary(OpKind k, OpId a, OpId b, Type result, std::string name) {
  HLS_ASSERT(is_binary_arith(k), "binary() requires an arithmetic kind");
  Op o;
  o.kind = k;
  o.type = result;
  o.operands = {a, b};
  o.name = std::move(name);
  return add(std::move(o));
}

OpId Dfg::compare(OpKind k, OpId a, OpId b, std::string name) {
  HLS_ASSERT(is_compare(k), "compare() requires a comparison kind");
  Op o;
  o.kind = k;
  o.type = bool_ty();
  o.operands = {a, b};
  o.name = std::move(name);
  return add(std::move(o));
}

OpId Dfg::unary(OpKind k, OpId a, Type result, std::string name) {
  HLS_ASSERT(k == OpKind::kNeg || k == OpKind::kNot, "unary(): bad kind");
  Op o;
  o.kind = k;
  o.type = result;
  o.operands = {a};
  o.name = std::move(name);
  return add(std::move(o));
}

OpId Dfg::mux(OpId sel, OpId if_true, OpId if_false, std::string name) {
  HLS_ASSERT(op(sel).type.width == 1, "mux select must be 1 bit");
  Op o;
  o.kind = OpKind::kMux;
  o.type = op(if_true).type;
  o.operands = {sel, if_true, if_false};
  o.name = std::move(name);
  return add(std::move(o));
}

OpId Dfg::loop_mux(OpId init, Type t, std::string name) {
  Op o;
  o.kind = OpKind::kLoopMux;
  o.type = t;
  o.operands = {init, kNoOp};
  o.name = std::move(name);
  return add(std::move(o));
}

void Dfg::set_carried(OpId loop_mux_id, OpId carried) {
  Op& o = op_mut(loop_mux_id);
  HLS_ASSERT(o.kind == OpKind::kLoopMux, "set_carried on non-loop_mux");
  HLS_ASSERT(carried < ops_.size(), "carried id out of range");
  o.operands[1] = carried;
}

OpId Dfg::bit_range(OpId a, std::uint8_t hi, std::uint8_t lo,
                    std::string name) {
  HLS_ASSERT(hi >= lo && hi < op(a).type.width, "bad bit range");
  Op o;
  o.kind = OpKind::kBitRange;
  o.type = uint_ty(static_cast<std::uint8_t>(hi - lo + 1));
  o.operands = {a};
  o.hi = hi;
  o.lo = lo;
  o.name = std::move(name);
  return add(std::move(o));
}

OpId Dfg::concat(OpId high, OpId low, std::string name) {
  const int w = op(high).type.width + op(low).type.width;
  HLS_ASSERT(w <= 64, "concat result exceeds 64 bits");
  Op o;
  o.kind = OpKind::kConcat;
  o.type = uint_ty(static_cast<std::uint8_t>(w));
  o.operands = {high, low};
  o.aux = op(low).type.width;
  o.name = std::move(name);
  return add(std::move(o));
}

OpId Dfg::zext(OpId a, std::uint8_t width, std::string name) {
  Op o;
  o.kind = OpKind::kZExt;
  o.type = uint_ty(width);
  o.operands = {a};
  o.name = std::move(name);
  return add(std::move(o));
}

OpId Dfg::sext(OpId a, std::uint8_t width, std::string name) {
  Op o;
  o.kind = OpKind::kSExt;
  o.type = int_ty(width);
  o.operands = {a};
  o.name = std::move(name);
  return add(std::move(o));
}

OpId Dfg::trunc(OpId a, std::uint8_t width, std::string name) {
  Op o;
  o.kind = OpKind::kTrunc;
  o.type = Type{width, op(a).type.is_signed};
  o.operands = {a};
  o.name = std::move(name);
  return add(std::move(o));
}

void Dfg::set_pred(OpId id, OpId pred, bool pred_value) {
  HLS_ASSERT(op(pred).type.width == 1, "predicate must be 1 bit");
  Op& o = op_mut(id);
  o.pred = pred;
  o.pred_value = pred_value;
}

std::vector<std::vector<OpId>> Dfg::use_lists() const {
  std::vector<std::vector<OpId>> uses(ops_.size());
  for (OpId id = 0; id < ops_.size(); ++id) {
    const Op& o = ops_[id];
    for (std::size_t i = 0; i < o.operands.size(); ++i) {
      // The carried operand is a use with distance 1; it is still a use.
      if (o.operands[i] != kNoOp) uses[o.operands[i]].push_back(id);
    }
    if (o.pred != kNoOp) uses[o.pred].push_back(id);
  }
  return uses;
}

std::vector<OpId> Dfg::topo_order() const {
  // Kahn's algorithm over distance-0 edges. The adjacency holds one entry
  // per edge *instance* so duplicate operands (e.g. x+x) are counted right.
  std::vector<int> indegree(ops_.size(), 0);
  std::vector<std::vector<OpId>> adj(ops_.size());
  for (OpId id = 0; id < ops_.size(); ++id) {
    const Op& o = ops_[id];
    for (std::size_t i = 0; i < o.operands.size(); ++i) {
      if (o.kind == OpKind::kLoopMux && i == 1) continue;  // carried edge
      if (o.operands[i] == kNoOp) continue;
      adj[o.operands[i]].push_back(id);
      ++indegree[id];
    }
    if (o.pred != kNoOp) {
      adj[o.pred].push_back(id);
      ++indegree[id];
    }
  }
  // Min-heap on id: the smallest ready id always comes out first, which
  // makes the order deterministic.
  std::priority_queue<OpId, std::vector<OpId>, std::greater<>> ready;
  for (OpId id = 0; id < ops_.size(); ++id) {
    if (indegree[id] == 0) ready.push(id);
  }
  std::vector<OpId> order;
  order.reserve(ops_.size());
  while (!ready.empty()) {
    const OpId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (OpId u : adj[id]) {
      HLS_ASSERT(indegree[u] > 0, "topo indegree underflow");
      if (--indegree[u] == 0) ready.push(u);
    }
  }
  HLS_ASSERT(order.size() == ops_.size(),
             "combinational cycle in DFG (distance-0 edges)");
  return order;
}

std::int64_t Dfg::evaluate(const Op& op, const std::int64_t* args,
                           std::size_t nargs) {
  auto arg = [&](std::size_t i) -> std::int64_t {
    HLS_ASSERT(i < nargs, "evaluate: missing operand ", i, " for ",
               op_kind_name(op.kind));
    return args[i];
  };
  const Type t = op.type;
  switch (op.kind) {
    case OpKind::kConst: return op.imm;
    case OpKind::kAdd:
      return canonicalize(static_cast<std::int64_t>(
                              static_cast<std::uint64_t>(arg(0)) +
                              static_cast<std::uint64_t>(arg(1))),
                          t);
    case OpKind::kSub:
      return canonicalize(static_cast<std::int64_t>(
                              static_cast<std::uint64_t>(arg(0)) -
                              static_cast<std::uint64_t>(arg(1))),
                          t);
    case OpKind::kMul:
      return canonicalize(static_cast<std::int64_t>(
                              static_cast<std::uint64_t>(arg(0)) *
                              static_cast<std::uint64_t>(arg(1))),
                          t);
    case OpKind::kDiv: {
      const std::int64_t d = arg(1);
      if (d == 0) return 0;  // hardware convention: x/0 == 0 in this library
      if (arg(0) == INT64_MIN && d == -1) return canonicalize(INT64_MIN, t);
      return canonicalize(arg(0) / d, t);
    }
    case OpKind::kMod: {
      const std::int64_t d = arg(1);
      if (d == 0) return 0;
      if (arg(0) == INT64_MIN && d == -1) return 0;
      return canonicalize(arg(0) % d, t);
    }
    case OpKind::kNeg:
      return canonicalize(
          static_cast<std::int64_t>(-static_cast<std::uint64_t>(arg(0))), t);
    case OpKind::kAnd: return canonicalize(arg(0) & arg(1), t);
    case OpKind::kOr: return canonicalize(arg(0) | arg(1), t);
    case OpKind::kXor: return canonicalize(arg(0) ^ arg(1), t);
    case OpKind::kNot: return canonicalize(~arg(0), t);
    case OpKind::kShl: {
      const std::uint64_t sh = static_cast<std::uint64_t>(arg(1)) & 63u;
      return canonicalize(
          static_cast<std::int64_t>(static_cast<std::uint64_t>(arg(0)) << sh),
          t);
    }
    case OpKind::kShr: {
      const std::uint64_t sh = static_cast<std::uint64_t>(arg(1)) & 63u;
      // Arithmetic shift for signed inputs, logical for unsigned.
      if (t.is_signed) return canonicalize(arg(0) >> sh, t);
      return canonicalize(
          static_cast<std::int64_t>(static_cast<std::uint64_t>(arg(0)) >> sh),
          t);
    }
    case OpKind::kEq: return arg(0) == arg(1) ? 1 : 0;
    case OpKind::kNe: return arg(0) != arg(1) ? 1 : 0;
    case OpKind::kLt: return arg(0) < arg(1) ? 1 : 0;
    case OpKind::kLe: return arg(0) <= arg(1) ? 1 : 0;
    case OpKind::kGt: return arg(0) > arg(1) ? 1 : 0;
    case OpKind::kGe: return arg(0) >= arg(1) ? 1 : 0;
    case OpKind::kMux: return arg(0) != 0 ? arg(1) : arg(2);
    case OpKind::kZExt: {
      // Zero-extension reinterprets the operand bits unsigned.
      return canonicalize(arg(0), t);
    }
    case OpKind::kSExt: return canonicalize(arg(0), t);
    case OpKind::kTrunc: return canonicalize(arg(0), t);
    case OpKind::kBitRange: {
      const std::uint64_t v = static_cast<std::uint64_t>(arg(0));
      const std::uint64_t field = (op.hi - op.lo + 1 >= 64)
                                      ? v
                                      : ((v >> op.lo) &
                                         ((std::uint64_t{1}
                                           << (op.hi - op.lo + 1)) -
                                          1));
      return canonicalize(static_cast<std::int64_t>(field), t);
    }
    case OpKind::kConcat: {
      const std::uint64_t low_mask =
          op.aux >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << op.aux) - 1;
      const std::uint64_t v =
          (static_cast<std::uint64_t>(arg(0)) << op.aux) |
          (static_cast<std::uint64_t>(arg(1)) & low_mask);
      return canonicalize(static_cast<std::int64_t>(v), t);
    }
    case OpKind::kLoopMux:
    case OpKind::kRead:
    case OpKind::kWrite:
      throw InternalError(strf("evaluate() cannot execute ",
                               op_kind_name(op.kind),
                               "; handled by the interpreter"));
  }
  throw InternalError("unhandled op kind in evaluate()");
}

std::size_t Dfg::num_real_ops() const {
  std::size_t n = 0;
  for (const Op& o : ops_) {
    if (o.kind != OpKind::kConst) ++n;
  }
  return n;
}

}  // namespace hls::ir
