// Tests for src/ir/: bit-accurate types, DFG construction and use lists,
// region tree invariants, module/design containers, printing, structural
// validation, and the Tarjan SCC / dependence analyses.
#include <gtest/gtest.h>

#include <algorithm>

#include "frontend/builder.hpp"
#include "ir/analysis.hpp"
#include "ir/print.hpp"
#include "ir/validate.hpp"
#include "workloads/example1.hpp"

namespace hls::ir {
namespace {

// ---- Types -----------------------------------------------------------------

TEST(Type, CanonicalizeSigned) {
  EXPECT_EQ(canonicalize(255, int_ty(8)), -1);
  EXPECT_EQ(canonicalize(127, int_ty(8)), 127);
  EXPECT_EQ(canonicalize(128, int_ty(8)), -128);
  EXPECT_EQ(canonicalize(-1, int_ty(8)), -1);
  EXPECT_EQ(canonicalize(INT64_MIN, int_ty(64)), INT64_MIN);
}

TEST(Type, CanonicalizeUnsigned) {
  EXPECT_EQ(canonicalize(-1, uint_ty(8)), 255);
  EXPECT_EQ(canonicalize(256, uint_ty(8)), 0);
  EXPECT_EQ(canonicalize(5, uint_ty(3)), 5);
  EXPECT_EQ(canonicalize(8, uint_ty(3)), 0);
}

TEST(Type, MinMax) {
  EXPECT_EQ(type_min(int_ty(8)), -128);
  EXPECT_EQ(type_max(int_ty(8)), 127);
  EXPECT_EQ(type_min(uint_ty(8)), 0);
  EXPECT_EQ(type_max(uint_ty(8)), 255);
  EXPECT_EQ(type_max(bool_ty()), 1);
}

TEST(Type, MinWidthFor) {
  EXPECT_EQ(min_width_for(0, true), 1);
  EXPECT_EQ(min_width_for(-1, true), 1);
  EXPECT_EQ(min_width_for(1, true), 2);
  EXPECT_EQ(min_width_for(127, true), 8);
  EXPECT_EQ(min_width_for(128, true), 9);
  EXPECT_EQ(min_width_for(255, false), 8);
  EXPECT_EQ(min_width_for(-5, false), 64);
}

class CanonicalizeRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalizeRoundTrip, IdempotentAtEveryWidth) {
  const auto w = static_cast<std::uint8_t>(GetParam());
  for (std::int64_t v : {std::int64_t{-1000}, std::int64_t{-1},
                         std::int64_t{0}, std::int64_t{1},
                         std::int64_t{12345}, INT64_MAX, INT64_MIN}) {
    for (bool s : {false, true}) {
      const Type t{w, s};
      const auto once = canonicalize(v, t);
      EXPECT_EQ(canonicalize(once, t), once) << "w=" << int(w) << " s=" << s;
      EXPECT_GE(once, type_min(t));
      EXPECT_LE(once, type_max(t));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CanonicalizeRoundTrip,
                         ::testing::Values(1, 2, 3, 7, 8, 15, 16, 31, 32, 33,
                                           48, 63));

// ---- DFG --------------------------------------------------------------------

TEST(Dfg, ConstructionAndEvaluate) {
  Dfg d;
  const OpId a = d.constant(6, int_ty(32));
  const OpId b = d.constant(7, int_ty(32));
  const OpId m = d.binary(OpKind::kMul, a, b, int_ty(32));
  const std::int64_t args[] = {6, 7};
  EXPECT_EQ(Dfg::evaluate(d.op(m), args, 2), 42);
  EXPECT_EQ(d.size(), 3u);
}

TEST(Dfg, EvaluateWrapsToWidth) {
  Dfg d;
  const OpId a = d.constant(100, int_ty(8));
  const OpId b = d.constant(100, int_ty(8));
  const OpId s = d.binary(OpKind::kAdd, a, b, int_ty(8));
  const std::int64_t args[] = {100, 100};
  EXPECT_EQ(Dfg::evaluate(d.op(s), args, 2), canonicalize(200, int_ty(8)));
  EXPECT_EQ(Dfg::evaluate(d.op(s), args, 2), -56);
}

TEST(Dfg, EvaluateDivisionByZeroIsZero) {
  Dfg d;
  const OpId a = d.constant(5, int_ty(32));
  const OpId b = d.constant(0, int_ty(32));
  const OpId q = d.binary(OpKind::kDiv, a, b, int_ty(32));
  const OpId r = d.binary(OpKind::kMod, a, b, int_ty(32));
  const std::int64_t args[] = {5, 0};
  EXPECT_EQ(Dfg::evaluate(d.op(q), args, 2), 0);
  EXPECT_EQ(Dfg::evaluate(d.op(r), args, 2), 0);
}

TEST(Dfg, EvaluateShiftsAndBits) {
  Dfg d;
  const OpId a = d.constant(-8, int_ty(8));
  const OpId sh = d.constant(1, uint_ty(3));
  const OpId shr = d.binary(OpKind::kShr, a, sh, int_ty(8));
  const std::int64_t args[] = {-8, 1};
  EXPECT_EQ(Dfg::evaluate(d.op(shr), args, 2), -4);  // arithmetic shift

  const OpId u = d.constant(0xF0, uint_ty(8));
  const OpId br = d.bit_range(u, 7, 4);
  const std::int64_t args2[] = {0xF0};
  EXPECT_EQ(Dfg::evaluate(d.op(br), args2, 1), 0xF);
}

TEST(Dfg, ConcatPacksOperands) {
  Dfg d;
  const OpId hi = d.constant(0xA, uint_ty(4));
  const OpId lo = d.constant(0x5, uint_ty(4));
  const OpId cc = d.concat(hi, lo);
  EXPECT_EQ(d.op(cc).type.width, 8);
  const std::int64_t args[] = {0xA, 0x5};
  EXPECT_EQ(Dfg::evaluate(d.op(cc), args, 2), 0xA5);
}

TEST(Dfg, TopoOrderRespectsDependences) {
  Dfg d;
  const OpId a = d.constant(1, int_ty(32));
  const OpId b = d.constant(2, int_ty(32));
  const OpId s = d.binary(OpKind::kAdd, a, b, int_ty(32));
  const OpId t = d.binary(OpKind::kMul, s, b, int_ty(32));
  const auto order = d.topo_order();
  auto pos = [&](OpId x) {
    return std::find(order.begin(), order.end(), x) - order.begin();
  };
  EXPECT_LT(pos(a), pos(s));
  EXPECT_LT(pos(b), pos(s));
  EXPECT_LT(pos(s), pos(t));
}

TEST(Dfg, TopoOrderTakesSmallestReadyIdFirst) {
  Dfg d;
  const OpId a = d.constant(1, int_ty(32));            // %0, ready
  const OpId s = d.binary(OpKind::kAdd, a, a, int_ty(32));  // %1, after %0
  const OpId b = d.constant(2, int_ty(32));            // %2, ready
  const OpId t = d.binary(OpKind::kMul, b, s, int_ty(32));  // %3
  // First-in-first-out would emit %2 before %1; the order always takes
  // the smallest ready id.
  EXPECT_EQ(d.topo_order(), (std::vector<OpId>{a, s, b, t}));
}

TEST(Dfg, TopoOrderIgnoresCarriedEdge) {
  Dfg d;
  const OpId init = d.constant(0, int_ty(32));
  const OpId lm = d.loop_mux(init, int_ty(32));
  const OpId one = d.constant(1, int_ty(32));
  const OpId inc = d.binary(OpKind::kAdd, lm, one, int_ty(32));
  d.set_carried(lm, inc);  // cycle through the carried edge only
  EXPECT_NO_THROW(d.topo_order());
}

TEST(Dfg, UseListsIncludeCarriedAndPred) {
  Dfg d;
  const OpId init = d.constant(0, int_ty(32));
  const OpId lm = d.loop_mux(init, int_ty(32));
  const OpId one = d.constant(1, int_ty(32));
  const OpId inc = d.binary(OpKind::kAdd, lm, one, int_ty(32));
  d.set_carried(lm, inc);
  const auto uses = d.use_lists();
  EXPECT_EQ(uses[inc].size(), 1u);  // carried use by lm
  EXPECT_EQ(uses[inc][0], lm);
}

// ---- Analysis ---------------------------------------------------------------

TEST(Analysis, Example1HasTheAverScc) {
  auto ex = workloads::make_example1();
  const auto sccs = nontrivial_sccs(ex.module.thread.dfg);
  ASSERT_EQ(sccs.size(), 1u);
  // The SCC computes `aver`: loopMux, add, gt, mul2, MUX. (The paper lists
  // {loopMux, add, mul2, MUX}; we also include gt because the mux select is
  // a causal dependence — see DESIGN.md.)
  const Dfg& dfg = ex.module.thread.dfg;
  std::vector<std::string> names;
  for (OpId id : sccs[0]) names.push_back(dfg.op(id).name);
  std::sort(names.begin(), names.end());
  const std::vector<std::string> expected = {"add_op", "aver_lmux", "aver_mux",
                                             "gt_op", "mul2_op"};
  EXPECT_EQ(names, expected);
}

TEST(Analysis, AcyclicDfgHasNoNontrivialScc) {
  Dfg d;
  const OpId a = d.constant(1, int_ty(32));
  const OpId b = d.binary(OpKind::kAdd, a, a, int_ty(32));
  d.binary(OpKind::kMul, b, a, int_ty(32));
  EXPECT_TRUE(nontrivial_sccs(d).empty());
}

TEST(Analysis, FanoutConeCounts) {
  Dfg d;
  const OpId a = d.constant(1, int_ty(32));
  const OpId b = d.binary(OpKind::kAdd, a, a, int_ty(32));
  const OpId c1 = d.binary(OpKind::kMul, b, a, int_ty(32));
  const OpId c2 = d.binary(OpKind::kMul, b, b, int_ty(32));
  const auto cones = fanout_cone_sizes(d);
  EXPECT_EQ(cones[c1], 0);
  EXPECT_EQ(cones[c2], 0);
  EXPECT_EQ(cones[b], 2);
  EXPECT_EQ(cones[a], 3);
}

// ---- Region tree / linearize --------------------------------------------------

TEST(Region, LinearizeSplitsOnWaits) {
  frontend::Builder b("lin");
  auto p = b.in("p", int_ty(32));
  auto q = b.out("q", int_ty(32));
  auto x = b.read(p);
  b.wait();
  auto y = b.add(x, x);
  b.wait();
  b.write(q, y);
  auto m = b.finish();
  const auto lr = linearize(m.thread.tree, m.thread.tree.root());
  ASSERT_EQ(lr.num_steps(), 3);
  EXPECT_EQ(lr.steps[0].size(), 1u);
  EXPECT_EQ(lr.steps[1].size(), 1u);
  EXPECT_EQ(lr.steps[2].size(), 1u);
}

TEST(Region, LinearizeRejectsBranches) {
  frontend::Builder b("br");
  auto p = b.in("p", int_ty(32));
  auto q = b.out("q", int_ty(32));
  auto x = b.read(p);
  auto c = b.gt(x, b.c(0));
  b.begin_if(c);
  b.end_if();
  b.write(q, x);
  auto m = b.finish();
  EXPECT_TRUE(m.thread.tree.has_branches(m.thread.tree.root()));
  EXPECT_THROW(linearize(m.thread.tree, m.thread.tree.root()), InternalError);
}

TEST(Region, OpsInSkipsNestedLoopsWhenAsked) {
  auto ex = workloads::make_example1();
  const auto& tree = ex.module.thread.tree;
  const auto all = tree.ops_in(tree.root(), true);
  const auto outer_only = tree.ops_in(tree.root(), false);
  EXPECT_GT(all.size(), outer_only.size());
  EXPECT_TRUE(outer_only.empty());  // everything is inside the outer loop
}

TEST(Region, WaitCount) {
  auto ex = workloads::make_example1();
  const auto& tree = ex.module.thread.tree;
  // do-while body: one wait (s1).
  EXPECT_EQ(tree.wait_count(tree.stmt(ex.loop).body), 1);
}

// ---- Validation ----------------------------------------------------------------

TEST(Validate, Example1IsValid) {
  auto ex = workloads::make_example1();
  DiagEngine diags;
  EXPECT_TRUE(validate(ex.module, diags)) << diags.to_string();
}

TEST(Validate, CatchesUnsetCarried) {
  Module m;
  m.name = "bad";
  auto& dfg = m.thread.dfg;
  const OpId init = dfg.constant(0, int_ty(32));
  const OpId lm = dfg.loop_mux(init, int_ty(32));
  m.thread.tree.append(m.thread.tree.root(), m.thread.tree.make_op(lm));
  DiagEngine diags;
  EXPECT_FALSE(validate(m, diags));
  EXPECT_NE(diags.to_string().find("carried"), std::string::npos);
}

TEST(Validate, CatchesUseBeforeDef) {
  Module m;
  m.name = "bad";
  auto& dfg = m.thread.dfg;
  auto& tree = m.thread.tree;
  m.ports.push_back({"p", int_ty(32), PortDir::kIn});
  const OpId r = dfg.read(0, int_ty(32));
  const OpId s = dfg.binary(OpKind::kAdd, r, r, int_ty(32));
  // Emit the add BEFORE the read.
  tree.append(tree.root(), tree.make_op(s));
  tree.append(tree.root(), tree.make_op(r));
  DiagEngine diags;
  EXPECT_FALSE(validate(m, diags));
  EXPECT_NE(diags.to_string().find("before it is defined"), std::string::npos);
}

TEST(Validate, CatchesDanglingOp) {
  Module m;
  m.name = "bad";
  m.ports.push_back({"p", int_ty(32), PortDir::kIn});
  m.thread.dfg.read(0, int_ty(32));  // never placed in the tree
  DiagEngine diags;
  EXPECT_FALSE(validate(m, diags));
  EXPECT_NE(diags.to_string().find("not referenced"), std::string::npos);
}

TEST(Validate, CatchesPortDirectionMismatch) {
  Module m;
  m.name = "bad";
  m.ports.push_back({"o", int_ty(32), PortDir::kOut});
  auto& tree = m.thread.tree;
  const OpId r = m.thread.dfg.read(0, int_ty(32));  // read of an OUT port
  tree.append(tree.root(), tree.make_op(r));
  DiagEngine diags;
  EXPECT_FALSE(validate(m, diags));
  EXPECT_NE(diags.to_string().find("direction"), std::string::npos);
}

// ---- Printing --------------------------------------------------------------------

TEST(Print, ModuleDumpMentionsStructure) {
  auto ex = workloads::make_example1();
  const std::string s = print_module(ex.module);
  EXPECT_NE(s.find("module example1"), std::string::npos);
  EXPECT_NE(s.find("do_while"), std::string::npos);
  EXPECT_NE(s.find("mul1_op"), std::string::npos);
  EXPECT_NE(s.find("latency[1,3]"), std::string::npos);
}

TEST(Print, DfgDotHasNodesAndCarriedEdge) {
  auto ex = workloads::make_example1();
  const std::string s = dfg_to_dot(ex.module);
  EXPECT_NE(s.find("digraph"), std::string::npos);
  EXPECT_NE(s.find("mul1_op"), std::string::npos);
  EXPECT_NE(s.find("style=dashed"), std::string::npos);  // carried edge
}

TEST(Print, CfgDotHasForkJoinAndLoop) {
  auto ex = workloads::make_example1();
  const std::string s = cfg_to_dot(ex.module);
  EXPECT_NE(s.find("If_top"), std::string::npos);
  EXPECT_NE(s.find("Loop_top"), std::string::npos);
  EXPECT_NE(s.find("Loop_bottom"), std::string::npos);
}

// ---- Module / Design ---------------------------------------------------------------

TEST(Module, PortLookup) {
  auto ex = workloads::make_example1();
  EXPECT_EQ(ex.module.port_index("mask"), 0u);
  EXPECT_EQ(ex.module.port_index("pixel"), 4u);
  EXPECT_THROW(ex.module.port_index("nope"), UserError);
}

TEST(Design, ModuleLookup) {
  Design d;
  d.name = "top";
  d.add_module("a");
  d.add_module("b");
  EXPECT_EQ(d.module("b").name, "b");
  EXPECT_THROW(d.module("c"), UserError);
}

}  // namespace
}  // namespace hls::ir
