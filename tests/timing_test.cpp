// Tests for src/timing/: the incremental datapath timing engine, netlist
// arrival queries, combinational-cycle detection, and the paper's
// Section IV worked example (1230/1580/1800 ps paths).
#include <gtest/gtest.h>

#include "support/diagnostics.hpp"

#include "tech/library.hpp"
#include "timing/comb_cycle.hpp"
#include "timing/engine.hpp"
#include "timing/netlist.hpp"

namespace hls::timing {
namespace {

using tech::artisan90;
using tech::FuClass;

// ---- The paper's worked example (Section IV, Figure 8) -----------------------
// Tclk = 1600 ps, artisan 90nm.

TEST(WorkedExample, SharedMultiplierPathIs1230ps) {
  // Figure 8(a): FF(40) + mux(110) + mul(930) + mux(110); registering the
  // result adds setup(40): total 1230.
  const auto& lib = artisan90();
  PathQuery q;
  q.operand_arrivals_ps = {lib.reg_clk_to_q_ps(), lib.reg_clk_to_q_ps()};
  q.cls = FuClass::kMultiplier;
  q.width = 32;
  q.in_mux_inputs = 2;
  q.out_mux_inputs = 2;
  const double arr = output_arrival_ps(q, lib);
  EXPECT_DOUBLE_EQ(arr, 40 + 110 + 930 + 110);
  EXPECT_DOUBLE_EQ(arr + lib.reg_setup_ps(), 1230);
  EXPECT_DOUBLE_EQ(register_slack_ps(arr, 1600, lib), 1600 - 1230);
}

TEST(WorkedExample, ChainedAdderPathIs1580ps) {
  // Figure 8(b): the adder is unshared (single addition in the DFG), so it
  // has no muxes; it chains after the multiplier's post-mux output.
  const auto& lib = artisan90();
  PathQuery mul_q;
  mul_q.operand_arrivals_ps = {40, 40};
  mul_q.cls = FuClass::kMultiplier;
  mul_q.width = 32;
  mul_q.in_mux_inputs = 2;
  mul_q.out_mux_inputs = 2;
  const double mul_out = output_arrival_ps(mul_q, lib);  // 1190

  PathQuery add_q;
  add_q.operand_arrivals_ps = {mul_out, lib.reg_clk_to_q_ps()};
  add_q.cls = FuClass::kAdder;
  add_q.width = 32;
  const double add_out = output_arrival_ps(add_q, lib);
  EXPECT_DOUBLE_EQ(add_out + lib.reg_setup_ps(), 1580);
  EXPECT_GE(register_slack_ps(add_out, 1600, lib), 0);
}

TEST(WorkedExample, ChainedComparatorPathIs1800psNegativeSlack) {
  // Figure 8(c): gt chains after the adder: 1540 + 220 + 40 = 1800, i.e.
  // -200 ps slack at Tclk = 1600 -> the binding is rejected.
  const auto& lib = artisan90();
  PathQuery gt_q;
  gt_q.operand_arrivals_ps = {1540, lib.reg_clk_to_q_ps()};
  gt_q.cls = FuClass::kCompareOrd;
  gt_q.width = 32;
  const double gt_out = output_arrival_ps(gt_q, lib);
  EXPECT_DOUBLE_EQ(gt_out + lib.reg_setup_ps(), 1800);
  EXPECT_DOUBLE_EQ(register_slack_ps(gt_out, 1600, lib), -200);
}

TEST(WorkedExample, ChainedNeqFitsComfortably) {
  // neq on delta (post-mux multiplier output at 1190): 1190+60+40 = 1290.
  const auto& lib = artisan90();
  PathQuery q;
  q.operand_arrivals_ps = {1190, 0};
  q.cls = FuClass::kCompareEq;
  q.width = 32;
  EXPECT_DOUBLE_EQ(output_arrival_ps(q, lib) + lib.reg_setup_ps(), 1290);
}

TEST(Netlist, FreeOpsArePureWiring) {
  const auto& lib = artisan90();
  PathQuery q;
  q.operand_arrivals_ps = {123, 77};
  q.cls = FuClass::kNone;
  EXPECT_DOUBLE_EQ(output_arrival_ps(q, lib), 123);
}

TEST(Netlist, UnsharedUnitHasNoMuxPenalty) {
  const auto& lib = artisan90();
  PathQuery q;
  q.operand_arrivals_ps = {40, 40};
  q.cls = FuClass::kMultiplier;
  q.width = 32;
  EXPECT_DOUBLE_EQ(output_arrival_ps(q, lib), 970);
}

// ---- Timing engine -------------------------------------------------------------

TEST(Engine, CachesUnitDelays) {
  TimingEngine eng(artisan90(), 1600);
  const double d1 = eng.fu_delay_ps(FuClass::kMultiplier, 32);
  const auto hits0 = eng.cache_hits();
  const double d2 = eng.fu_delay_ps(FuClass::kMultiplier, 32);
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_EQ(eng.cache_hits(), hits0 + 1);
}

TEST(Engine, CountsQueries) {
  TimingEngine eng(artisan90(), 1600);
  PathQuery q;
  q.operand_arrivals_ps = {40};
  q.cls = FuClass::kAdder;
  q.width = 32;
  eng.output_arrival_ps(q);
  eng.output_arrival_ps(q);
  EXPECT_EQ(eng.queries(), 2u);
}

TEST(Engine, MatchesPureFunctions) {
  TimingEngine eng(artisan90(), 1600);
  PathQuery q;
  q.operand_arrivals_ps = {40, 40};
  q.cls = FuClass::kMultiplier;
  q.width = 32;
  q.in_mux_inputs = 2;
  q.out_mux_inputs = 2;
  EXPECT_DOUBLE_EQ(eng.output_arrival_ps(q),
                   output_arrival_ps(q, artisan90()));
  EXPECT_DOUBLE_EQ(eng.register_slack_ps(1190),
                   register_slack_ps(1190, 1600, artisan90()));
}

// ---- Shared delay tables ----------------------------------------------------

TEST(DelayTables, PrewarmMatchesLibraryValues) {
  const auto& lib = artisan90();
  const DelayTables tables = DelayTables::prewarm(lib);
  const auto mul = static_cast<std::size_t>(FuClass::kMultiplier);
  ASSERT_GT(tables.fu_delay_ps.size(), mul);
  EXPECT_DOUBLE_EQ(tables.fu_delay_ps[mul][32],
                   lib.fu_delay_ps(FuClass::kMultiplier, 32));
  EXPECT_DOUBLE_EQ(tables.mux_delay_ps[2], lib.mux_delay_ps(2));
}

TEST(DelayTables, SharedEngineMatchesLocalEngine) {
  // An engine on the built-in library reads the process-wide tables; one
  // on a copy of it (same delays, different identity) memoizes locally.
  const tech::Library& lib = artisan90();
  const tech::Library copy = lib;
  TimingEngine local(copy, 1600);
  TimingEngine shared(lib, 1600);
  PathQuery q;
  q.operand_arrivals_ps = {40, 40};
  q.cls = FuClass::kMultiplier;
  q.width = 32;
  q.in_mux_inputs = 2;
  q.out_mux_inputs = 2;
  EXPECT_DOUBLE_EQ(shared.output_arrival_ps(q), local.output_arrival_ps(q));
  // A shared-table lookup counts as a cache hit from the very first query
  // (that is the point: no cold misses in explore workers); a local one
  // starts cold.
  TimingEngine fresh(lib, 1600);
  fresh.fu_delay_ps(FuClass::kMultiplier, 32);
  EXPECT_EQ(fresh.cache_hits(), 1u);
  TimingEngine fresh_local(copy, 1600);
  fresh_local.fu_delay_ps(FuClass::kMultiplier, 32);
  EXPECT_EQ(fresh_local.cache_hits(), 0u);
}

TEST(DelayTables, WidthBeyondTablesFallsBackToLocalMemo) {
  const auto& lib = artisan90();
  TimingEngine shared(lib, 1600);
  // A 100-input mux is beyond the prewarmed fan-in range: the first
  // lookup is a cold library call, the second hits the engine-local memo.
  const double d1 = shared.mux_delay_ps(100);
  const auto hits0 = shared.cache_hits();
  const double d2 = shared.mux_delay_ps(100);
  EXPECT_DOUBLE_EQ(d1, lib.mux_delay_ps(100));
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_EQ(shared.cache_hits(), hits0 + 1);
  EXPECT_DOUBLE_EQ(shared.fu_delay_ps(FuClass::kMultiplier, 64),
                   lib.fu_delay_ps(FuClass::kMultiplier, 64));
}

// ---- Combinational cycle graph (Figure 6) ----------------------------------------

TEST(CombCycle, DetectsTwoResourceCycle) {
  CombCycleGraph g;
  g.add_edge(0, 1);  // add16 chains into add32 in state s1
  EXPECT_FALSE(g.would_create_cycle(0, 1));
  EXPECT_TRUE(g.would_create_cycle(1, 0));  // s2 would close the loop
}

TEST(CombCycle, DetectsLongerCycle) {
  CombCycleGraph g;
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.would_create_cycle(3, 0));
  EXPECT_FALSE(g.would_create_cycle(0, 3));
}

TEST(CombCycle, SelfEdgeIsACycle) {
  CombCycleGraph g;
  EXPECT_TRUE(g.would_create_cycle(5, 5));
}

TEST(CombCycle, EdgesAreCounted) {
  CombCycleGraph g;
  g.add_edge(0, 1);
  g.add_edge(0, 1);  // second op pair on the same resource pair
  EXPECT_TRUE(g.has_edge(0, 1));
  g.remove_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));  // still one instance left
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.would_create_cycle(1, 0));
}

TEST(CombCycle, RemoveMissingEdgeAsserts) {
  CombCycleGraph g;
  EXPECT_THROW(g.remove_edge(3, 4), InternalError);
}

}  // namespace
}  // namespace hls::timing
