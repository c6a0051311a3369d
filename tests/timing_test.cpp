// Tests for src/timing/: the incremental datapath timing engine, netlist
// arrival queries, combinational-cycle detection, and the paper's
// Section IV worked example (1230/1580/1800 ps paths).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/diagnostics.hpp"
#include "support/rng.hpp"

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

TEST(CombCycle, CyclicGraphFallsBackToPlainSearch) {
  CombCycleGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_FALSE(g.cyclic());
  g.add_edge(2, 0);  // closes 0 -> 1 -> 2 -> 0
  EXPECT_TRUE(g.cyclic());
  EXPECT_TRUE(g.would_create_cycle(0, 2));
  EXPECT_TRUE(g.would_create_cycle(1, 0));
  EXPECT_FALSE(g.would_create_cycle(3, 0));
  EXPECT_FALSE(g.would_create_cycle(0, 3));
  g.add_edge(2, 3);
  EXPECT_TRUE(g.would_create_cycle(3, 1));
}

// Reference: plain reachability over an edge-set adjacency matrix.
struct ReferenceGraph {
  explicit ReferenceGraph(int num_nodes)
      : n(num_nodes),
        adj(static_cast<std::size_t>(num_nodes * num_nodes), false) {}
  bool reaches(int from, int to) const {
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    std::vector<int> work{from};
    seen[static_cast<std::size_t>(from)] = true;
    while (!work.empty()) {
      const int v = work.back();
      work.pop_back();
      if (v == to) return true;
      for (int w = 0; w < n; ++w) {
        if (adj[static_cast<std::size_t>(v * n + w)] &&
            !seen[static_cast<std::size_t>(w)]) {
          seen[static_cast<std::size_t>(w)] = true;
          work.push_back(w);
        }
      }
    }
    return false;
  }
  bool would_create_cycle(int from, int to) const { return reaches(to, from); }
  bool cyclic() const {
    for (int v = 0; v < n; ++v) {
      for (int w = 0; w < n; ++w) {
        if (adj[static_cast<std::size_t>(v * n + w)] && reaches(w, v)) {
          return true;
        }
      }
    }
    return false;
  }
  int n;
  std::vector<bool> adj;
};

// The ordered graph against the reference over seeded random edge
// sequences: every query after every insertion. `avoid` mirrors the
// binder (refused edges are never added, so the order is kept); without
// it the sequences close cycles and the cyclic fallback answers the rest.
void differential_run(std::uint64_t seed, int n, int edges, bool avoid) {
  Rng rng(seed);
  CombCycleGraph g(rng.chance(0.5) ? n : 0);  // pre-sized or grown
  ReferenceGraph ref(n);
  for (int k = 0; k < edges; ++k) {
    const int from = static_cast<int>(rng.uniform(0, n - 1));
    const int to = static_cast<int>(rng.uniform(0, n - 1));
    const bool refused = g.would_create_cycle(from, to);
    ASSERT_EQ(refused, from == to || ref.would_create_cycle(from, to))
        << "seed " << seed << " edge " << k << ": " << from << "->" << to;
    if (avoid && refused) continue;
    g.add_edge(from, to);
    ref.adj[static_cast<std::size_t>(from * n + to)] = true;
    ASSERT_EQ(g.cyclic(), ref.cyclic()) << "seed " << seed << " edge " << k;
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        ASSERT_EQ(g.would_create_cycle(a, b),
                  a == b || ref.would_create_cycle(a, b))
            << "seed " << seed << " edge " << k << " query " << a << "->" << b;
      }
    }
  }
}

TEST(CombCycle, OrderedGraphMatchesPlainReachabilityWhenAvoiding) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    differential_run(seed, 4 + static_cast<int>(seed % 13), 60, true);
  }
}

TEST(CombCycle, OrderedGraphMatchesPlainReachabilityAfterClosingCycles) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    differential_run(1000 + seed, 4 + static_cast<int>(seed % 13), 40, false);
  }
}

}  // namespace
}  // namespace hls::timing
