// Tests for src/alloc/: width-aware resource clustering, timing-aware
// ASAP/ALAP life spans, and initial instance estimation (paper
// Section IV.A), including the Example 1 / Example 3 pipelined counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "support/diagnostics.hpp"
#include "support/rng.hpp"

#include "alloc/estimate.hpp"
#include "alloc/lifespan.hpp"
#include "frontend/builder.hpp"
#include "opt/pass.hpp"
#include "tech/library.hpp"
#include "workloads/example1.hpp"

namespace hls::alloc {
namespace {

using frontend::Builder;
using ir::int_ty;
using ir::OpId;
using tech::artisan90;
using tech::FuClass;

struct Example1Fixture {
  ir::Module module;
  ir::StmtId loop;
  ir::LinearRegion region;

  explicit Example1Fixture(bool predicate = true) {
    auto ex = workloads::make_example1();
    module = std::move(ex.module);
    loop = ex.loop;
    if (predicate) {
      auto p = opt::make_predicate_conversion();
      p->run(module);
    }
    region = ir::linearize(module.thread.tree, loop);
  }
};

OpId find_op(const ir::Module& m, std::string_view name) {
  for (OpId id = 0; id < m.thread.dfg.size(); ++id) {
    if (m.thread.dfg.op(id).name == name) return id;
  }
  ADD_FAILURE() << "op not found: " << name;
  return ir::kNoOp;
}

// ---- Lifespans -----------------------------------------------------------------

TEST(Lifespan, Example1At3StatesMatchesHandAnalysis) {
  Example1Fixture f;
  const auto ls = compute_lifespans(
      LifespanContext(f.module.thread.dfg, f.region, artisan90()), 3, 1600,
      /*anchor_io=*/false);
  ASSERT_TRUE(ls.feasible);
  const auto& dfg = f.module.thread.dfg;
  const auto span = [&](std::string_view name) {
    return ls.spans[find_op(f.module, name)];
  };
  (void)dfg;
  // mul1 must go first (mul2 and mul3 each need their own later cycle).
  EXPECT_EQ(span("mul1_op").asap, 0);
  EXPECT_EQ(span("mul1_op").alap, 0);
  // mul2 depends on add (chained after mul1): exactly step 1.
  EXPECT_EQ(span("mul2_op").asap, 1);
  EXPECT_EQ(span("mul2_op").alap, 1);
  // mul3 consumes the MUX: step 2 only.
  EXPECT_EQ(span("mul3_op").asap, 2);
  EXPECT_EQ(span("mul3_op").alap, 2);
  // neq is fully mobile.
  EXPECT_EQ(span("neq_op").asap, 0);
  EXPECT_EQ(span("neq_op").alap, 2);
  // add chains after mul1 in step 0, but must leave a cycle for mul2.
  EXPECT_EQ(span("add_op").asap, 0);
  EXPECT_EQ(span("add_op").alap, 1);
}

TEST(Lifespan, InfeasibleWhenTooFewStates) {
  Example1Fixture f;
  const auto ls = compute_lifespans(
      LifespanContext(f.module.thread.dfg, f.region, artisan90()), 1, 1600,
      false);
  EXPECT_FALSE(ls.feasible);
  EXPECT_NE(ls.first_infeasible, ir::kNoOp);
}

TEST(Lifespan, MoreStatesIncreaseMobility) {
  Example1Fixture f;
  const auto l3 = compute_lifespans(
      LifespanContext(f.module.thread.dfg, f.region, artisan90()), 3, 1600,
      false);
  const auto l5 = compute_lifespans(
      LifespanContext(f.module.thread.dfg, f.region, artisan90()), 5, 1600,
      false);
  const OpId neq = find_op(f.module, "neq_op");
  EXPECT_GT(l5.spans[neq].mobility(), l3.spans[neq].mobility());
}

TEST(Lifespan, FasterClockForcesMoreSteps) {
  // At Tclk=1100 the chain mul1->add no longer fits one cycle.
  Example1Fixture f;
  const auto ls = compute_lifespans(
      LifespanContext(f.module.thread.dfg, f.region, artisan90()), 6, 1100,
      false);
  ASSERT_TRUE(ls.feasible);
  EXPECT_GE(ls.spans[find_op(f.module, "add_op")].asap, 1);
}

TEST(Lifespan, ClockTooSlowForMultiplierThrows) {
  Example1Fixture f;
  EXPECT_THROW(
      compute_lifespans(
          LifespanContext(f.module.thread.dfg, f.region, artisan90()), 8, 900,
          false),
               InternalError);
}

TEST(Lifespan, AnchoredIoPinsReadsToHomeStep) {
  Builder b("anchored");
  auto in = b.in("x", int_ty(32));
  auto out = b.out("y", int_ty(32));
  b.read(in, "r0");
  b.wait();
  auto x = b.read(in, "r1");
  b.write(out, x);
  auto m = b.finish();
  const auto region = ir::linearize(m.thread.tree, m.thread.tree.root());
  const auto ls = compute_lifespans(
      LifespanContext(m.thread.dfg, region, artisan90()), 2, 1600,
      /*anchor_io=*/true);
  const OpId r1 = find_op(m, "r1");
  EXPECT_EQ(ls.spans[r1].asap, 1);
  EXPECT_EQ(ls.spans[r1].alap, 1);
}

// ---- Clustering -----------------------------------------------------------------

TEST(Cluster, Example1PoolsMatchTable1) {
  Example1Fixture f;
  const auto ops = f.region.all_ops();
  const auto set = cluster_resources(f.module.thread.dfg, ops, artisan90());
  // mul(x3), add, gt, neq, mux -> one pool each (all 32-bit); the pred_not
  // from predication adds a 1-bit logic pool.
  int muls = 0;
  for (const auto& p : set.pools) {
    if (p.cls == FuClass::kMultiplier) {
      ++muls;
      EXPECT_EQ(p.width, 32);
    }
  }
  EXPECT_EQ(muls, 1);
  const auto members = set.members();
  for (std::size_t i = 0; i < set.pools.size(); ++i) {
    if (set.pools[i].cls == FuClass::kMultiplier) {
      EXPECT_EQ(members[i].size(), 3u);
    }
  }
}

TEST(Cluster, SimilarWidthsMergeVeryDifferentDoNot) {
  // 8x6 and 6x7 adders share one unit (paper's example); a 32-bit adder
  // does not join them.
  Builder b("widths");
  auto a1 = b.in("a1", int_ty(8));
  auto b1 = b.in("b1", int_ty(5));
  auto a2 = b.in("a2", int_ty(6));
  auto b2 = b.in("b2", int_ty(7));
  auto big = b.in("big", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto s1 = b.add(b.read(a1), b.read(b1));
  auto s2 = b.add(b.read(a2), b.read(b2));
  auto s3 = b.add(b.read(big), b.read(big));
  b.write(out, b.add(b.sext(s1, 32), b.add(b.sext(s2, 32), s3)));
  auto m = b.finish();
  (void)s1; (void)s2; (void)s3;
  const auto region = ir::linearize(m.thread.tree, m.thread.tree.root());
  const auto set = cluster_resources(m.thread.dfg, region.all_ops(),
                                     artisan90());
  int adder_pools = 0;
  for (const auto& p : set.pools) {
    if (p.cls == FuClass::kAdder) ++adder_pools;
  }
  // Small adders (widths 8 and 7) cluster; 32-bit ones form another pool.
  EXPECT_EQ(adder_pools, 2);
}

// ---- Initial resource estimation ---------------------------------------------------

TEST(Estimate, Example1SequentialNeedsOneMultiplier) {
  // Paper: "3 multiplies are to be scheduled in at most 3 states, which
  // suggests that a single multiplier suffices."
  Example1Fixture f;
  const auto& dfg = f.module.thread.dfg;
  const auto ls = compute_lifespans(
      LifespanContext(dfg, f.region, artisan90()), 3, 1600, false);
  auto set = cluster_resources(dfg, f.region.all_ops(), artisan90());
  set = estimate_initial_counts(dfg, std::move(set), ls, 3);
  for (const auto& p : set.pools) {
    if (p.cls == FuClass::kMultiplier) { EXPECT_EQ(p.count, 1); }
    if (p.cls == FuClass::kAdder) { EXPECT_EQ(p.count, 1); }
    if (p.cls == FuClass::kCompareOrd) { EXPECT_EQ(p.count, 1); }
  }
}

TEST(Estimate, Example1PipelinedII2NeedsTwoMultipliers) {
  // Paper Example 2: "Due to edge equivalence, resources should not be
  // shared in states s1 and s3, hence two mul resources must be created."
  Example1Fixture f;
  const auto& dfg = f.module.thread.dfg;
  const auto ls = compute_lifespans(
      LifespanContext(dfg, f.region, artisan90()), 3, 1600, false);
  auto set = cluster_resources(dfg, f.region.all_ops(), artisan90());
  EstimateOptions opts;
  opts.pipeline_ii = 2;
  set = estimate_initial_counts(dfg, std::move(set), ls, 3, opts);
  for (const auto& p : set.pools) {
    if (p.cls == FuClass::kMultiplier) { EXPECT_EQ(p.count, 2); }
  }
}

TEST(Estimate, Example1PipelinedII1NeedsThreeMultipliers) {
  // Paper Example 3: II=1 makes all edges equivalent; 3 multipliers.
  Example1Fixture f;
  const auto& dfg = f.module.thread.dfg;
  const auto ls = compute_lifespans(
      LifespanContext(dfg, f.region, artisan90()), 3, 1600, false);
  auto set = cluster_resources(dfg, f.region.all_ops(), artisan90());
  EstimateOptions opts;
  opts.pipeline_ii = 1;
  set = estimate_initial_counts(dfg, std::move(set), ls, 3, opts);
  for (const auto& p : set.pools) {
    if (p.cls == FuClass::kMultiplier) { EXPECT_EQ(p.count, 3); }
  }
}

TEST(Estimate, MutualExclusivityReducesDemand) {
  // Two multiplications in opposite branches of an if can share one unit
  // even in a single state.
  Builder b("mx");
  auto in = b.in("x", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto x = b.read(in);
  auto v = b.var("v", int_ty(32));
  b.begin_if(b.gt(x, b.c(0)));
  b.set(v, b.mul(x, b.c(3)));
  b.begin_else();
  b.set(v, b.mul(x, b.c(5)));
  b.end_if();
  b.write(out, b.get(v));
  auto m = b.finish();
  auto pred = opt::make_predicate_conversion();
  pred->run(m);
  const auto region = ir::linearize(m.thread.tree, m.thread.tree.root());
  // One state: both branch multiplications compete for the same step.
  const auto ls = compute_lifespans(
      LifespanContext(m.thread.dfg, region, artisan90()), 1, 1600, false);
  ASSERT_TRUE(ls.feasible);
  auto set = cluster_resources(m.thread.dfg, region.all_ops(), artisan90());

  auto with = estimate_initial_counts(m.thread.dfg, set, ls, 1);
  EstimateOptions no_excl;
  no_excl.use_mutual_exclusivity = false;
  auto without = estimate_initial_counts(m.thread.dfg, set, ls, 1, no_excl);
  int mul_with = 0;
  int mul_without = 0;
  for (const auto& p : with.pools) {
    if (p.cls == FuClass::kMultiplier) mul_with = p.count;
  }
  for (const auto& p : without.pools) {
    if (p.cls == FuClass::kMultiplier) mul_without = p.count;
  }
  EXPECT_EQ(mul_with, 1);
  EXPECT_EQ(mul_without, 2);
}

TEST(Estimate, MutuallyExclusivePredicate) {
  Example1Fixture f;  // predicated
  const auto& dfg = f.module.thread.dfg;
  // After predication, mul2 carries the gt predicate. Build a fake op with
  // the opposite polarity and check the exclusivity test.
  const OpId mul2 = find_op(f.module, "mul2_op");
  ASSERT_TRUE(dfg.op(mul2).has_pred());
  ir::Op other = dfg.op(mul2);
  other.pred_value = !other.pred_value;
  auto& mut = const_cast<ir::Dfg&>(dfg);
  const OpId o2 = mut.add(other);
  EXPECT_TRUE(mutually_exclusive(dfg, mul2, o2));
  EXPECT_FALSE(mutually_exclusive(dfg, mul2, mul2));
}

// The interval estimate as first written: every [a, b] window, its op
// list rebuilt and its effective count re-derived. Kept as the oracle
// for the incremental sweep.
int brute_force_demand(const ir::Dfg& dfg, const std::vector<OpId>& ops,
                       const LifespanResult& spans, int num_steps,
                       int occupancy, bool exclusivity) {
  int demand = 1;
  for (int a = 0; a < num_steps; ++a) {
    for (int b = a; b < num_steps; ++b) {
      int unpredicated = 0;
      std::map<OpId, std::pair<int, int>> by_pred;
      for (OpId id : ops) {
        const OpSpan& sp = spans.spans[id];
        if (sp.asap < a || sp.alap > b) continue;
        const ir::Op& o = dfg.op(id);
        if (!exclusivity || o.pred == ir::kNoOp) {
          ++unpredicated;
        } else {
          ++(o.pred_value ? by_pred[o.pred].first : by_pred[o.pred].second);
        }
      }
      int n = unpredicated;
      for (const auto& [pred, tf] : by_pred) n += std::max(tf.first, tf.second);
      if (n == 0) continue;
      demand = std::max(demand, (n * occupancy + b - a) / (b - a + 1));
    }
  }
  return demand;
}

TEST(Estimate, IntervalSweepMatchesBruteForceOverRandomSpans) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const int num_steps = static_cast<int>(rng.uniform(1, 12));
    const int num_preds = static_cast<int>(rng.uniform(0, 3));
    ir::Dfg dfg;
    std::vector<OpId> preds;
    for (int i = 0; i < num_preds; ++i) {
      ir::Op c;
      c.kind = ir::OpKind::kLt;
      c.type = ir::bool_ty();
      preds.push_back(dfg.add(c));
    }
    ResourceSet set;
    const int num_pools = static_cast<int>(rng.uniform(1, 3));
    for (int p = 0; p < num_pools; ++p) {
      ResourcePool pool;
      pool.cls = FuClass::kMultiplier;
      pool.latency_cycles = static_cast<int>(rng.uniform(0, 2));
      set.pools.push_back(pool);
    }
    set.op_pool.assign(static_cast<std::size_t>(num_preds), -1);
    LifespanResult spans;
    spans.num_steps = num_steps;
    spans.spans.resize(static_cast<std::size_t>(num_preds));
    const int num_ops = static_cast<int>(rng.uniform(0, 24));
    for (int i = 0; i < num_ops; ++i) {
      ir::Op o;
      o.kind = ir::OpKind::kMul;
      const OpId id = dfg.add(o);
      if (num_preds > 0 && rng.chance(0.6)) {
        dfg.set_pred(id, preds[static_cast<std::size_t>(
                             rng.uniform(0, num_preds - 1))],
                     rng.chance(0.5));
      }
      set.op_pool.push_back(static_cast<int>(rng.uniform(0, num_pools - 1)));
      OpSpan sp;
      sp.asap = static_cast<int>(rng.uniform(0, num_steps - 1));
      // Mostly well-formed spans, plus inverted and out-of-range ones.
      sp.alap = static_cast<int>(rng.uniform(sp.asap - 1, num_steps));
      spans.spans.push_back(sp);
    }
    const auto members = set.members();
    for (const bool exclusivity : {true, false}) {
      EstimateOptions opts;
      opts.use_mutual_exclusivity = exclusivity;
      const ResourceSet out =
          estimate_initial_counts(dfg, set, spans, num_steps, opts);
      for (std::size_t p = 0; p < set.pools.size(); ++p) {
        const int expected =
            members[p].empty()
                ? 0
                : brute_force_demand(
                      dfg, members[p], spans, num_steps,
                      std::max(1, set.pools[p].latency_cycles), exclusivity);
        EXPECT_EQ(out.pools[p].count, expected)
            << "seed " << seed << " pool " << p << " exclusivity "
            << exclusivity;
      }
    }
  }
}

}  // namespace
}  // namespace hls::alloc
