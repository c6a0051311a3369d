// Tests for src/sched/: the iterative scheduling driver on the paper's
// worked examples (Example 1 sequential / II=2 / II=1 with the expected
// Table 2 schedules), chaining under the clock constraint, multi-cycle
// units, predicate exclusivity, write ordering, and randomized DAGs.
#include <gtest/gtest.h>

#include "support/diagnostics.hpp"

#include <bit>
#include <climits>
#include <cstdint>
#include <optional>
#include <string>

#include "frontend/builder.hpp"
#include "opt/pass.hpp"
#include "pipeline/straighten.hpp"
#include "sched/backend.hpp"
#include "sched/driver.hpp"
#include "support/rng.hpp"
#include "tech/library.hpp"
#include "workloads/example1.hpp"
#include "workloads/workloads.hpp"

namespace hls::sched {
namespace {

using frontend::Builder;
using ir::int_ty;
using ir::OpId;
using tech::FuClass;

struct Prepared {
  ir::Module module;
  ir::LinearRegion region;
  ir::LatencyBound latency;
};

Prepared prepare_example1() {
  auto ex = workloads::make_example1();
  auto pred = opt::make_predicate_conversion();
  pred->run(ex.module);
  Prepared p;
  p.latency = ex.module.thread.tree.stmt(ex.loop).latency;
  p.region = ir::linearize(ex.module.thread.tree, ex.loop);
  p.module = std::move(ex.module);
  return p;
}

OpId find_op(const ir::Module& m, std::string_view name) {
  for (OpId id = 0; id < m.thread.dfg.size(); ++id) {
    if (m.thread.dfg.op(id).name == name) return id;
  }
  ADD_FAILURE() << "op not found: " << name;
  return ir::kNoOp;
}

int pool_count(const Schedule& s, FuClass cls) {
  for (const auto& p : s.resources.pools) {
    if (p.cls == cls) return p.count;
  }
  return 0;
}

// ---- The paper's Example 1 (sequential) ------------------------------------------

TEST(Example1Sequential, ReproducesTable2) {
  Prepared p = prepare_example1();
  SchedulerOptions opts;  // Tclk=1600, artisan90
  const auto r = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                 p.module.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.schedule.num_steps, 3);
  EXPECT_EQ(pool_count(r.schedule, FuClass::kMultiplier), 1);

  auto step_of = [&](std::string_view name) {
    return r.schedule.placement[find_op(p.module, name)].step;
  };
  // Table 2: s1 = mul1, add, neq; s2 = mul2, gt, mux; s3 = mul3.
  EXPECT_EQ(step_of("mul1_op"), 0);
  EXPECT_EQ(step_of("add_op"), 0);
  EXPECT_EQ(step_of("neq_op"), 0);
  EXPECT_EQ(step_of("mul2_op"), 1);
  EXPECT_EQ(step_of("gt_op"), 1);
  EXPECT_EQ(step_of("aver_mux"), 1);
  EXPECT_EQ(step_of("mul3_op"), 2);
  EXPECT_EQ(step_of("pixel_write"), 2);
  // All three multiplications share the single multiplier.
  const auto& pl1 = r.schedule.placement[find_op(p.module, "mul1_op")];
  const auto& pl2 = r.schedule.placement[find_op(p.module, "mul2_op")];
  const auto& pl3 = r.schedule.placement[find_op(p.module, "mul3_op")];
  EXPECT_EQ(pl1.instance, pl2.instance);
  EXPECT_EQ(pl2.instance, pl3.instance);
  EXPECT_GE(r.schedule.worst_slack_ps, 0);
}

TEST(Example1Sequential, RelaxationTraceMatchesThePaper) {
  // Latency 1 fails (mul2 has no resource, gt has -200ps slack); the expert
  // adds a state. Latency 2 fails (mul busy for mul3); adding a multiplier
  // would not help, so another state is added. Latency 3 succeeds.
  Prepared p = prepare_example1();
  SchedulerOptions opts;
  const auto r = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                 p.module.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  ASSERT_EQ(r.passes, 3);
  EXPECT_EQ(r.history[0].num_steps, 1);
  EXPECT_FALSE(r.history[0].success);
  EXPECT_NE(r.history[0].action.find("add-state"), std::string::npos);
  // Pass 1 restraints: negative slack (gt, -200ps) and no-resource (mul2).
  bool found_slack = false;
  bool found_nores = false;
  for (const auto& s : r.history[0].restraints) {
    if (s.find("negative-slack") != std::string::npos &&
        s.find("gt_op") != std::string::npos &&
        s.find("-200") != std::string::npos) {
      found_slack = true;
    }
    if (s.find("no-resource") != std::string::npos &&
        s.find("mul2_op") != std::string::npos) {
      found_nores = true;
    }
  }
  EXPECT_TRUE(found_slack) << "missing gt -200ps restraint";
  EXPECT_TRUE(found_nores) << "missing mul2 no-resource restraint";

  EXPECT_EQ(r.history[1].num_steps, 2);
  EXPECT_FALSE(r.history[1].success);
  EXPECT_NE(r.history[1].action.find("add-state"), std::string::npos);
  bool mul3_busy = false;
  for (const auto& s : r.history[1].restraints) {
    if (s.find("no-resource") != std::string::npos &&
        s.find("mul3_op") != std::string::npos) {
      mul3_busy = true;
    }
  }
  EXPECT_TRUE(mul3_busy) << "missing mul3 busy restraint in pass 2";

  EXPECT_TRUE(r.history[2].success);
  EXPECT_EQ(r.history[2].num_steps, 3);
}

TEST(Example1Sequential, TableRenderingListsResources) {
  Prepared p = prepare_example1();
  SchedulerOptions opts;
  const auto r = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                 p.module.ports.size(), opts);
  ASSERT_TRUE(r.success);
  const std::string table = r.schedule.to_table(p.module.thread.dfg);
  EXPECT_NE(table.find("mul32"), std::string::npos);
  EXPECT_NE(table.find("s1"), std::string::npos);
  EXPECT_NE(table.find("mul3_op"), std::string::npos);
}

// ---- Example 2: pipelined II=2 ------------------------------------------------------

TEST(Example1PipelinedII2, TwoMultipliersTable2Schedule) {
  Prepared p = prepare_example1();
  SchedulerOptions opts;
  opts.pipeline = {true, 2};
  const auto r = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                 p.module.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.schedule.num_steps, 3);  // LI = 3 (starts at II+1)
  EXPECT_EQ(pool_count(r.schedule, FuClass::kMultiplier), 2);
  auto step_of = [&](std::string_view name) {
    return r.schedule.placement[find_op(p.module, name)].step;
  };
  // Same steps as Table 2 (the paper: "the schedule ... is applicable to
  // the pipelined case as well, changing only bindings").
  EXPECT_EQ(step_of("mul1_op"), 0);
  EXPECT_EQ(step_of("mul2_op"), 1);
  EXPECT_EQ(step_of("mul3_op"), 2);
  // mul1 and mul3 sit on equivalent edges (s1 ~ s3 mod II=2): they must
  // use different instances; mul1/mul2 share.
  const auto& pl1 = r.schedule.placement[find_op(p.module, "mul1_op")];
  const auto& pl2 = r.schedule.placement[find_op(p.module, "mul2_op")];
  const auto& pl3 = r.schedule.placement[find_op(p.module, "mul3_op")];
  EXPECT_EQ(pl1.instance, pl2.instance);
  EXPECT_NE(pl1.instance, pl3.instance);
}

// ---- Example 3: pipelined II=1 -------------------------------------------------------

TEST(Example1PipelinedII1, ThreeMultipliersSccMovedToS2) {
  Prepared p = prepare_example1();
  SchedulerOptions opts;
  opts.pipeline = {true, 1};
  const auto r = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                 p.module.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.schedule.num_steps, 3);
  EXPECT_EQ(pool_count(r.schedule, FuClass::kMultiplier), 3);
  // The novel relaxation must have fired.
  bool moved = false;
  for (const auto& h : r.history) {
    if (h.action.find("move-scc") != std::string::npos) moved = true;
  }
  EXPECT_TRUE(moved) << "expected the move-scc relaxation in the trace";
  // The whole aver SCC sits in one state (II=1) - state s2.
  auto step_of = [&](std::string_view name) {
    return r.schedule.placement[find_op(p.module, name)].step;
  };
  EXPECT_EQ(step_of("add_op"), 1);
  EXPECT_EQ(step_of("mul2_op"), 1);
  EXPECT_EQ(step_of("aver_mux"), 1);
  EXPECT_EQ(step_of("gt_op"), 1);
  EXPECT_EQ(step_of("aver_lmux"), 1);
  EXPECT_EQ(step_of("mul1_op"), 0);
  EXPECT_EQ(step_of("mul3_op"), 2);
  EXPECT_GE(r.schedule.worst_slack_ps, 0);
}

TEST(Example1PipelinedII1, DisablingMoveSccAcceptsNegativeSlack) {
  // The Table 4 ablation: without the SCC move the schedule can only
  // complete by accepting negative slack, which logic synthesis must then
  // recover with area.
  Prepared p = prepare_example1();
  SchedulerOptions opts;
  opts.pipeline = {true, 1};
  opts.enable_move_scc = false;
  const auto r = schedule_region(p.module.thread.dfg, p.region, p.latency,
                                 p.module.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_LT(r.schedule.worst_slack_ps, 0);
  bool accepted = false;
  for (const auto& h : r.history) {
    if (h.action.find("accept-negative-slack") != std::string::npos) {
      accepted = true;
    }
  }
  EXPECT_TRUE(accepted);
}

// ---- Feature behaviour ------------------------------------------------------------

TEST(Chaining, DisablingChainingNeedsMoreStates) {
  Prepared p = prepare_example1();
  SchedulerOptions with;
  SchedulerOptions without;
  without.enable_chaining = false;
  without.max_passes = 64;
  auto pl = p.latency;
  pl.max = 16;  // allow the unchained schedule to stretch
  const auto r1 = schedule_region(p.module.thread.dfg, p.region, pl,
                                  p.module.ports.size(), with);
  const auto r2 = schedule_region(p.module.thread.dfg, p.region, pl,
                                  p.module.ports.size(), without);
  ASSERT_TRUE(r1.success) << r1.failure_reason;
  ASSERT_TRUE(r2.success) << r2.failure_reason;
  EXPECT_LT(r1.schedule.num_steps, r2.schedule.num_steps);
}

TEST(Clock, FasterClockNeedsMoreStates) {
  Prepared p = prepare_example1();
  auto lat = p.latency;
  lat.max = 12;
  SchedulerOptions slow;  // 1600
  SchedulerOptions fast;
  fast.tclk_ps = 1100;
  const auto r1 = schedule_region(p.module.thread.dfg, p.region, lat,
                                  p.module.ports.size(), slow);
  const auto r2 = schedule_region(p.module.thread.dfg, p.region, lat,
                                  p.module.ports.size(), fast);
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success) << r2.failure_reason;
  EXPECT_GT(r2.schedule.num_steps, r1.schedule.num_steps);
}

TEST(Clock, InfeasibleClockReportsFailure) {
  Prepared p = prepare_example1();
  SchedulerOptions opts;
  opts.tclk_ps = 900;  // a 32-bit multiply alone cannot fit
  EXPECT_THROW(schedule_region(p.module.thread.dfg, p.region, p.latency,
                               p.module.ports.size(), opts),
               InternalError);
}

TEST(WriteOrder, SamePortWritesKeepProgramOrder) {
  Builder b("worder");
  auto in = b.in("x", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto loop = b.begin_counted(4);
  auto x = b.read(in);
  b.write(out, x);
  b.write(out, b.add(x, b.c(1)));
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 8);
  auto m = b.finish();
  const auto region = ir::linearize(m.thread.tree, loop);
  SchedulerOptions opts;
  const auto r = schedule_region(m.thread.dfg, region, {1, 8},
                                 m.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  // Two writes to one port cannot land in the same state.
  const auto ws = m.thread.dfg;
  std::vector<int> steps;
  for (OpId id = 0; id < ws.size(); ++id) {
    if (ws.op(id).kind == ir::OpKind::kWrite) {
      steps.push_back(r.schedule.placement[id].step);
    }
  }
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_LT(steps[0], steps[1]);
}

TEST(MultiCycle, DividerOccupiesConsecutiveStates) {
  Builder b("divider");
  auto in = b.in("x", int_ty(32));
  auto in2 = b.in("d", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto loop = b.begin_counted(4);
  auto q = b.div(b.read(in), b.read(in2), "the_div");
  b.write(out, q);
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 12);
  auto m = b.finish();
  const auto region = ir::linearize(m.thread.tree, loop);
  SchedulerOptions opts;
  const auto r = schedule_region(m.thread.dfg, region, {1, 12},
                                 m.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  const OpId div = find_op(m, "the_div");
  const int lat = tech::artisan90().fu_latency_cycles(FuClass::kDivider);
  // Result lands `lat` cycles after issue; the write follows it.
  EXPECT_GE(r.schedule.placement[div].step, lat);
  for (OpId id = 0; id < m.thread.dfg.size(); ++id) {
    if (m.thread.dfg.op(id).kind == ir::OpKind::kWrite) {
      EXPECT_GE(r.schedule.placement[id].step,
                r.schedule.placement[div].step);
    }
  }
}

TEST(Exclusivity, OppositeBranchesShareOneMultiplier) {
  Builder b("excl");
  auto in = b.in("x", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto v = b.var("v", int_ty(32));
  auto loop = b.begin_counted(4);
  auto x = b.read(in);
  b.begin_if(b.gt(x, b.c(0)));
  b.set(v, b.mul(x, b.c(3), "mul_then"));
  b.begin_else();
  b.set(v, b.mul(x, b.c(5), "mul_else"));
  b.end_if();
  b.write(out, b.get(v));
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 4);
  auto m = b.finish();
  auto pred = opt::make_predicate_conversion();
  pred->run(m);
  const auto region = ir::linearize(m.thread.tree, loop);
  SchedulerOptions opts;
  const auto r = schedule_region(m.thread.dfg, region, {1, 4},
                                 m.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(pool_count(r.schedule, FuClass::kMultiplier), 1);
  const auto& p1 = r.schedule.placement[find_op(m, "mul_then")];
  const auto& p2 = r.schedule.placement[find_op(m, "mul_else")];
  EXPECT_EQ(p1.step, p2.step);
  EXPECT_EQ(p1.instance, p2.instance);
}

// ---- Property sweep: random expression DAGs schedule and validate -------------------

class RandomDagSchedule : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagSchedule, SchedulesAndPassesInvariantChecks) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  Builder b("rand");
  auto in_a = b.in("a", int_ty(32));
  auto in_b = b.in("bb", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto loop = b.begin_counted(4);
  std::vector<frontend::Val> values{b.read(in_a), b.read(in_b)};
  const int n_ops = static_cast<int>(rng.uniform(4, 24));
  for (int i = 0; i < n_ops; ++i) {
    const auto x =
        values[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(values.size()) - 1))];
    const auto y =
        values[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(values.size()) - 1))];
    switch (rng.uniform(0, 3)) {
      case 0: values.push_back(b.add(x, y)); break;
      case 1: values.push_back(b.sub(x, y)); break;
      case 2: values.push_back(b.mul(x, y)); break;
      default: values.push_back(b.bxor(x, y)); break;
    }
  }
  b.write(out, values.back());
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 32);
  auto m = b.finish();
  const auto region = ir::linearize(m.thread.tree, loop);
  SchedulerOptions opts;
  const auto r = schedule_region(m.thread.dfg, region, {1, 32},
                                 m.ports.size(), opts);
  // schedule_region runs check_schedule internally on success.
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GE(r.schedule.worst_slack_ps, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagSchedule, ::testing::Range(0, 12));

class RandomDagPipelined : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagPipelined, PipelinedSchedulesRespectEquivalentEdges) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  Builder b("randp");
  auto in_a = b.in("a", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto acc = b.var("acc", int_ty(32));
  b.set(acc, b.c(0));
  auto loop = b.begin_counted(16);
  std::vector<frontend::Val> values{b.read(in_a)};
  const int n_ops = static_cast<int>(rng.uniform(3, 10));
  for (int i = 0; i < n_ops; ++i) {
    const auto x =
        values[static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(values.size()) - 1))];
    values.push_back(rng.chance(0.4) ? b.mul(x, x) : b.add(x, b.c(7)));
  }
  b.set(acc, b.add(b.get(acc), values.back()));
  b.write(out, b.get(acc));
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 24);
  auto m = b.finish();
  const auto region = ir::linearize(m.thread.tree, loop);
  SchedulerOptions opts;
  opts.pipeline = {true, static_cast<int>(rng.uniform(1, 3))};
  const auto r = schedule_region(m.thread.dfg, region, {1, 24},
                                 m.ports.size(), opts);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GE(r.schedule.worst_slack_ps, 0);
  EXPECT_GE(r.schedule.num_steps, opts.pipeline.ii + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagPipelined, ::testing::Range(0, 12));

// Warm-started ladders match cold ones on random recurrences mixing
// multi-cycle dividers, multipliers and chained ALU ops, at several IIs on
// both backends: schedules, arrivals and the full restraint/action trace.
class RandomDagWarmStart : public ::testing::TestWithParam<int> {};

std::string ladder_fingerprint(const SchedulerResult& r) {
  std::string s = std::to_string(r.success) + " " + std::to_string(r.passes) +
                  " " + r.failure_reason + "\n";
  for (std::size_t id = 0; id < r.schedule.placement.size(); ++id) {
    const OpPlacement& pl = r.schedule.placement[id];
    if (!pl.scheduled) continue;
    s += std::to_string(id) + ":" + std::to_string(pl.step) + "," +
         std::to_string(pl.pool) + "," + std::to_string(pl.instance) + "," +
         std::to_string(std::bit_cast<std::uint64_t>(pl.arrival_ps)) + "\n";
  }
  for (const PassRecord& rec : r.history) {
    for (const std::string& restraint : rec.restraints) s += restraint + ";";
    s += "-> " + rec.action + "\n";
  }
  return s;
}

TEST_P(RandomDagWarmStart, WarmLaddersMatchColdLadders) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  Builder b("rdiv");
  auto in_a = b.in("a", int_ty(32));
  auto in_b = b.in("bb", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto acc = b.var("acc", int_ty(32));
  b.set(acc, b.c(1));
  auto loop = b.begin_counted(8);
  std::vector<frontend::Val> values{b.read(in_a), b.read(in_b), b.get(acc)};
  const int n_ops = static_cast<int>(rng.uniform(6, 30));
  const auto pick = [&] {
    return values[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(values.size()) - 1))];
  };
  for (int i = 0; i < n_ops; ++i) {
    const auto x = pick();
    const auto y = pick();
    switch (rng.uniform(0, 4)) {
      case 0: values.push_back(b.add(x, y)); break;
      case 1: values.push_back(b.mul(x, y)); break;
      case 2: values.push_back(b.div(x, y)); break;
      case 3: values.push_back(b.sub(x, y)); break;
      default: values.push_back(b.bxor(x, y)); break;
    }
  }
  b.set(acc, b.add(b.get(acc), values.back()));
  b.write(out, values.back());
  b.wait();
  b.end_loop();
  b.set_latency(loop, 1, 40);
  auto m = b.finish();
  const auto region = ir::linearize(m.thread.tree, loop);
  for (int ii : {0, 2, 3, 4, 6}) {
    for (const auto backend : {BackendKind::kList, BackendKind::kSdc}) {
      SchedulerOptions cold;
      cold.backend = backend;
      cold.warm_start = false;
      if (ii > 0) cold.pipeline = {true, ii};
      SchedulerOptions warm = cold;
      warm.warm_start = true;
      const auto rc = schedule_region(m.thread.dfg, region, {1, 40},
                                      m.ports.size(), cold);
      const auto rw = schedule_region(m.thread.dfg, region, {1, 40},
                                      m.ports.size(), warm);
      EXPECT_EQ(ladder_fingerprint(rc), ladder_fingerprint(rw))
          << "II=" << ii << " [" << backend_name(backend) << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagWarmStart, ::testing::Range(0, 12));

// ---- AddState warm-start frontier ---------------------------------------------------

/// One relaxation ladder walked by hand: cold passes, the expert's choices,
/// and a callback after every applied AddState with the failed pass's trace.
struct AddStateLadder {
  workloads::Workload w;
  ir::LinearRegion region;
  ir::LatencyBound latency;
  SchedulerOptions opts;

  AddStateLadder(workloads::Workload wl, BackendKind backend, int ii)
      : w(std::move(wl)) {
    pipeline::straighten(w.module);
    region = ir::linearize(w.module.thread.tree, w.loop);
    latency = w.module.thread.tree.stmt(w.loop).latency;
    opts.backend = backend;
    if (ii > 0) opts.pipeline = {true, ii};
  }

  template <typename Check>
  void walk(Check check) const {
    Problem p = build_problem(w.module.thread.dfg, region, latency,
                              tech::artisan90(), opts.tclk_ps, opts.pipeline,
                              w.module.ports.size(), false, true, &w.memory);
    timing::TimingEngine eng(tech::artisan90(), opts.tclk_ps);
    const auto backend = make_backend(p, opts);
    ExpertOptions eopts;  // the driver's latency bound for pipelined loops
    eopts.latency = latency;
    if (opts.pipeline.enabled) {
      eopts.latency.min = std::max(latency.min, opts.pipeline.ii + 1);
      eopts.latency.max = std::max(latency.max, eopts.latency.min);
    }
    for (int pass = 0; pass < opts.max_passes; ++pass) {
      PassOutcome out = backend->run_pass(eng, nullptr);
      if (out.success) return;
      const ExpertDecision d = choose_action(p, out, eopts, eng);
      if (!d.has_action) return;
      apply_action(p, d.action);
      if (d.action.kind == ActionKind::kAddState) check(p, d.action, out.trace);
    }
  }
};

/// Step of the first fatal event in `trace` whose op passes `pick`.
template <typename Pick>
int first_fatal_step(const PassTrace& trace, Pick pick) {
  for (const PassEvent& ev : trace.events) {
    if (ev.kind != PassEvent::Kind::kCommit &&
        ev.kind != PassEvent::Kind::kDefer && pick(ev.op)) {
      return ev.step;
    }
  }
  return INT_MAX;
}

int max_pool_latency(const Problem& p) {
  int lat = 0;
  for (const auto& pool : p.resources.pools) {
    lat = std::max(lat, pool.latency_cycles);
  }
  return lat;
}

// The frontier stops at the first fatal event of an op whose deadline
// moved (a later deadline can turn it into a defer), short of the old last
// state by the largest unit latency, and at the first saturated SDC bound.
// Sequential regions move every deadline, so there it never passes the
// first fatal step at all; arf at II=2 keeps failing SCC members whose
// pinned windows hold their deadlines, and those fatals replay.
TEST(AddStateFrontier, StopsAtTheFirstMovedDeadlineFatalAndAtSaturation) {
  workloads::RandomCdfgOptions sized;
  sized.target_ops = 400;
  for (const auto backend : {BackendKind::kList, BackendKind::kSdc}) {
    for (const auto& [w, ii] :
         {std::pair{workloads::make_idct8(), 8},
          std::pair{workloads::make_random_cdfg(400, sized), 0},
          std::pair{workloads::make_arf(), 2}}) {
      const std::string label =
          w.name + " [" + backend_name(backend) + "] II=" + std::to_string(ii);
      int add_states = 0;
      int replaying = 0;
      int past_first_fatal = 0;
      AddStateLadder(w, backend, ii).walk(
          [&](const Problem& p, const Action& a, const PassTrace& trace) {
            ++add_states;
            const int f = warm_start_frontier(p, a, trace);
            const auto& moved = p.span_shift.deadline_moved;
            EXPECT_LE(f, first_fatal_step(trace, [&](OpId id) {
                        return moved.empty() || moved[id];
                      })) << label;
            EXPECT_LE(f, trace.first_saturation_step) << label;
            if (f > first_fatal_step(trace, [](OpId) { return true; })) {
              ++past_first_fatal;
            }
            if (f == 0) return;
            ++replaying;
            EXPECT_LE(f, p.span_shift.previous_num_steps - 1 -
                             max_pool_latency(p))
                << label;
            EXPECT_TRUE(p.span_shift.ranks_same) << label;
            EXPECT_TRUE(p.span_shift.releases_same) << label;
            EXPECT_TRUE(p.span_shift.deadlines_not_earlier) << label;
          });
      EXPECT_GT(add_states, 0) << label;
      EXPECT_GT(replaying, 0) << label << ": no add-state replayed anything";
      if (ii == 0) {
        EXPECT_EQ(past_first_fatal, 0) << label;
      }
      if (w.name == "arf") {
        EXPECT_GT(past_first_fatal, 0) << label << ": no pinned fatal replayed";
      }
    }
  }
}

// Each precondition of the rule on its own forces a cold pass.
TEST(AddStateFrontier, RankReleaseDeadlineOrAcceptedSlackGivesZero) {
  struct Captured {
    Problem p;
    Action a;
    PassTrace trace;
  };
  std::optional<Captured> hit;
  AddStateLadder(workloads::make_idct8(), BackendKind::kList, 8)
      .walk([&](const Problem& p, const Action& a, const PassTrace& trace) {
        if (!hit && warm_start_frontier(p, a, trace) > 0) {
          hit = Captured{p, a, trace};
        }
      });
  ASSERT_TRUE(hit.has_value()) << "no replaying add-state on idct8 at II=8";
  const auto frontier_with = [&](auto&& mutate) {
    Problem p = hit->p;
    mutate(p);
    return warm_start_frontier(p, hit->a, hit->trace);
  };
  EXPECT_EQ(frontier_with([](Problem& p) { p.span_shift.ranks_same = false; }),
            0);
  EXPECT_EQ(
      frontier_with([](Problem& p) { p.span_shift.releases_same = false; }), 0);
  EXPECT_EQ(frontier_with(
                [](Problem& p) { p.span_shift.deadlines_not_earlier = false; }),
            0);
  EXPECT_EQ(frontier_with([](Problem& p) { p.accept_negative_slack = true; }),
            0);
}

// refresh_spans reports a rank change when added states stretch some
// mobilities but not others: anchored I/O keeps its home step, so the
// multiplier that outranked it on complexity now ranks behind it.
TEST(AddStateFrontier, RefreshSpansReportsRankChanges) {
  Builder b("anchored");
  auto in = b.in("x", int_ty(32));
  auto out = b.out("y", int_ty(32));
  auto r = b.read(in, "r");
  b.write(out, b.mul(r, r));
  auto m = b.finish();
  const auto region = ir::linearize(m.thread.tree, m.thread.tree.root());
  Problem p = build_problem(m.thread.dfg, region, {1, 4}, tech::artisan90(),
                            1600, PipelineConfig{}, m.ports.size(),
                            /*anchor_io=*/true, true);
  ASSERT_EQ(p.num_steps, 1);
  p.num_steps = 2;
  refresh_spans(p);
  EXPECT_EQ(p.span_shift.previous_num_steps, 1);
  EXPECT_FALSE(p.span_shift.ranks_same);
  EXPECT_TRUE(p.span_shift.releases_same);
  EXPECT_TRUE(p.span_shift.deadlines_not_earlier);
  Action a;
  a.kind = ActionKind::kAddState;
  EXPECT_EQ(warm_start_frontier(p, a, PassTrace{}), 0);
}

// ...and a release change when a span that did not fit the old states
// (ASAP past the last one, release() clamped to it) moves with them.
TEST(AddStateFrontier, RefreshSpansReportsReleaseChanges) {
  Prepared ex = prepare_example1();
  Problem p = build_problem(ex.module.thread.dfg, ex.region, ex.latency,
                            tech::artisan90(), 1600, PipelineConfig{},
                            ex.module.ports.size(), false, true);
  p.num_steps = 2;  // mul3 needs step 2 (alloc_test's Example 1 spans)
  refresh_spans(p);
  const OpId mul3 = find_op(ex.module, "mul3_op");
  ASSERT_EQ(p.release(mul3), 1);
  p.num_steps = 3;
  refresh_spans(p);
  EXPECT_EQ(p.release(mul3), 2);
  EXPECT_FALSE(p.span_shift.releases_same);
}

}  // namespace
}  // namespace hls::sched
