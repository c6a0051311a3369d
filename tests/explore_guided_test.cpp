// Tests for model-guided best-first exploration (docs/EXPLORE.md):
//  * guided + prune is result-identical to the exhaustive engine for
//    every point it runs, at every thread count and config order;
//  * dominance pruning only ever skips points a looser clock on the same
//    chain PROVED infeasible — budget/cancellation codes never prune, so
//    feasible points behind a budget failure are never lost;
//  * the guided order and the per-config cost predictions are pure and
//    deterministic, chains loosest-clock-first;
//  * resolve_backend's fitted-model rule;
//  * the serve layer's guided/prune path stays byte-deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/explore.hpp"
#include "core/session.hpp"
#include "sched/backend.hpp"
#include "serve/server.hpp"
#include "workloads/workloads.hpp"

namespace hls::core {
namespace {

// Everything except the wall-clock field.
void expect_point_eq(const ExplorePoint& a, const ExplorePoint& b,
                     const std::string& what) {
  EXPECT_EQ(a.curve, b.curve) << what;
  EXPECT_EQ(a.tclk_ps, b.tclk_ps) << what;
  EXPECT_EQ(a.latency, b.latency) << what;
  EXPECT_EQ(a.pipelined, b.pipelined) << what;
  EXPECT_EQ(a.min_ii, b.min_ii) << what;
  EXPECT_EQ(a.delay_ns, b.delay_ns) << what;
  EXPECT_EQ(a.area, b.area) << what;
  EXPECT_EQ(a.power_mw, b.power_mw) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.failure, b.failure) << what;
  EXPECT_EQ(a.cancelled, b.cancelled) << what;
  EXPECT_EQ(a.passes, b.passes) << what;
  EXPECT_EQ(a.relaxations, b.relaxations) << what;
  EXPECT_EQ(a.backend, b.backend) << what;
  EXPECT_EQ(a.seed_use, b.seed_use) << what;
  EXPECT_EQ(a.constraint_edges, b.constraint_edges) << what;
  EXPECT_EQ(a.propagation_relaxations, b.propagation_relaxations) << what;
  EXPECT_EQ(a.memory_restraints, b.memory_restraints) << what;
  EXPECT_EQ(a.mem_banks, b.mem_banks) << what;
  EXPECT_EQ(a.mem_ports, b.mem_ports) << what;
}

bool dominated(const ExplorePoint& p) {
  return p.failure.rfind(kDominatedPrefix, 0) == 0;
}

void ladder(std::vector<ExploreConfig>* grid, const char* curve, int latency,
            int ii, std::initializer_list<double> tclks) {
  for (double t : tclks) {
    ExploreConfig c;
    c.curve = curve;
    c.tclk_ps = t;
    c.latency = ii > 0 ? 0 : latency;
    c.pipeline_ii = ii;
    grid->push_back(c);
  }
}

// fir16: a tight-latency ladder that exhausts the relaxation ladder
// (provable, pass-bearing — the prunable regime) plus a feasible ladder
// (the in-chain seeding regime).
std::vector<ExploreConfig> mixed_grid() {
  std::vector<ExploreConfig> grid;
  ladder(&grid, "exhaust", 2, 0, {1300, 1600, 1850, 2200});
  ladder(&grid, "feasible", 16, 0, {1450, 1600, 1850, 2200});
  return grid;
}

TEST(GuidedExplore, MatchesExhaustiveAtEveryThreadCount) {
  const FlowSession session(workloads::make_fir(16));
  const auto grid = mixed_grid();
  const auto exhaustive = explore(session, grid, {});
  ASSERT_EQ(exhaustive.size(), grid.size());
  for (int threads : {1, 2, 4, 0}) {
    ExploreOptions o;
    o.threads = threads;
    o.guided = true;
    o.prune = true;
    const auto guided = explore(session, grid, o);
    ASSERT_EQ(guided.size(), grid.size());
    std::size_t pruned = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const std::string what =
          grid[i].curve + " tclk=" + std::to_string(grid[i].tclk_ps) +
          " threads=" + std::to_string(threads);
      if (dominated(guided[i])) {
        ++pruned;
        // A skipped point must be one the exhaustive engine also found
        // infeasible — pruning may never lose a feasible point.
        EXPECT_FALSE(exhaustive[i].feasible) << what;
        EXPECT_FALSE(guided[i].feasible) << what;
        EXPECT_FALSE(guided[i].cancelled) << what;
        EXPECT_EQ(guided[i].passes, 0) << what;
        continue;
      }
      expect_point_eq(guided[i], exhaustive[i], what);
    }
    EXPECT_GT(pruned, 0u) << "the exhaustion ladder must actually prune";
  }
}

TEST(GuidedExplore, ThreadCountsProduceIdenticalVectors) {
  const FlowSession session(workloads::make_fir(16));
  const auto grid = mixed_grid();
  ExploreOptions serial;
  serial.guided = true;
  serial.prune = true;
  const auto base = explore(session, grid, serial);
  for (int threads : {2, 4, 0}) {
    ExploreOptions o = serial;
    o.threads = threads;
    const auto pts = explore(session, grid, o);
    ASSERT_EQ(pts.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      expect_point_eq(pts[i], base[i],
                      "threads=" + std::to_string(threads) + " point " +
                          std::to_string(i));
    }
  }
}

TEST(GuidedExplore, ShuffledConfigOrderYieldsSamePerConfigResults) {
  const FlowSession session(workloads::make_fir(16));
  const auto grid = mixed_grid();
  ExploreOptions o;
  o.guided = true;
  o.prune = true;
  const auto base = explore(session, grid, o);

  std::vector<std::size_t> perm(grid.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::mt19937 rng(7);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(perm.begin(), perm.end(), rng);
    std::vector<ExploreConfig> shuffled;
    for (std::size_t i : perm) shuffled.push_back(grid[i]);
    const auto pts = explore(session, shuffled, o);
    ASSERT_EQ(pts.size(), perm.size());
    for (std::size_t at = 0; at < perm.size(); ++at) {
      expect_point_eq(pts[at], base[perm[at]],
                      "round " + std::to_string(round) + " config " +
                          std::to_string(perm[at]));
    }
  }
}

// crc32 at II=2: the 1600 ps point exhausts its pass budget while the
// STRICTLY TIGHTER 1450 ps point is feasible — feasibility along the
// chain is only monotone for provable failures. If budget codes counted
// as proofs, pruning would skip the feasible 1450 point; they must not.
TEST(GuidedExplore, BudgetFailuresNeverPruneFeasibleTighterPoints) {
  const FlowSession session(workloads::make_crc32());
  std::vector<ExploreConfig> grid;
  ladder(&grid, "ii2", 0, 2, {1300, 1450, 1600, 1850, 2200});
  const auto exhaustive = explore(session, grid, {});
  ExploreOptions o;
  o.guided = true;
  o.prune = true;
  const auto guided = explore(session, grid, o);
  ASSERT_EQ(guided.size(), grid.size());
  bool saw_budget_failure = false, saw_feasible_below_it = false;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(guided[i].feasible, exhaustive[i].feasible)
        << "tclk=" << grid[i].tclk_ps;
    if (!exhaustive[i].feasible &&
        exhaustive[i].failure.find("budget") != std::string::npos) {
      saw_budget_failure = true;
      EXPECT_FALSE(dominated(guided[i])) << "budget failures are not proofs";
      for (std::size_t j = 0; j < grid.size(); ++j) {
        if (grid[j].tclk_ps < grid[i].tclk_ps && exhaustive[j].feasible) {
          saw_feasible_below_it = true;
          EXPECT_TRUE(guided[j].feasible) << "tclk=" << grid[j].tclk_ps;
          EXPECT_FALSE(dominated(guided[j]));
        }
      }
    }
  }
  // The grid is chosen to exercise exactly this shape; if the scheduler
  // evolves past it, pick a new non-monotone ladder rather than letting
  // the guard rot.
  EXPECT_TRUE(saw_budget_failure) << "grid no longer has a budget failure";
  EXPECT_TRUE(saw_feasible_below_it)
      << "grid no longer has a feasible point tighter than the budget one";
}

TEST(GuidedExplore, DominatedPointsSitStrictlyBelowAProvableWitness) {
  const FlowSession session(workloads::make_fir(16));
  std::vector<ExploreConfig> grid;
  ladder(&grid, "exhaust", 2, 0, {1300, 1450, 1600, 1850, 2200});
  ExploreOptions o;
  o.guided = true;
  o.prune = true;
  const auto pts = explore(session, grid, o);
  // The loosest clock runs and proves infeasibility; everything tighter
  // is dominated by it.
  double witness = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!dominated(pts[i])) {
      EXPECT_TRUE(proves_infeasibility(pts[i])) << "tclk=" << grid[i].tclk_ps;
      witness = std::max(witness, grid[i].tclk_ps);
    }
  }
  ASSERT_GT(witness, 0.0);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (dominated(pts[i])) {
      EXPECT_LT(grid[i].tclk_ps, witness);
      EXPECT_NE(pts[i].failure.find("tclk_ps="), std::string::npos)
          << "dominated points must name their witness clock";
    }
  }
}

TEST(GuidedExplore, GuidedOrderIsDeterministicAndLoosestClockFirst) {
  const FlowSession session(workloads::make_fir(16));
  const auto grid = mixed_grid();
  const auto order = guided_order(session, grid);
  EXPECT_EQ(order, guided_order(session, grid));
  ASSERT_EQ(order.size(), grid.size());
  std::vector<bool> seen(grid.size(), false);
  for (std::size_t i : order) {
    ASSERT_LT(i, grid.size());
    EXPECT_FALSE(seen[i]) << "guided_order must be a permutation";
    seen[i] = true;
  }
  // Within a chain, clocks descend (ties broken by config index).
  std::size_t prev = grid.size();
  for (std::size_t i : order) {
    if (prev != grid.size() &&
        explore_chain_key(grid[prev]) == explore_chain_key(grid[i])) {
      EXPECT_GE(grid[prev].tclk_ps, grid[i].tclk_ps);
    }
    prev = i;
  }
}

TEST(GuidedExplore, PredictedCostIsPositiveAndScalesWithBackend) {
  const FlowSession session(workloads::make_fir(16));
  ExploreConfig seq;
  seq.tclk_ps = 1600;
  seq.latency = 16;
  EXPECT_GT(predicted_config_cost_ns(session, seq), 0.0);
  EXPECT_EQ(predicted_config_cost_ns(session, seq),
            predicted_config_cost_ns(session, seq));
  ExploreConfig sdc = seq;
  sdc.backend = sched::BackendKind::kSdc;
  EXPECT_GT(predicted_config_cost_ns(session, sdc),
            predicted_config_cost_ns(session, seq))
      << "SDC predicts dearer than list on a feed-forward problem";
}

TEST(GuidedExplore, ProvesInfeasibilityAcceptsOnlyProvableCodes) {
  ExplorePoint p;
  p.feasible = false;
  p.failure = "[schedule/infeasible] scheduling failed: no applicable relaxation";
  EXPECT_TRUE(proves_infeasibility(p));
  p.failure = "[schedule/no_feasible_ii] no II in [1, 8] schedules";
  EXPECT_TRUE(proves_infeasibility(p));
  p.failure = "[schedule/pass_budget_exhausted] gave up after 128 passes";
  EXPECT_FALSE(proves_infeasibility(p));
  p.failure = "[schedule/budget_exhausted] commit budget exhausted";
  EXPECT_FALSE(proves_infeasibility(p));
  p.failure = "[schedule/deadline_exceeded] advisory deadline hit";
  EXPECT_FALSE(proves_infeasibility(p));
  p.failure = "[options/invalid] latency must be positive";
  EXPECT_FALSE(proves_infeasibility(p));
  p.failure = "[schedule/infeasible] ...";
  p.cancelled = true;
  EXPECT_FALSE(proves_infeasibility(p)) << "cancelled runs prove nothing";
  p.cancelled = false;
  p.feasible = true;
  p.failure.clear();
  EXPECT_FALSE(proves_infeasibility(p));
}

TEST(GuidedExplore, ConstraintTotalsSurfacePerPoint) {
  const FlowSession session(workloads::make_crc32());
  ExploreConfig cfg;
  cfg.curve = "ii2";
  cfg.tclk_ps = 1450;
  cfg.pipeline_ii = 2;
  cfg.backend = sched::BackendKind::kSdc;
  auto sdc = explore(session, {cfg}, {});
  ASSERT_TRUE(sdc[0].feasible) << sdc[0].failure;
  EXPECT_GT(sdc[0].constraint_edges, 0u);
  EXPECT_GT(sdc[0].propagation_relaxations, 0u);
  cfg.backend = sched::BackendKind::kList;
  auto list = explore(session, {cfg}, {});
  ASSERT_TRUE(list[0].feasible) << list[0].failure;
  EXPECT_EQ(list[0].constraint_edges, 0u);
  EXPECT_EQ(list[0].propagation_relaxations, 0u);
  // Same shared ladder: pass counts match across backends.
  EXPECT_EQ(sdc[0].passes, list[0].passes);
}

}  // namespace
}  // namespace hls::core

// ---- resolve_backend: fitted model ------------------------------------------

namespace hls::sched {
namespace {

Problem shaped_problem(std::size_t ops, bool pipelined, std::size_t sccs) {
  Problem p;
  p.ops.resize(ops);
  p.pipeline.enabled = pipelined;
  p.sccs.resize(sccs);
  return p;
}

TEST(ResolveBackend, ExplicitChoicePassesThroughBothRules) {
  SchedulerOptions o;
  o.backend = BackendKind::kSdc;
  EXPECT_EQ(resolve_backend(shaped_problem(64, false, 0), o),
            BackendKind::kSdc);
  o.backend = BackendKind::kList;
  EXPECT_EQ(resolve_backend(shaped_problem(64, true, 2), o),
            BackendKind::kList);
}

TEST(ResolveBackend, BothRulesKeepListForSequentialAndFeedForward) {
  SchedulerOptions o;
  o.backend = BackendKind::kAuto;
  // Sequential, and pipelined-but-recurrence-free: SDC buys nothing.
  EXPECT_EQ(resolve_backend(shaped_problem(500, false, 0), o),
            BackendKind::kList);
  EXPECT_EQ(resolve_backend(shaped_problem(500, true, 0), o),
            BackendKind::kList);
}

TEST(ResolveBackend, ModelPrefersSdcOnWarmPipelinedRecurrences) {
  SchedulerOptions o;
  o.backend = BackendKind::kAuto;
  ASSERT_TRUE(o.warm_start);
  // Small and mid-size recurrence problems sit well inside the fitted
  // affordability bound. Deliberately far from the model's crossover —
  // the exact crossover is a fit artifact that moves on re-fit, so it
  // is documentation (docs/SCHEDULER.md), not a test invariant.
  EXPECT_EQ(resolve_backend(shaped_problem(64, true, 1), o),
            BackendKind::kSdc);
  EXPECT_EQ(resolve_backend(shaped_problem(400, true, 3), o),
            BackendKind::kSdc);
}

TEST(CostModel, FeatureSemantics) {
  core::CostFeatures f;
  f.ops = 400;
  EXPECT_FALSE(core::model_prefers_sdc(f)) << "sequential never SDC";
  f.pipelined = true;
  EXPECT_FALSE(core::model_prefers_sdc(f)) << "no recurrences, no SDC";
  EXPECT_GT(core::predicted_cost_ns(f, /*sdc=*/false), 0.0);
  EXPECT_GT(core::predicted_cost_ns(f, /*sdc=*/true),
            core::predicted_cost_ns(f, /*sdc=*/false));
  core::CostFeatures big = f;
  big.ops = 6400;
  EXPECT_GT(core::predicted_cost_ns(big, false),
            core::predicted_cost_ns(f, false))
      << "cost grows with op count";
}

}  // namespace
}  // namespace hls::sched

// ---- Serve-layer guided/prune path -----------------------------------------

namespace hls::serve {
namespace {

JobRequest prune_job(std::int64_t id) {
  JobRequest j;
  j.id = id;
  j.workload = "fir16";
  j.guided = true;
  j.prune = true;
  core::ExploreConfig cfg;
  for (double t : {1300, 1450, 1600, 1850, 2200}) {
    cfg.curve = "exhaust";
    cfg.tclk_ps = t;
    cfg.latency = 2;
    j.points.push_back(cfg);
  }
  for (double t : {1600, 1850, 2200}) {
    cfg.curve = "feasible";
    cfg.tclk_ps = t;
    cfg.latency = 16;
    j.points.push_back(cfg);
  }
  return j;
}

std::string drain_to_string(int threads) {
  ServerOptions options;
  options.threads = threads;
  options.micro_batch = 2;  // pruning must work across round boundaries
  options.emit_stats = true;
  Server server(options);
  std::string error;
  EXPECT_TRUE(server.submit(prune_job(0), &error)) << error;
  std::string out;
  server.drain([&](const std::string& line) {
    out += line;
    out += '\n';
  });
  EXPECT_GT(server.stats().points_pruned, 0u);
  return out;
}

TEST(ServeGuided, PruneIsByteDeterministicAcrossThreadCounts) {
  const std::string serial = drain_to_string(1);
  EXPECT_NE(serial.find(core::kDominatedPrefix), std::string::npos)
      << "the exhaustion ladder must emit dominated lines";
  EXPECT_NE(serial.find("\"pruned\":"), std::string::npos)
      << "the done summary must report the pruned count";
  EXPECT_NE(serial.find("\"points_pruned\":"), std::string::npos);
  EXPECT_EQ(serial, drain_to_string(4));
  EXPECT_EQ(serial, drain_to_string(0));
}

TEST(ServeGuided, GuidedAndPruneParseFromJson) {
  std::vector<JobRequest> jobs;
  std::vector<std::string> errors;
  ASSERT_TRUE(parse_jobs(
      R"({"id": 3, "workload": "ewf", "guided": true, "prune": true,
          "points": [{"tclk_ps": 1800, "latency": 14}]})",
      &jobs, &errors));
  ASSERT_TRUE(errors.empty()) << errors.front();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(jobs[0].guided);
  EXPECT_TRUE(jobs[0].prune);
  jobs.clear();
  parse_jobs(R"({"id": 4, "workload": "ewf", "prune": "yes",
                 "points": [{"tclk_ps": 1800, "latency": 14}]})",
             &jobs, &errors);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.back().find("boolean"), std::string::npos);
}

}  // namespace
}  // namespace hls::serve
