// Model-guided exploration A/B: the same grids — a named-kernel suite
// sweep and a ~1600-op random-CDFG sweep — run through the exhaustive
// engine and the guided engine (best-first chains + dominance pruning). Emits BENCH_explore.json, which doubles as the
// committed bench/baseline_explore.json the cost-model fit consumes
// (bench/fit_cost_model.py): the recurrence A/B section measures list vs
// SDC wall-clock at three sizes on pipelined recurrence grids (identical
// pass counts through the shared expert ladder), and the memory A/B
// section measures the per-pool pass bump (memory-aware vs blind).
//
// Self-checking — the bench exits 1 unless:
//  * every point the guided engine RUNS is field-identical to the
//    exhaustive engine's (pruning must not perturb survivors);
//  * every point it SKIPS ([explore/dominated]) is one the exhaustive
//    engine proved infeasible (pruning must never lose a point);
//  * total scheduling passes drop by at least 25%;
//  * guided wall-clock beats exhaustive wall-clock.
//
// The grids are deliberately weighted the way real performance-
// constrained sweeps are: long clock ladders whose tight-latency tails
// exhaust the relaxation ladder (provable, pass-bearing — the prunable
// mass), recurrence-bound pipelined ladders (provable, cheap), and
// feasible ladders. Budget-exhausted
// regions are NOT prunable by design — budget codes are not proofs —
// so they appear in the correctness grids (tests), not here where they
// would only dilute the ratio identically on both arms.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/explore.hpp"
#include "core/session.hpp"
#include "support/json.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace hls;
using Clock = std::chrono::steady_clock;

void ladder(std::vector<core::ExploreConfig>* grid, const char* curve,
            int latency, int ii, double lo, double hi, double step) {
  for (double t = lo; t <= hi + 0.5; t += step) {
    core::ExploreConfig c;
    c.curve = curve;
    c.tclk_ps = t;
    c.latency = ii > 0 ? 0 : latency;
    c.pipeline_ii = ii;
    grid->push_back(c);
  }
}

struct NamedGrid {
  std::string name;
  workloads::Workload workload;
  std::vector<core::ExploreConfig> grid;
};

std::vector<NamedGrid> make_grids() {
  std::vector<NamedGrid> grids;
  {
    NamedGrid g{"suite:fir16", workloads::make_fir(16), {}};
    ladder(&g.grid, "exhaust-l2", 2, 0, 1100, 2200, 100);
    ladder(&g.grid, "exhaust-l3", 3, 0, 1100, 2200, 100);
    ladder(&g.grid, "feasible-l16", 16, 0, 1450, 2200, 250);
    grids.push_back(std::move(g));
  }
  {
    NamedGrid g{"suite:ewf", workloads::make_ewf(), {}};
    ladder(&g.grid, "exhaust-l2", 2, 0, 1100, 2200, 100);
    ladder(&g.grid, "recurrence-ii1", 0, 1, 1100, 2200, 100);
    ladder(&g.grid, "feasible-l16", 16, 0, 1450, 2200, 250);
    grids.push_back(std::move(g));
  }
  {
    NamedGrid g{"suite:dct8", workloads::make_dct8(), {}};
    ladder(&g.grid, "exhaust-l2", 2, 0, 1100, 2200, 50);
    ladder(&g.grid, "feasible-l16", 16, 0, 1450, 2200, 250);
    grids.push_back(std::move(g));
  }
  {
    NamedGrid g{"suite:arf", workloads::make_arf(), {}};
    ladder(&g.grid, "recurrence-ii1", 0, 1, 1100, 2200, 100);
    ladder(&g.grid, "feasible-l8", 8, 0, 1450, 2200, 250);
    grids.push_back(std::move(g));
  }
  {
    // The ~1600-op random CDFG (post-optimizer; the generator's
    // target_ops is pre-optimization). Dense tight-latency ladders are
    // where pruning pays at this size: every exhaustion pass costs
    // milliseconds, and the provable witness at the loosest clock
    // retires the whole tail.
    workloads::RandomCdfgOptions gen;
    gen.target_ops = 4800;
    gen.inputs = 10;
    NamedGrid g{"random:1600", workloads::make_random_cdfg(1600, gen), {}};
    ladder(&g.grid, "exhaust-l2", 2, 0, 1100, 2100, 20);
    ladder(&g.grid, "exhaust-l4", 4, 0, 1100, 2100, 20);
    ladder(&g.grid, "exhaust-l8", 8, 0, 1100, 1850, 50);
    ladder(&g.grid, "recurrence-ii2", 0, 2, 1100, 2200, 100);
    ladder(&g.grid, "feasible-ii8", 0, 8, 1900, 1900, 100);
    grids.push_back(std::move(g));
  }
  return grids;
}

bool points_semantically_equal(const core::ExplorePoint& a,
                               const core::ExplorePoint& b) {
  // Everything but wall-clock.
  return a.curve == b.curve && a.tclk_ps == b.tclk_ps &&
         a.latency == b.latency && a.pipelined == b.pipelined &&
         a.min_ii == b.min_ii && a.delay_ns == b.delay_ns &&
         a.area == b.area && a.power_mw == b.power_mw &&
         a.feasible == b.feasible && a.failure == b.failure &&
         a.cancelled == b.cancelled && a.passes == b.passes &&
         a.relaxations == b.relaxations && a.backend == b.backend &&
         a.seed_use == b.seed_use &&
         a.constraint_edges == b.constraint_edges &&
         a.propagation_relaxations == b.propagation_relaxations &&
         a.memory_restraints == b.memory_restraints &&
         a.mem_banks == b.mem_banks && a.mem_ports == b.mem_ports;
}

struct ArmTotals {
  long long passes = 0;
  double seconds = 0;
  std::size_t feasible = 0;
  std::size_t pruned = 0;
};

struct GridReport {
  std::string name;
  std::size_t ops = 0;
  std::size_t points = 0;
  ArmTotals exhaustive, guided;
  bool results_identical = true;
  bool pruned_only_provable = true;
};

ArmTotals tally(const std::vector<core::ExplorePoint>& pts, double seconds) {
  ArmTotals t;
  t.seconds = seconds;
  for (const auto& p : pts) {
    t.passes += p.passes;
    if (p.feasible) ++t.feasible;
    if (p.failure.rfind(core::kDominatedPrefix, 0) == 0) ++t.pruned;
  }
  return t;
}

GridReport run_grid(const NamedGrid& spec) {
  core::FlowSession session(spec.workload);
  GridReport report;
  report.name = spec.name;
  report.ops = session.module().thread.dfg.size();
  report.points = spec.grid.size();

  auto timed = [&](const core::ExploreOptions& o, double* seconds) {
    const auto t0 = Clock::now();
    auto pts = core::explore(session, spec.grid, o);
    *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return pts;
  };
  double exhaustive_s = 0, guided_s = 0;
  const auto exhaustive = timed({}, &exhaustive_s);
  core::ExploreOptions guided_opts;
  guided_opts.guided = true;
  guided_opts.prune = true;
  const auto guided = timed(guided_opts, &guided_s);

  report.exhaustive = tally(exhaustive, exhaustive_s);
  report.guided = tally(guided, guided_s);
  for (std::size_t i = 0; i < spec.grid.size(); ++i) {
    if (guided[i].failure.rfind(core::kDominatedPrefix, 0) == 0) {
      if (exhaustive[i].feasible) report.pruned_only_provable = false;
    } else if (!points_semantically_equal(guided[i], exhaustive[i])) {
      report.results_identical = false;
      std::fprintf(stderr,
                   "MISMATCH %s point %zu (%s tclk=%.0f): guided run "
                   "differs from exhaustive\n",
                   spec.name.c_str(), i, spec.grid[i].curve.c_str(),
                   spec.grid[i].tclk_ps);
    }
  }
  return report;
}

// ---- Cost-model fit inputs -------------------------------------------------

struct RecurrenceAb {
  std::string workload;
  std::size_t ops = 0;
  double tclk_ps = 0;
  int pipeline_ii = 0;
  int list_passes = 0, sdc_passes = 0;
  double list_seconds = 0, sdc_seconds = 0;
  bool ok = false;
};

RecurrenceAb recurrence_ab(const char* name, workloads::Workload w,
                           double tclk, int ii) {
  core::FlowSession session(std::move(w));
  RecurrenceAb ab;
  ab.workload = name;
  ab.ops = session.module().thread.dfg.size();
  ab.tclk_ps = tclk;
  ab.pipeline_ii = ii;
  core::ExploreConfig cfg;
  cfg.curve = name;
  cfg.tclk_ps = tclk;
  cfg.pipeline_ii = ii;
  cfg.backend = sched::BackendKind::kList;
  auto list = core::explore(session, {cfg}, {});
  cfg.backend = sched::BackendKind::kSdc;
  auto sdc = core::explore(session, {cfg}, {});
  ab.list_passes = list[0].passes;
  ab.sdc_passes = sdc[0].passes;
  ab.list_seconds = list[0].sched_seconds;
  ab.sdc_seconds = sdc[0].sched_seconds;
  // Identical pass counts are what make the wall ratio a per-pass
  // ratio; the fit hard-fails on a mismatch, so catch it here first.
  ab.ok = list[0].feasible && sdc[0].feasible &&
          ab.list_passes == ab.sdc_passes;
  if (!ab.ok) {
    std::fprintf(stderr,
                 "FAIL: recurrence A/B %s (%zu ops) unusable: list "
                 "feasible=%d passes=%d, sdc feasible=%d passes=%d\n",
                 name, ab.ops, list[0].feasible, ab.list_passes,
                 sdc[0].feasible, ab.sdc_passes);
  }
  return ab;
}

struct MemoryAb {
  std::size_t pools = 0;
  int passes_aware = 0, passes_blind = 0;
  bool ok = false;
};

MemoryAb memory_ab() {
  core::FlowSession session(workloads::make_banked_fir());
  MemoryAb ab;
  ab.pools = session.memory().arrays.size();
  core::ExploreConfig cfg;
  cfg.curve = "banked_fir";
  cfg.tclk_ps = 1600;
  cfg.latency = 0;
  auto aware = core::explore(session, {cfg}, {});
  cfg.memory_aware = false;
  auto blind = core::explore(session, {cfg}, {});
  ab.passes_aware = aware[0].passes;
  ab.passes_blind = blind[0].passes;
  ab.ok = aware[0].feasible && blind[0].feasible && ab.pools > 0 &&
          ab.passes_blind > 0;
  if (!ab.ok) {
    std::fprintf(stderr, "FAIL: memory A/B unusable (aware feasible=%d, "
                         "blind feasible=%d, pools=%zu)\n",
                 aware[0].feasible, blind[0].feasible, ab.pools);
  }
  return ab;
}

}  // namespace

int main() {
  std::vector<GridReport> reports;
  ArmTotals exhaustive, guided;
  std::size_t points = 0;
  bool results_identical = true, pruned_only_provable = true;
  for (const auto& spec : make_grids()) {
    reports.push_back(run_grid(spec));
    const auto& r = reports.back();
    std::printf("%-12s %4zu ops %4zu pts: passes %6lld -> %6lld, "
                "pruned %3zu, wall %6.2fs -> %6.2fs\n",
                r.name.c_str(), r.ops, r.points, r.exhaustive.passes,
                r.guided.passes, r.guided.pruned,
                r.exhaustive.seconds, r.guided.seconds);
    points += r.points;
    results_identical = results_identical && r.results_identical;
    pruned_only_provable = pruned_only_provable && r.pruned_only_provable;
    auto add = [](ArmTotals* into, const ArmTotals& from) {
      into->passes += from.passes;
      into->seconds += from.seconds;
      into->feasible += from.feasible;
      into->pruned += from.pruned;
    };
    add(&exhaustive, r.exhaustive);
    add(&guided, r.guided);
  }

  const double pass_reduction =
      exhaustive.passes > 0
          ? 100.0 * (1.0 - static_cast<double>(guided.passes) /
                               static_cast<double>(exhaustive.passes))
          : 0.0;
  const double wall_reduction =
      exhaustive.seconds > 0
          ? 100.0 * (1.0 - guided.seconds / exhaustive.seconds)
          : 0.0;
  std::printf("total        %4zu pts: passes %6lld -> %6lld (-%.1f%%), "
              "pruned %zu, wall %.2fs -> %.2fs (-%.1f%%)\n",
              points, exhaustive.passes, guided.passes, pass_reduction,
              guided.pruned, exhaustive.seconds, guided.seconds,
              wall_reduction);

  std::vector<RecurrenceAb> rec;
  rec.push_back(recurrence_ab("crc32", workloads::make_crc32(), 1450, 2));
  {
    workloads::RandomCdfgOptions gen;
    gen.target_ops = 1200;
    gen.inputs = 6;
    rec.push_back(recurrence_ab(
        "random:400", workloads::make_random_cdfg(777, gen), 1850, 8));
  }
  {
    workloads::RandomCdfgOptions gen;
    gen.target_ops = 4800;
    gen.inputs = 10;
    rec.push_back(recurrence_ab(
        "random:1600", workloads::make_random_cdfg(1600, gen), 1900, 8));
  }
  for (const auto& ab : rec) {
    std::printf("recurrence A/B %-12s %4zu ops: %3d passes, list %.3fs, "
                "sdc %.3fs (rho %.3f)\n",
                ab.workload.c_str(), ab.ops, ab.list_passes, ab.list_seconds,
                ab.sdc_seconds,
                ab.list_seconds > 0 ? ab.sdc_seconds / ab.list_seconds : 0.0);
  }
  const MemoryAb mem = memory_ab();
  std::printf("memory A/B banked_fir: %zu pool(s), %d passes aware vs %d "
              "blind\n",
              mem.pools, mem.passes_aware, mem.passes_blind);

  bool ok = true;
  if (!results_identical) {
    std::fprintf(stderr, "FAIL: guided results differ from exhaustive\n");
    ok = false;
  }
  if (!pruned_only_provable) {
    std::fprintf(stderr,
                 "FAIL: pruning skipped a point the exhaustive engine "
                 "found feasible\n");
    ok = false;
  }
  if (pass_reduction < 25.0) {
    std::fprintf(stderr,
                 "FAIL: pass reduction %.1f%% below the 25%% bar\n",
                 pass_reduction);
    ok = false;
  }
  if (guided.seconds >= exhaustive.seconds) {
    std::fprintf(stderr,
                 "FAIL: guided wall %.2fs did not beat exhaustive %.2fs\n",
                 guided.seconds, exhaustive.seconds);
    ok = false;
  }
  for (const auto& ab : rec) ok = ok && ab.ok;
  ok = ok && mem.ok;

  JsonWriter w;
  w.begin_object();
  w.key("explore_guided");
  w.begin_object();
  w.key("points"), w.value(static_cast<std::uint64_t>(points));
  w.key("results_identical"), w.value(results_identical);
  w.key("pruned_only_provable"), w.value(pruned_only_provable);
  w.key("exhaustive_passes"), w.value(static_cast<std::int64_t>(exhaustive.passes));
  w.key("guided_passes"), w.value(static_cast<std::int64_t>(guided.passes));
  w.key("pass_reduction_pct"), w.value(pass_reduction);
  w.key("exhaustive_seconds"), w.value(exhaustive.seconds);
  w.key("guided_seconds"), w.value(guided.seconds);
  w.key("wall_reduction_pct"), w.value(wall_reduction);
  w.key("pruned_points"), w.value(static_cast<std::uint64_t>(guided.pruned));
  w.key("feasible_points"), w.value(static_cast<std::uint64_t>(guided.feasible));
  w.key("grids");
  w.begin_array();
  for (const auto& r : reports) {
    w.begin_object();
    w.key("name"), w.value(r.name);
    w.key("ops"), w.value(static_cast<std::uint64_t>(r.ops));
    w.key("points"), w.value(static_cast<std::uint64_t>(r.points));
    w.key("exhaustive_passes"), w.value(static_cast<std::int64_t>(r.exhaustive.passes));
    w.key("guided_passes"), w.value(static_cast<std::int64_t>(r.guided.passes));
    w.key("pruned"), w.value(static_cast<std::uint64_t>(r.guided.pruned));
    w.key("exhaustive_seconds"), w.value(r.exhaustive.seconds);
    w.key("guided_seconds"), w.value(r.guided.seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("recurrence_ab");
  w.begin_array();
  for (const auto& ab : rec) {
    w.begin_object();
    w.key("workload"), w.value(ab.workload);
    w.key("ops"), w.value(static_cast<std::uint64_t>(ab.ops));
    w.key("tclk_ps"), w.value(ab.tclk_ps);
    w.key("pipeline_ii"), w.value(ab.pipeline_ii);
    w.key("list_passes"), w.value(ab.list_passes);
    w.key("sdc_passes"), w.value(ab.sdc_passes);
    w.key("list_seconds"), w.value(ab.list_seconds);
    w.key("sdc_seconds"), w.value(ab.sdc_seconds);
    w.end_object();
  }
  w.end_array();
  w.key("memory_ab");
  w.begin_object();
  w.key("workload"), w.value("banked_fir");
  w.key("pools"), w.value(static_cast<std::uint64_t>(mem.pools));
  w.key("passes_aware"), w.value(mem.passes_aware);
  w.key("passes_blind"), w.value(mem.passes_blind);
  w.end_object();
  w.end_object();
  std::ofstream("BENCH_explore.json") << w.str() << "\n";
  std::printf("wrote BENCH_explore.json\n");
  return ok ? 0 : 1;
}
