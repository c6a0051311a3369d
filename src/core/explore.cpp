#include "core/explore.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "core/cost_model.hpp"
#include "support/diagnostics.hpp"

namespace hls::core {

ExplorePoint run_point(const FlowSession& session, const ExploreConfig& cfg,
                       RunPointExtras* extras) {
  ExplorePoint pt;
  pt.curve = cfg.curve;
  pt.tclk_ps = cfg.tclk_ps;
  pt.latency = cfg.latency;
  pt.pipelined = cfg.pipeline_ii > 0 || cfg.solve_min_ii;

  FlowOptions opts;
  opts.tclk_ps = cfg.tclk_ps;
  opts.backend = cfg.backend;
  opts.pipeline_ii = cfg.pipeline_ii;
  opts.solve_min_ii = cfg.solve_min_ii;
  opts.latency_min = cfg.latency;
  opts.latency_max = cfg.latency;
  opts.memory_aware = cfg.memory_aware;
  opts.budget = cfg.budget;
  opts.emit_verilog = false;
  if (extras != nullptr) {
    opts.seed = extras->seed;
    opts.record_seed = extras->record_seed;
    opts.stop = extras->stop;
  }
  pt.backend = sched::backend_name(cfg.backend);
  try {
    FlowResult r = session.run(opts);
    // Report the backend that actually ran (kAuto resolves per problem
    // inside schedule_region). A run that failed before the schedule
    // stage keeps the requested name — nothing was resolved.
    const bool reached_schedule =
        r.success ||
        std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                    [](const Diagnostic& d) { return d.stage == "schedule"; });
    if (reached_schedule) {
      pt.backend = sched::backend_name(r.sched.backend);
      pt.min_ii = r.sched.min_ii;
    }
    pt.sched_seconds = r.timings.sched_seconds;
    pt.passes = r.sched.passes;
    pt.relaxations = r.sched.relaxations();
    pt.seed_use = sched::seed_use_name(r.sched.seed_use);
    pt.memory_restraints = r.sched.memory_restraints;
    for (const sched::PassRecord& rec : r.sched.history) {
      pt.constraint_edges += rec.constraint_edges;
      pt.propagation_relaxations += rec.propagation_relaxations;
    }
    for (const alloc::ResourcePool& pool : r.sched.schedule.resources.pools) {
      if (!pool.is_memory) continue;
      pt.mem_banks += pool.banks;
      pt.mem_ports += pool.count;
    }
    if (r.success) {
      pt.feasible = true;
      pt.delay_ns = r.delay_ns;
      pt.area = r.area.total();
      pt.power_mw = r.power.total_mw();
      if (extras != nullptr && extras->record_seed) {
        extras->seed_out = std::move(r.sched.seed_out);
        extras->seed_recorded = true;
      }
    } else {
      pt.failure = r.failure_reason;
      // Lead with the structured coordinates of the diagnostic that
      // failed the run (the last error is the one that stopped it).
      for (auto it = r.diagnostics.rbegin(); it != r.diagnostics.rend();
           ++it) {
        if (it->severity != Severity::kError) continue;
        pt.failure = strf("[", it->stage, "/", it->code, "] ",
                          r.failure_reason);
        pt.cancelled = it->code == "cancelled";
        break;
      }
    }
  } catch (const InternalError& e) {
    // Clock infeasible for the library (e.g. a multiplier cannot fit):
    // the configuration is reported as infeasible, like a failed run.
    pt.failure = strf("internal: ", e.what());
  }
  return pt;
}

bool proves_infeasibility(const ExplorePoint& point) {
  if (point.feasible || point.cancelled) return false;
  return point.failure.rfind("[schedule/infeasible]", 0) == 0 ||
         point.failure.rfind("[schedule/no_feasible_ii]", 0) == 0;
}

std::string explore_chain_key(const ExploreConfig& cfg) {
  // '\x1f' (unit separator) fences the free-form curve name off from the
  // numeric fields; everything after it is numeric, so keys are
  // collision-free. tclk_ps is deliberately absent — it is the chain's
  // ladder axis.
  return strf(cfg.curve, '\x1f', cfg.latency, '|', cfg.pipeline_ii, '|',
              cfg.solve_min_ii, '|', static_cast<int>(cfg.backend), '|',
              cfg.memory_aware, '|', cfg.budget.max_passes, '|',
              cfg.budget.max_commits, '|', cfg.budget.max_relax_steps, '|',
              cfg.budget.deadline_seconds);
}

double predicted_config_cost_ns(const FlowSession& session,
                                const ExploreConfig& cfg) {
  CostFeatures features;
  features.ops = session.module().thread.dfg.size();
  features.pipelined = cfg.pipeline_ii > 0 || cfg.solve_min_ii;
  // Recurrence *presence* prior: the region-restricted SCCs are only
  // computed once scheduling builds its Problem, and for ordering all
  // the model needs is whether the recurrence discount can apply.
  features.recurrences = features.pipelined ? 1 : 0;
  features.memory_pools =
      cfg.memory_aware ? session.memory().arrays.size() : 0;
  bool sdc = false;
  switch (cfg.backend) {
    case sched::BackendKind::kSdc: sdc = true; break;
    case sched::BackendKind::kList: sdc = false; break;
    case sched::BackendKind::kAuto: sdc = model_prefers_sdc(features); break;
  }
  return predicted_cost_ns(features, sdc);
}

namespace {

/// One clock ladder: the guided engine's unit of dispatch and pruning.
struct GuidedChain {
  std::vector<std::size_t> order;  ///< config indices, loosest tclk first
  double cost = 0;                 ///< summed predicted ns (LPT dispatch)
  std::size_t anchor = 0;          ///< smallest config index (tie-break)
};

std::vector<GuidedChain> build_guided_chains(
    const FlowSession& session, const std::vector<ExploreConfig>& configs) {
  // std::map keeps grouping deterministic; final chain order is fixed by
  // the (cost, anchor) sort below regardless of container choice.
  std::map<std::string, std::size_t> by_key;
  std::vector<GuidedChain> chains;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto [it, inserted] =
        by_key.emplace(explore_chain_key(configs[i]), chains.size());
    if (inserted) chains.emplace_back();
    GuidedChain& chain = chains[it->second];
    chain.order.push_back(i);
    chain.cost += predicted_config_cost_ns(session, configs[i]);
  }
  for (GuidedChain& chain : chains) {
    chain.anchor = *std::min_element(chain.order.begin(), chain.order.end());
    // Loosest clock first (the cheapest end of the ladder and the
    // dominance witness's side); equal clocks keep config order.
    std::stable_sort(chain.order.begin(), chain.order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (configs[a].tclk_ps != configs[b].tclk_ps) {
                         return configs[a].tclk_ps > configs[b].tclk_ps;
                       }
                       return a < b;
                     });
  }
  // Longest-predicted-first across chains bounds the parallel makespan
  // (LPT); the anchor tie-break keeps the order deterministic when the
  // model prices two chains identically.
  std::sort(chains.begin(), chains.end(),
            [](const GuidedChain& a, const GuidedChain& b) {
              if (a.cost != b.cost) return a.cost > b.cost;
              return a.anchor < b.anchor;
            });
  return chains;
}

}  // namespace

std::vector<std::size_t> guided_order(
    const FlowSession& session, const std::vector<ExploreConfig>& configs) {
  std::vector<std::size_t> order;
  order.reserve(configs.size());
  for (const GuidedChain& chain : build_guided_chains(session, configs)) {
    order.insert(order.end(), chain.order.begin(), chain.order.end());
  }
  return order;
}

std::vector<ExplorePoint> explore(const FlowSession& session,
                                  const std::vector<ExploreConfig>& configs,
                                  const ExploreOptions& options) {
  std::vector<ExplorePoint> points(configs.size());
  if (configs.empty()) return points;

  // 0 = one worker per hardware thread; anything negative is clamped to
  // serial rather than silently fanning out.
  std::size_t threads = 1;
  if (options.threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  } else if (options.threads > 0) {
    threads = static_cast<std::size_t>(options.threads);
  }
  threads = std::min(threads, configs.size());

  std::mutex progress_mutex;
  std::size_t completed = 0;
  auto report = [&](const ExplorePoint& pt) {
    if (!options.progress) return;
    const std::lock_guard<std::mutex> lock(progress_mutex);
    options.progress(pt, ++completed, configs.size());
  };

  std::vector<std::exception_ptr> errors(configs.size());

  if (options.guided || options.prune) {
    // Model-guided engine: chains are the work units. All cross-thread
    // state is per-chain and chains never share slots, so every field of
    // every point is identical at any thread count; only dispatch overlap
    // (wall-clock) changes.
    const std::vector<GuidedChain> chains =
        build_guided_chains(session, configs);
    auto run_chain = [&](const GuidedChain& chain) {
      bool have_witness = false;
      double witness_tclk = 0;
      for (const std::size_t i : chain.order) {
        const ExploreConfig& cfg = configs[i];
        if (options.prune && have_witness && cfg.tclk_ps < witness_tclk) {
          // Dominated: provable infeasibility at a looser clock on this
          // chain proves this strictly tighter point infeasible too
          // (feasibility is monotone in tclk along a chain). Synthesize
          // the point without scheduling.
          ExplorePoint& pt = points[i];
          pt.curve = cfg.curve;
          pt.tclk_ps = cfg.tclk_ps;
          pt.latency = cfg.latency;
          pt.pipelined = cfg.pipeline_ii > 0 || cfg.solve_min_ii;
          pt.backend = sched::backend_name(cfg.backend);
          pt.failure = strf(kDominatedPrefix,
                            " provably infeasible at looser clock tclk_ps=",
                            witness_tclk);
          report(pt);
          continue;
        }
        try {
          points[i] = run_point(session, cfg);
          if (options.prune && !have_witness &&
              proves_infeasibility(points[i])) {
            have_witness = true;
            witness_tclk = cfg.tclk_ps;
          }
          report(points[i]);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    if (threads <= 1 || chains.size() <= 1) {
      for (const GuidedChain& chain : chains) run_chain(chain);
    } else {
      std::atomic<std::size_t> next{0};
      auto worker = [&] {
        for (std::size_t c = next.fetch_add(1); c < chains.size();
             c = next.fetch_add(1)) {
          run_chain(chains[c]);
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(std::min(threads, chains.size()));
      for (std::size_t t = 0; t < std::min(threads, chains.size()); ++t) {
        pool.emplace_back(worker);
      }
      for (std::thread& t : pool) t.join();
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    return points;
  }

  if (threads <= 1) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      points[i] = run_point(session, configs[i]);
      report(points[i]);
    }
    return points;
  }

  // Worker pool over an atomic work index. Each worker writes only its own
  // slot, so the result vector is ordered like `configs` no matter which
  // worker picks which configuration up.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < configs.size();
         i = next.fetch_add(1)) {
      try {
        points[i] = run_point(session, configs[i]);
        report(points[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  // Deterministic error propagation: the lowest-index failure wins, as it
  // would have in a serial run.
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return points;
}

std::vector<ExplorePoint> explore(
    const std::function<workloads::Workload()>& make_workload,
    const std::vector<ExploreConfig>& configs, const ExploreOptions& options) {
  const FlowSession session(make_workload());
  return explore(session, configs, options);
}

std::vector<ExploreConfig> idct_paper_grid() {
  // 5 micro-architectures x 5 clock periods = 25 runs (paper Section VI:
  // "We performed 25 HLS and logic synthesis runs").
  struct Arch {
    const char* name;
    int latency;
    int ii;  // 0 = sequential
  };
  const Arch archs[] = {
      {"Non-Pipelined 8", 8, 0},   {"Non-Pipelined 16", 16, 0},
      {"Non-Pipelined 32", 32, 0}, {"Pipelined 16", 16, 8},
      {"Pipelined 32", 32, 16},
  };
  const double clocks[] = {1300, 1450, 1600, 1850, 2200};
  std::vector<ExploreConfig> grid;
  for (const Arch& a : archs) {
    for (double t : clocks) {
      ExploreConfig cfg;
      cfg.curve = a.name;
      cfg.tclk_ps = t;
      cfg.latency = a.latency;
      cfg.pipeline_ii = a.ii;
      grid.push_back(cfg);
    }
  }
  return grid;
}

}  // namespace hls::core
