#include "sched/backend.hpp"

#include "core/cost_model.hpp"
#include "sched/pass_scheduler.hpp"
#include "sched/sdc_scheduler.hpp"

namespace hls::sched {

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kList: return "list";
    case BackendKind::kSdc: return "sdc";
    case BackendKind::kAuto: return "auto";
  }
  return "?";
}

namespace {

/// The paper's timing-driven list scheduling pass: one `run_pass`
/// (pass_scheduler.cpp) per attempt over the shared dependence graph,
/// with warm-start replay.
class ListScheduler final : public SchedulerBackend {
 public:
  ListScheduler(const Problem& problem, const SchedulerOptions& options)
      : SchedulerBackend(problem, options),
        dg_(build_dependence_graph(problem)) {}

  BackendKind kind() const override { return BackendKind::kList; }
  bool warm_startable() const override { return true; }

  PassOutcome run_pass(timing::TimingEngine& eng,
                       const WarmStart* warm) override {
    return sched::run_pass(problem_, dg_, eng, warm);
  }

 private:
  /// Pass-invariant (the dependence rules only read static Problem
  /// structure), so it is built once per schedule_region, not per pass.
  DependenceGraph dg_;
};

}  // namespace

BackendKind resolve_backend(const Problem& problem,
                            const SchedulerOptions& options) {
  if (options.backend != BackendKind::kAuto) return options.backend;
  // Fitted-model rule (core/cost_model.hpp, coefficients regenerated by
  // bench/fit_cost_model.py from the committed bench baselines). The
  // list backend is cheapest per pass on feed-forward problems at every
  // measured size and pass counts are identical across backends (shared
  // expert ladder), so sequential and recurrence-free problems always
  // take list. On pipelined recurrences the SDC backend's II windows
  // move whole SCC bodies per action and — per the recurrence A/B — its
  // per-pass overhead shrinks with size instead of growing, so the model
  // compares predicted per-pass costs against the fitted affordability
  // bound. Deterministic: a pure function of (problem shape, warm_start).
  core::CostFeatures features;
  features.ops = problem.ops.size();
  features.pipelined = problem.pipeline.enabled;
  features.recurrences = problem.sccs.size();
  features.warm_start = options.warm_start;
  return core::model_prefers_sdc(features) ? BackendKind::kSdc
                                           : BackendKind::kList;
}

std::unique_ptr<SchedulerBackend> make_backend(const Problem& problem,
                                               const SchedulerOptions& options) {
  switch (resolve_backend(problem, options)) {
    case BackendKind::kSdc:
      return std::make_unique<SdcScheduler>(problem, options);
    case BackendKind::kList:
    case BackendKind::kAuto:  // unreachable: resolve_backend never returns it
      break;
  }
  return std::make_unique<ListScheduler>(problem, options);
}

}  // namespace hls::sched
