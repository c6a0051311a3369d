#include "core/session.hpp"

#include <chrono>
#include <utility>

#include "ir/print.hpp"
#include "ir/validate.hpp"
#include "opt/pass.hpp"
#include "pipeline/straighten.hpp"
#include "support/strings.hpp"
#include "tech/library.hpp"

namespace hls::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// FNV-1a over the canonical module dump. The dump is deterministic (op
/// and statement ids are assigned in construction order), so structurally
/// identical workloads — regardless of their display name — hash equal.
std::uint64_t fnv1a(std::string_view text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::vector<Diagnostic> validate_flow_options(const FlowOptions& options) {
  std::vector<Diagnostic> diags;
  auto bad = [&](std::string code, std::string message) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.message = std::move(message);
    d.stage = "options";
    d.code = std::move(code);
    diags.push_back(std::move(d));
  };
  if (!(options.tclk_ps > 0)) {
    bad("non-positive-tclk",
        strf("tclk_ps must be positive, got ", options.tclk_ps));
  }
  if (options.pipeline_ii < 0) {
    bad("negative-ii", strf("pipeline_ii must be >= 0 (0 = sequential), got ",
                            options.pipeline_ii));
  }
  if (options.latency_min < 0) {
    bad("negative-latency",
        strf("latency_min must be >= 0 (0 keeps the designer's bound), got ",
             options.latency_min));
  }
  if (options.latency_max < 0) {
    bad("negative-latency",
        strf("latency_max must be >= 0 (0 keeps the designer's bound), got ",
             options.latency_max));
  }
  if (options.latency_min > 0 && options.latency_max > 0 &&
      options.latency_min > options.latency_max) {
    bad("inverted-latency-bound",
        strf("latency_min (", options.latency_min, ") exceeds latency_max (",
             options.latency_max, ")"));
  }
  if (options.budget.max_passes < 0 || options.budget.max_commits < 0 ||
      options.budget.max_relax_steps < 0 ||
      options.budget.deadline_seconds < 0) {
    bad("negative-budget",
        "budget limits must be >= 0 (0 = unlimited); see support/budget.hpp");
  }
  return diags;
}

// ---- FlowSession ----------------------------------------------------------

FlowSession::FlowSession(workloads::Workload workload,
                         const SessionOptions& options)
    : name_(workload.name.empty() ? workload.module.name : workload.name),
      compiled_(std::move(workload.module)),
      loop_(workload.loop),
      memory_(std::move(workload.memory)) {
  const auto t0 = std::chrono::steady_clock::now();

  // Validation runs BEFORE any transformation: the optimizer and the
  // predication pass index the DFG by ids a malformed module may have out
  // of range, and the constructor's contract is a clean "compile"
  // diagnostic, never a crash or a throw.
  auto compile_error = [&](std::string code, std::string message) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.message = std::move(message);
    d.stage = "compile";
    d.code = std::move(code);
    diags_.push_back(std::move(d));
  };
  if (loop_ == ir::kNoStmt || loop_ >= compiled_.thread.tree.size()) {
    compile_error("no-loop", "workload names no schedulable loop statement");
  } else if (options.validate_ir) {
    DiagEngine engine;
    if (!ir::validate(compiled_, engine)) {
      for (Diagnostic d : engine.diagnostics()) {
        d.stage = "compile";
        if (d.code.empty()) d.code = "invalid-ir";
        diags_.push_back(std::move(d));
      }
    }
  }

  if (ok()) {
    if (options.run_optimizer) {
      auto pm = opt::PassManager::standard_pipeline();
      pm.run_to_fixpoint(compiled_);
    }
    // Branch predication is required before scheduling (and is what makes
    // loop bodies straight lines for pipelining).
    pipeline::straighten(compiled_);
    // Hash the post-front-end IR with the display name normalized away, so
    // the serve layer's session cache collides renamed-but-identical
    // designs. The dump is taken AFTER optimize + predicate: equal hashes
    // mean equal scheduling inputs, which is the cache's contract.
    ir::Module canonical = compiled_;
    // Not `= "m"`: gcc 12 at -O3 reports a false -Wrestrict overlap on
    // that assignment.
    canonical.name.assign(1, 'm');
    module_hash_ =
        fnv1a(ir::print_module(canonical),
              fnv1a("loop", 0xcbf29ce484222325ULL) ^ (loop_ * 0x9e3779b97f4a7c15ULL));
    // Memory constraints change scheduling, so they must key the serve
    // cache too. Folded in only when present, keeping every memory-free
    // design's hash (and cached entries) unchanged.
    if (!memory_.empty()) {
      module_hash_ = fnv1a(memory_.canonical_dump(), module_hash_);
    }
  }
  compile_seconds_ = seconds_since(t0);
}

bool FlowSession::ok() const {
  for (const Diagnostic& d : diags_) {
    if (d.severity == Severity::kError) return false;
  }
  return true;
}

FlowRun FlowSession::begin(FlowOptions options) const& {
  // Clone the only state the back-end stages mutate; the session's
  // compiled module stays untouched, which is what makes concurrent runs
  // over one session safe.
  return FlowRun(std::move(options), std::make_unique<ir::Module>(compiled_),
                 loop_, compile_seconds_, diags_, memory_);
}

FlowRun FlowSession::begin(FlowOptions options) && {
  // The session is expiring: hand its module over instead of cloning.
  return FlowRun(std::move(options),
                 std::make_unique<ir::Module>(std::move(compiled_)), loop_,
                 compile_seconds_, diags_, std::move(memory_));
}

FlowResult FlowSession::run(const FlowOptions& options) const& {
  FlowRun run = begin(options);
  run.run_all();
  return run.take();
}

FlowResult FlowSession::run(const FlowOptions& options) && {
  FlowRun run = std::move(*this).begin(options);
  run.run_all();
  return run.take();
}

// ---- FlowRun --------------------------------------------------------------

FlowRun::FlowRun(FlowOptions options, std::unique_ptr<ir::Module> module,
                 ir::StmtId loop, double compile_seconds,
                 const std::vector<Diagnostic>& session_diags,
                 mem::MemorySpec memory)
    : options_(std::move(options)), memory_(std::move(memory)) {
  result_.module = std::move(module);
  result_.loop = loop;
  result_.timings.compile_seconds = compile_seconds;
  for (const Diagnostic& d : session_diags) {
    result_.diagnostics.push_back(d);
    if (d.severity == Severity::kError && next_ != Stage::kFailed) {
      result_.failure_reason = d.to_string();
      next_ = Stage::kFailed;
    }
  }
}

void FlowRun::fail(std::string stage, std::string code, std::string message) {
  result_.failure_reason = message;
  Diagnostic d;
  d.severity = Severity::kError;
  d.message = std::move(message);
  d.stage = std::move(stage);
  d.code = std::move(code);
  result_.diagnostics.push_back(std::move(d));
  next_ = Stage::kFailed;
}

bool FlowRun::select_microarch() {
  if (next_ != Stage::kMicroarch) return false;
  const auto t0 = std::chrono::steady_clock::now();

  auto option_diags = validate_flow_options(options_);
  if (!option_diags.empty()) {
    result_.failure_reason = option_diags.front().to_string();
    for (auto& d : option_diags) result_.diagnostics.push_back(std::move(d));
    next_ = Stage::kFailed;
    return false;
  }

  ir::Module& m = *result_.module;
  // The scheduler takes one straight-line loop body (ir::linearize); a
  // nested loop inside the selected one is a user error, not an internal
  // one.
  for (const ir::StmtId inner : m.thread.tree.loops_in(result_.loop)) {
    if (inner == result_.loop) continue;
    fail("microarch", "nested-loop",
         strf("selected loop holds nested loop statement ", inner,
              "; unroll or schedule it separately"));
    return false;
  }
  ir::Stmt& loop_stmt = m.thread.tree.stmt_mut(result_.loop);
  latency_ = loop_stmt.latency;
  if (options_.latency_min > 0) latency_.min = options_.latency_min;
  if (options_.latency_max > 0) latency_.max = options_.latency_max;
  // A latency_min override above the designer's maximum leaves an empty
  // bound. Pipelined runs are exempt: the driver raises the maximum to
  // the feasible minimum there (paper Section V lets LI grow).
  if (latency_.min > latency_.max && options_.pipeline_ii <= 0 &&
      !options_.solve_min_ii) {
    fail("microarch", "inverted-latency-bound",
         strf("effective latency bound [", latency_.min, ",", latency_.max,
              "] is empty: latency_min exceeds the loop's maximum latency"));
    return false;
  }

  sopts_ = sched::SchedulerOptions{};
  sopts_.tclk_ps = options_.tclk_ps;
  sopts_.lib = options_.lib != nullptr ? options_.lib : &tech::artisan90();
  sopts_.backend = options_.backend;
  if (options_.pipeline_ii > 0 || options_.solve_min_ii) {
    // Min-II solving implies a pipelined micro-architecture; an explicit
    // pipeline_ii then floors the search (0 floors it at II=1). The
    // solved II is written back into the loop stmt after scheduling.
    const int floor_ii = std::max(1, options_.pipeline_ii);
    sopts_.pipeline = {true, floor_ii};
    sopts_.solve_min_ii = options_.solve_min_ii;
    loop_stmt.pipeline = {true, floor_ii};
  }
  sopts_.enable_chaining = options_.enable_chaining;
  sopts_.enable_move_scc = options_.enable_move_scc;
  sopts_.avoid_comb_cycles = options_.avoid_comb_cycles;
  sopts_.use_mutual_exclusivity = options_.use_mutual_exclusivity;
  sopts_.allow_accept_slack = options_.allow_accept_slack;
  sopts_.warm_start = options_.warm_start;
  // sopts_ points at the run's own copy (not the session's) so the &&
  // facade — which expires the session before schedule() runs — is safe.
  if (options_.memory_aware && !memory_.empty()) sopts_.memory = &memory_;
  sopts_.seed = options_.seed;
  sopts_.record_seed = options_.record_seed;
  sopts_.budget = options_.budget;
  sopts_.stop = options_.stop;

  region_ = ir::linearize(m.thread.tree, result_.loop);
  result_.timings.microarch_seconds = seconds_since(t0);
  next_ = Stage::kSchedule;
  return true;
}

bool FlowRun::schedule() {
  if (next_ != Stage::kSchedule) return false;
  const ir::Module& m = *result_.module;
  const auto t0 = std::chrono::steady_clock::now();
  result_.sched = sched::schedule_region(m.thread.dfg, region_, latency_,
                                         m.ports.size(), sopts_);
  result_.timings.sched_seconds = seconds_since(t0);
  if (!result_.sched.success) {
    // Budget exhaustion and cancellation carry their own codes; ordinary
    // infeasibility (empty failure_code) keeps the long-standing one.
    fail("schedule",
         result_.sched.failure_code.empty() ? "infeasible"
                                            : result_.sched.failure_code,
         strf("scheduling failed: ", result_.sched.failure_reason));
    return false;
  }
  if (options_.solve_min_ii && result_.sched.min_ii > 0) {
    // Sync the IR with the solved II so every downstream consumer of the
    // loop stmt (not only the schedule's own pipeline config, which the
    // scheduler already set) sees the micro-architecture that was built.
    result_.module->thread.tree.stmt_mut(result_.loop).pipeline = {
        true, result_.sched.schedule.pipeline.ii};
  }
  next_ = Stage::kRtl;
  return true;
}

bool FlowRun::generate_rtl() {
  if (next_ != Stage::kRtl) return false;
  const auto t0 = std::chrono::steady_clock::now();
  result_.machine =
      rtl::build_machine(*result_.module, result_.loop, result_.sched.schedule);
  if (options_.emit_verilog) {
    result_.verilog = rtl::emit_verilog(result_.machine);
  }
  result_.timings.rtl_seconds = seconds_since(t0);
  next_ = Stage::kEstimate;
  return true;
}

bool FlowRun::estimate() {
  if (next_ != Stage::kEstimate) return false;
  const auto t0 = std::chrono::steady_clock::now();
  const tech::Library& lib = *sopts_.lib;
  result_.area = synth::apply_recovery(
      synth::estimate_area(result_.machine, lib),
      result_.sched.schedule.worst_slack_ps, options_.tclk_ps);
  result_.power = synth::estimate_power(result_.machine, lib, options_.tclk_ps,
                                        result_.area);
  result_.delay_ns =
      result_.machine.loop.initiation_interval() * options_.tclk_ps / 1000.0;
  result_.timings.synth_seconds = seconds_since(t0);
  result_.success = true;
  next_ = Stage::kDone;
  return true;
}

bool FlowRun::run_all() {
  select_microarch();
  schedule();
  generate_rtl();
  estimate();
  return result_.success;
}

FlowResult FlowRun::take() {
  next_ = Stage::kFailed;  // any further stage call is a no-op
  return std::move(result_);
}

}  // namespace hls::core
