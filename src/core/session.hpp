// The staged, reusable flow API.
//
// A FlowSession does the front-end work exactly once — build, validate,
// optimize, predicate (paper Figure 2's "optimizer" box) — producing an
// immutable compiled module. Every `run(FlowOptions)` then clones only the
// mutable state and executes micro-architecture selection → scheduling →
// RTL → synthesis. Because the compiled module is never written after
// construction, concurrent `run` calls on one session are safe; this is
// what the parallel design-space exploration engine (explore.hpp) builds
// on.
//
//   core::FlowSession session(workloads::make_idct8());
//   core::FlowOptions pipe;  pipe.pipeline_ii = 8;
//   auto r1 = session.run(pipe);     // full flow
//
//   core::FlowRun run = session.begin(pipe);   // or stage by stage:
//   run.select_microarch() && run.schedule() &&
//       run.generate_rtl() && run.estimate();
//   auto r2 = run.take();
#pragma once

#include "core/flow.hpp"

namespace hls::core {

struct SessionOptions {
  /// Run the standard optimizer pipeline at compile time (paper Section
  /// II). Mirrors FlowOptions::run_optimizer for the one-shot facade.
  bool run_optimizer = true;
  /// Structurally validate the compiled IR; problems become "compile"
  /// diagnostics and every subsequent run fails cleanly.
  bool validate_ir = true;
};

class FlowSession;

/// One in-flight flow execution over a session's compiled module. Stages
/// must be invoked in order (select_microarch → schedule → generate_rtl →
/// estimate); each returns false once the run has failed, so the chain
/// short-circuits. Construction takes over a copy of the compiled module
/// (the only state the back-end stages mutate) and nothing else; the
/// single-use facade moves the module in instead of copying.
class FlowRun {
 public:
  /// Applies the pipelining directive and latency-bound overrides to the
  /// cloned module and prepares the scheduling problem. Fails on
  /// malformed options (validate_flow_options), compile diagnostics, or a
  /// selected loop whose body holds a nested loop ("nested-loop").
  bool select_microarch();
  /// Iterative simultaneous scheduling and binding (paper Section IV).
  bool schedule();
  /// Folds the schedule into the FSM+datapath machine and, when
  /// requested, emits Verilog.
  bool generate_rtl();
  /// Area / power / delay estimates; marks the run successful.
  bool estimate();

  /// Runs every remaining stage in order.
  bool run_all();

  const FlowResult& result() const { return result_; }
  /// Moves the accumulated result out; the run is finished afterwards.
  FlowResult take();

 private:
  friend class FlowSession;
  FlowRun(FlowOptions options, std::unique_ptr<ir::Module> module,
          ir::StmtId loop, double compile_seconds,
          const std::vector<Diagnostic>& session_diags,
          mem::MemorySpec memory);

  void fail(std::string stage, std::string code, std::string message);

  enum class Stage : std::uint8_t {
    kMicroarch,
    kSchedule,
    kRtl,
    kEstimate,
    kDone,
    kFailed,
  };

  FlowOptions options_;
  FlowResult result_;
  Stage next_ = Stage::kMicroarch;
  /// The workload's memory constraints; sopts_.memory points here (the
  /// run owns a copy so the && facade can expire the session).
  mem::MemorySpec memory_;

  // Prepared by select_microarch for schedule().
  sched::SchedulerOptions sopts_;
  ir::LatencyBound latency_;
  ir::LinearRegion region_;
};

class FlowSession {
 public:
  /// Compiles the workload: structural validation first, then (when the
  /// IR is sound) the optimizer to fixpoint and branch predication
  /// (straighten). Construction never throws on malformed input;
  /// problems land in diagnostics() and runs fail cleanly.
  explicit FlowSession(workloads::Workload workload,
                       const SessionOptions& options = {});

  const std::string& name() const { return name_; }
  /// The immutable compiled module. Never mutated after construction.
  const ir::Module& module() const { return compiled_; }
  ir::StmtId loop() const { return loop_; }
  /// The workload's memory constraints (empty for most designs).
  const mem::MemorySpec& memory() const { return memory_; }

  /// Stable 64-bit hash of the compiled module (post-optimizer IR dump
  /// plus the schedulable loop id; the workload *name* is deliberately
  /// excluded so renamed but structurally identical designs collide).
  /// This is the serve layer's session-cache key: two submissions with
  /// equal hashes schedule identically under equal options, so the second
  /// can skip the front end entirely. Computed once at construction.
  std::uint64_t module_hash() const { return module_hash_; }

  /// True when compilation produced no error diagnostics.
  bool ok() const;
  /// Compile-time diagnostics (stage "compile").
  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  /// Wall-clock seconds spent compiling (optimize + predicate + validate).
  double compile_seconds() const { return compile_seconds_; }

  /// Starts a staged run against a clone of the compiled module.
  /// Thread-safe: `this` is only read.
  FlowRun begin(FlowOptions options) const&;
  /// Single-use fast path on an expiring session: the compiled module is
  /// moved into the run instead of cloned (what run_flow uses).
  FlowRun begin(FlowOptions options) &&;
  /// Convenience: begin() + run_all() + take().
  FlowResult run(const FlowOptions& options) const&;
  FlowResult run(const FlowOptions& options) &&;

 private:
  friend class FlowRun;

  std::string name_;
  ir::Module compiled_;
  ir::StmtId loop_ = ir::kNoStmt;
  mem::MemorySpec memory_;
  std::uint64_t module_hash_ = 0;
  std::vector<Diagnostic> diags_;
  double compile_seconds_ = 0;
};

}  // namespace hls::core
