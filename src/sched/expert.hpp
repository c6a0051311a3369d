// The expert system that relaxes constraints between scheduling passes
// (paper Section IV): "Each restraint suggests a set of actions ... Every
// action has an estimated cost, which is combined with the number of
// restraints solved by this action and the restraint weight. The action
// with the best estimated gain wins."
//
// Actions: add a state (where the latency bound permits), add a resource
// instance, forbid a binding (combinational cycles), move a whole SCC to a
// later pipeline window (Section V's novel relaxation), or — as a last
// resort — accept negative slack and let downstream logic synthesis
// recover it with area (the mechanism ablated in Table 4).
#pragma once

#include <string>

#include "sched/pass_scheduler.hpp"

namespace hls::sched {

enum class ActionKind : std::uint8_t {
  kAddState,
  kAddResource,
  kForbidBinding,
  kMoveScc,
  kAcceptSlack,
  // Memory constraint family (mem::MemorySpec; see docs/MEMORY.md):
  kAddMemPort,   ///< +amount RW ports per bank (≤ max_ports_per_bank)
  kRebank,       ///< double the array's banks (≤ max_banks), re-place ops
  kWidenWindow,  ///< raise a port's window max step (≤ max_step_limit)
};

const char* action_kind_name(ActionKind k);

struct Action {
  ActionKind kind = ActionKind::kAddState;
  int pool = -1;         ///< kAddResource / kAddMemPort / kRebank
  int amount = 1;        ///< kAddResource: instances to add (can unshare)
  ir::OpId op = ir::kNoOp;  ///< kForbidBinding
  int instance = -1;     ///< kForbidBinding
  int scc = -1;          ///< kMoveScc
  int window_start = -1; ///< kMoveScc: new first step of the window;
                         ///< kWidenWindow: new max step of the port window
  int port = -1;         ///< kWidenWindow: the windowed module port
  double gain = 0;
  double cost = 1;

  double score() const { return gain / cost; }
  std::string to_string(const Problem& p) const;
};

struct ExpertOptions {
  ir::LatencyBound latency{1, 64};
  /// The Section V relaxation; disabled for the Table 4 ablation.
  bool enable_move_scc = true;
  /// Whether accepting negative slack is permitted at all.
  bool allow_accept_slack = true;
};

struct ExpertDecision {
  bool has_action = false;
  Action action;
  std::string narration;  ///< human-readable reasoning trace
};

/// Analyses the failed pass and picks the best relaxation.
ExpertDecision choose_action(const Problem& p, const PassOutcome& outcome,
                             const ExpertOptions& opts,
                             timing::TimingEngine& eng);

/// Mutates the problem according to the action (adds the state/resource,
/// records the forbid, moves the window, or sets accept_negative_slack).
void apply_action(Problem& p, const Action& a);

/// Warm-start invalidation frontier for the next pass: the earliest step
/// at which `a` (already applied to `p`) could change any decision of the
/// pass recorded in `trace`. Decisions at strictly earlier steps replay
/// verbatim. 0 means the whole pass must be re-solved (AcceptSlack
/// changes every timing verdict, and nothing replays once negative slack
/// is accepted).
///
/// The rules are conservative:
///  * AddState replays only when the re-swept spans kept every priority
///    rank and release() and moved no deadline() earlier
///    (Problem::span_shift; otherwise 0). It then invalidates from the
///    first fatal event, from the old state count minus one minus the
///    largest pool latency, or from the first saturated SDC bound
///    (PassTrace::first_saturation_step), whichever is earliest;
///  * AddResource invalidates from the first failed binding attempt on
///    the grown pool (earlier attempts committed on a first-fit instance
///    the growth cannot displace), or everything when the pool flips from
///    shared to unshared (every bind of the pool retimes);
///  * ForbidBinding invalidates from the first decision involving the op;
///  * MoveScc invalidates from the first decision involving any member,
///    capped by each member's new start deadline (a shrunken deadline can
///    trigger a missed-deadline sweep that did not exist before);
///  * the memory actions (AddMemPort, Rebank, WidenWindow) always give 0.
int warm_start_frontier(const Problem& p, const Action& a,
                        const PassTrace& trace);

}  // namespace hls::sched
