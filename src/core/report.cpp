#include "core/report.hpp"

#include <algorithm>

#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace hls::core {

std::string render_trace(const sched::SchedulerResult& r) {
  std::string out;
  for (const auto& pass : r.history) {
    out += strf("pass ", pass.pass_number, " @ ", pass.num_steps, " states: ",
                pass.success ? "success" : "failed", "\n");
    for (const auto& restraint : pass.restraints) {
      out += strf("  restraint: ", restraint, "\n");
    }
    if (!pass.action.empty()) out += strf("  action: ", pass.action, "\n");
  }
  return out;
}

std::string render_report(const FlowResult& r) {
  if (!r.success) {
    // Lead with the failing diagnostic's structured coordinates so a
    // pass-budget exhaustion or a cancellation is distinguishable from
    // ordinary infeasibility without parsing the free-form reason.
    for (auto it = r.diagnostics.rbegin(); it != r.diagnostics.rend(); ++it) {
      if (it->severity != Severity::kError) continue;
      return strf("flow FAILED [", it->stage, "/", it->code, "]: ",
                  r.failure_reason, "\n");
    }
    return strf("flow FAILED: ", r.failure_reason, "\n");
  }
  const ir::Module& m = *r.module;
  std::string out = strf("=== ", m.name, " ===\n");
  out += strf("latency interval LI = ", r.sched.schedule.num_steps,
              " states; ",
              r.sched.schedule.pipeline.enabled
                  ? strf("pipelined II = ", r.sched.schedule.pipeline.ii,
                         " (", r.machine.loop.folded.stages, " stages)",
                         r.sched.min_ii > 0 ? " (minimum II solve)" : "")
                  : std::string("sequential"),
              "\n");
  out += strf("worst slack: ", fmt_fixed(r.sched.schedule.worst_slack_ps, 0),
              " ps; backend: ", sched::backend_name(r.sched.backend),
              "; passes: ", r.sched.passes, "; timing queries: ",
              r.sched.timing_queries, "\n\n");
  out += "Schedule (Table 2 format):\n";
  out += r.sched.schedule.to_table(m.thread.dfg);
  out += "\nResources:\n";
  {
    TextTable t({"pool", "instances", "width", "area"});
    const auto& lib = tech::artisan90();
    for (const auto& p : r.sched.schedule.resources.pools) {
      t.row({p.name, strf(p.count), strf(p.width),
             fmt_fixed(p.count * lib.fu_area(p.cls, p.width), 0)});
    }
    out += t.to_string();
  }
  {
    // Memory pools get their own table: banks and per-bank ports are the
    // relaxable quantities (docs/MEMORY.md), and the restraint count shows
    // whether the expert had to relax them at all.
    bool any = false;
    for (const auto& p : r.sched.schedule.resources.pools) {
      any = any || p.is_memory;
    }
    if (any) {
      out += strf("\nMemory (", r.sched.memory_restraints,
                  " memory restraints):\n");
      TextTable t({"array", "banks", "ports/bank", "total ports"});
      for (const auto& p : r.sched.schedule.resources.pools) {
        if (!p.is_memory) continue;
        t.row({p.name, strf(p.banks), strf(p.ports_per_bank()),
               strf(p.count)});
      }
      out += t.to_string();
    }
  }
  out += strf("\nArea: fu=", fmt_fixed(r.area.functional_units, 0),
              " mux=", fmt_fixed(r.area.sharing_muxes, 0),
              " reg=", fmt_fixed(r.area.registers, 0),
              " ctrl=", fmt_fixed(r.area.control, 0),
              " recovery=", fmt_fixed(r.area.timing_recovery, 0),
              "  total=", fmt_fixed(r.area.total(), 0), "\n");
  out += strf("Power: dynamic=", fmt_fixed(r.power.dynamic_mw, 3),
              " mW leakage=", fmt_fixed(r.power.leakage_mw, 3),
              " mW  total=", fmt_fixed(r.power.total_mw(), 3), " mW\n");
  out += strf("Delay (II x Tclk): ", fmt_fixed(r.delay_ns, 2), " ns\n");
  return out;
}

std::string render_json(const FlowResult& r) {
  JsonWriter w;
  w.begin_object();
  w.key("success");
  w.value(r.success);
  w.key("backend");
  w.value(sched::backend_name(r.sched.backend));
  if (r.success) {
    w.key("module");
    w.value(r.module->name);
    w.key("li");
    w.value(r.sched.schedule.num_steps);
    w.key("pipelined");
    w.value(r.sched.schedule.pipeline.enabled);
    w.key("ii");
    w.value(r.machine.loop.initiation_interval());
    if (r.sched.min_ii > 0) {
      // Present only for min-II solves, so fixed-II artifacts are
      // byte-identical to what they were before the key existed.
      w.key("min_ii");
      w.value(r.sched.min_ii);
    }
    w.key("worst_slack_ps");
    w.value(r.sched.schedule.worst_slack_ps);
    w.key("passes");
    w.value(r.sched.passes);
    w.key("relaxations");
    w.value(r.sched.relaxations());
    // Per-pass constraint-system statistics (SDC passes only; the key is
    // absent for list-backend runs so their artifacts are unchanged).
    // Edge-count regressions — e.g. losing the star encoding back to
    // pairwise II windows — show up here directly instead of only as
    // wall-clock drift in the bench figures.
    if (std::any_of(r.sched.history.begin(), r.sched.history.end(),
                    [](const sched::PassRecord& p) {
                      return p.constraint_edges > 0;
                    })) {
      w.key("constraint_stats");
      w.begin_array();
      for (const auto& p : r.sched.history) {
        if (p.constraint_edges == 0) continue;
        w.begin_object();
        w.key("pass");
        w.value(p.pass_number);
        w.key("edges");
        w.value(p.constraint_edges);
        w.key("propagation_relaxations");
        w.value(p.propagation_relaxations);
        w.end_object();
      }
      w.end_array();
    }
    // Per-pass warm-start replay (warm passes only; the key is absent when
    // every pass ran cold): the replayed share of a pass is
    // replayed_events / events.
    if (std::any_of(r.sched.history.begin(), r.sched.history.end(),
                    [](const sched::PassRecord& p) {
                      return p.warm_frontier > 0;
                    })) {
      w.key("warm_starts");
      w.begin_array();
      for (const auto& p : r.sched.history) {
        if (p.warm_frontier == 0) continue;
        w.begin_object();
        w.key("pass");
        w.value(p.pass_number);
        w.key("frontier");
        w.value(p.warm_frontier);
        w.key("replayed_events");
        w.value(p.replayed_events);
        w.key("events");
        w.value(p.trace_events);
        w.end_object();
      }
      w.end_array();
    }
    w.key("timing_queries");
    w.value(r.sched.timing_queries);
    w.key("timings");
    w.begin_object();
    w.key("compile_s");
    w.value(r.timings.compile_seconds);
    w.key("microarch_s");
    w.value(r.timings.microarch_seconds);
    w.key("sched_s");
    w.value(r.timings.sched_seconds);
    w.key("rtl_s");
    w.value(r.timings.rtl_seconds);
    w.key("synth_s");
    w.value(r.timings.synth_seconds);
    w.end_object();
    w.key("area");
    w.begin_object();
    w.key("fu");
    w.value(r.area.functional_units);
    w.key("mux");
    w.value(r.area.sharing_muxes);
    w.key("reg");
    w.value(r.area.registers);
    w.key("control");
    w.value(r.area.control);
    w.key("recovery");
    w.value(r.area.timing_recovery);
    w.key("total");
    w.value(r.area.total());
    w.end_object();
    w.key("power_mw");
    w.value(r.power.total_mw());
    w.key("delay_ns");
    w.value(r.delay_ns);
    w.key("resources");
    w.begin_array();
    for (const auto& p : r.sched.schedule.resources.pools) {
      w.begin_object();
      w.key("name");
      w.value(p.name);
      w.key("count");
      w.value(p.count);
      w.end_object();
    }
    w.end_array();
    w.key("memory");
    w.begin_object();
    w.key("restraints");
    w.value(r.sched.memory_restraints);
    w.key("arrays");
    w.begin_array();
    for (const auto& p : r.sched.schedule.resources.pools) {
      if (!p.is_memory) continue;
      w.begin_object();
      w.key("name");
      w.value(p.name);
      w.key("banks");
      w.value(p.banks);
      w.key("ports_per_bank");
      w.value(p.ports_per_bank());
      w.key("total_ports");
      w.value(p.count);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  } else {
    w.key("reason");
    w.value(r.failure_reason);
    // The code that stopped the run (the last error diagnostic), so JSON
    // consumers can branch on budget_exhausted/cancelled without walking
    // the diagnostics array.
    for (auto it = r.diagnostics.rbegin(); it != r.diagnostics.rend(); ++it) {
      if (it->severity != Severity::kError) continue;
      w.key("reason_code");
      w.value(strf(it->stage, "/", it->code));
      break;
    }
    w.key("diagnostics");
    w.begin_array();
    for (const Diagnostic& d : r.diagnostics) {
      w.begin_object();
      w.key("stage");
      w.value(d.stage);
      w.key("code");
      w.value(d.code);
      w.key("message");
      w.value(d.message);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return w.str();
}

}  // namespace hls::core
