// Cross-run seeding golden suite: an exact-configuration seed replays
// the donor's result byte-for-byte in one pass for every
// workloads::suite() kernel, and a seed from any other configuration —
// another clock period, backend or pipelining shape — is ignored: the run
// reports a miss and reproduces the cold result and pass count.
//
// This is the contract that lets the serve layer's trace cache change
// pass counts without ever changing results (docs/SCHEDULER.md,
// "Cross-run seeding").
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/session.hpp"
#include "workloads/workloads.hpp"

namespace hls::core {
namespace {

// Everything the scheduler decided, rendered to text. Pass counts and
// seed bookkeeping are deliberately excluded — they are exactly what an
// exact replay is ALLOWED to change.
std::string result_fingerprint(const FlowResult& r) {
  if (!r.success) return "FAILED: " + r.failure_reason;
  std::string out = r.sched.schedule.to_table(r.module->thread.dfg);
  out += "num_steps=" + std::to_string(r.sched.schedule.num_steps);
  return out;
}

// A seed recorded at a neighboring clock period is not applied: for every
// suite kernel, across a small tclk x latency x II grid, on both backends,
// the run reports a miss and reproduces the cold run exactly (result,
// pass count and every pass's restraints).
TEST(SeedGolden, NeighborSeededEqualsColdAcrossSuiteGridBothBackends) {
  const std::vector<double> tclks = {1600, 1900, 2200};
  struct Shape {
    int latency;
    int ii;
  };
  const std::vector<Shape> shapes = {{12, 0}, {16, 0}, {16, 8}};

  for (const auto& w : workloads::suite()) {
    const FlowSession session(w);
    ASSERT_TRUE(session.ok()) << w.name;
    for (auto backend : {sched::BackendKind::kList, sched::BackendKind::kSdc}) {
      for (const Shape& shape : shapes) {
        std::vector<FlowOptions> opts;
        std::vector<FlowResult> cold;
        for (double tclk : tclks) {
          FlowOptions o;
          o.tclk_ps = tclk;
          o.backend = backend;
          o.pipeline_ii = shape.ii;
          o.latency_min = shape.latency;
          o.latency_max = shape.latency;
          o.emit_verilog = false;
          o.record_seed = true;
          cold.push_back(session.run(o));
          o.record_seed = false;
          opts.push_back(o);
        }
        // Offer each grid point the seed of each adjacent clock period.
        for (std::size_t i = 0; i < tclks.size(); ++i) {
          for (const std::size_t donor : {i - 1, i + 1}) {
            if (donor >= tclks.size()) continue;
            if (!cold[donor].success) continue;  // no seed was recorded
            FlowOptions o = opts[i];
            o.seed = &cold[donor].sched.seed_out;
            const FlowResult seeded = session.run(o);
            const std::string label =
                w.name + " backend=" +
                std::string(backend == sched::BackendKind::kList ? "list"
                                                                 : "sdc") +
                " latency=" + std::to_string(shape.latency) +
                " ii=" + std::to_string(shape.ii) +
                " tclk=" + std::to_string(tclks[i]) +
                " donor=" + std::to_string(tclks[donor]);
            EXPECT_EQ(result_fingerprint(cold[i]), result_fingerprint(seeded))
                << label;
            EXPECT_EQ(seeded.sched.seed_use, sched::SeedUse::kMiss) << label;
            EXPECT_EQ(seeded.sched.passes, cold[i].sched.passes) << label;
            ASSERT_EQ(seeded.sched.history.size(),
                      cold[i].sched.history.size())
                << label;
            for (std::size_t p = 0; p < cold[i].sched.history.size(); ++p) {
              EXPECT_EQ(seeded.sched.history[p].success,
                        cold[i].sched.history[p].success)
                  << label << " pass=" << p;
              EXPECT_EQ(seeded.sched.history[p].restraints,
                        cold[i].sched.history[p].restraints)
                  << label << " pass=" << p;
            }
          }
        }
      }
    }
  }
}

TEST(SeedGolden, ExactConfigReplayIsByteIdenticalAndOnePass) {
  for (const auto& w : workloads::suite()) {
    const FlowSession session(w);
    ASSERT_TRUE(session.ok()) << w.name;
    FlowOptions o;
    o.tclk_ps = 1900;
    o.latency_min = 16;
    o.latency_max = 16;
    o.emit_verilog = false;
    o.record_seed = true;
    const FlowResult cold = session.run(o);
    if (!cold.success) continue;
    FlowOptions replay = o;
    replay.record_seed = false;
    replay.seed = &cold.sched.seed_out;
    const FlowResult seeded = session.run(replay);
    EXPECT_EQ(result_fingerprint(cold), result_fingerprint(seeded)) << w.name;
    EXPECT_EQ(seeded.sched.seed_use, sched::SeedUse::kReplay) << w.name;
    EXPECT_EQ(seeded.sched.passes, 1) << w.name;
  }
}

TEST(SeedGolden, IncompatibleSeedIsIgnoredNotApplied) {
  const auto w = workloads::make_ewf();
  const FlowSession session(w);
  ASSERT_TRUE(session.ok());
  FlowOptions o;
  o.tclk_ps = 1900;
  o.latency_min = 14;
  o.latency_max = 14;
  o.emit_verilog = false;
  o.record_seed = true;
  const FlowResult cold = session.run(o);
  ASSERT_TRUE(cold.success);

  // Neighboring clock period, wrong backend, wrong pipelining shape: the
  // driver must treat each as a miss and reproduce the cold run, pass
  // count included (a neighbor's recipe cannot skip passes soundly).
  for (auto mutate : {+[](sched::ScheduleSeed& s) { s.tclk_ps = 1600; },
                      +[](sched::ScheduleSeed& s) {
                        s.backend = sched::BackendKind::kSdc;
                      },
                      +[](sched::ScheduleSeed& s) {
                        s.pipelined = true;
                        s.ii = 4;
                      }}) {
    sched::ScheduleSeed bad = cold.sched.seed_out;
    mutate(bad);
    FlowOptions seeded_opts = o;
    seeded_opts.record_seed = false;
    seeded_opts.seed = &bad;
    const FlowResult seeded = session.run(seeded_opts);
    EXPECT_EQ(result_fingerprint(cold), result_fingerprint(seeded));
    EXPECT_EQ(seeded.sched.passes, cold.sched.passes);
    EXPECT_EQ(seeded.sched.seed_use, sched::SeedUse::kMiss);
  }
}

}  // namespace
}  // namespace hls::core
