// Robustness suite (docs/FAULTS.md): deterministic work-unit budgets,
// cooperative cancellation, and the fault-injection sites across the
// scheduler and the serve layer. The recurring assertion shape is
// twofold: every forced fault surfaces a STRUCTURED diagnostic and a
// BOUNDED recovery (the stream stays ordered and parseable, the rest of
// the work completes), and every failure point is byte-identical at every
// thread count.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <functional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/report.hpp"
#include "serve/io.hpp"
#include "serve/server.hpp"
#include "support/budget.hpp"
#include "support/fault.hpp"
#include "workloads/workloads.hpp"

namespace hls {
namespace {

// ---- FaultInjector ---------------------------------------------------------

TEST(FaultInjector, CountedArmFiresExactOccurrences) {
  support::FaultInjector fi;
  fi.arm("site", /*count=*/2, /*skip=*/1);
  EXPECT_FALSE(fi.should_fail("site"));  // occurrence 1: skipped
  EXPECT_TRUE(fi.should_fail("site"));   // 2
  EXPECT_TRUE(fi.should_fail("site"));   // 3
  EXPECT_FALSE(fi.should_fail("site"));  // 4: budget spent
  EXPECT_EQ(fi.calls("site"), 4u);
  EXPECT_EQ(fi.fired("site"), 2u);
  // Unarmed sites never fire but still count.
  EXPECT_FALSE(fi.should_fail("other"));
  EXPECT_EQ(fi.calls("other"), 1u);
  EXPECT_EQ(fi.total_fired(), 2u);
  fi.disarm("site");
  EXPECT_FALSE(fi.should_fail("site"));
  fi.reset();
  EXPECT_EQ(fi.calls("site"), 0u);
  EXPECT_EQ(fi.total_fired(), 0u);
}

TEST(FaultInjector, SeededRandomIsReproducible) {
  auto pattern = [](std::uint64_t seed) {
    support::FaultInjector fi;
    fi.arm_random("site", 0.5, seed);
    std::string bits;
    for (int i = 0; i < 64; ++i) bits += fi.should_fail("site") ? '1' : '0';
    return bits;
  };
  const std::string a = pattern(42);
  EXPECT_EQ(a, pattern(42));              // same seed → same fault sequence
  EXPECT_NE(a, pattern(43));              // different seed → different draw
  EXPECT_NE(a.find('1'), std::string::npos);  // p=0.5 over 64 trials fires
  EXPECT_NE(a.find('0'), std::string::npos);
}

// ---- Budget ----------------------------------------------------------------

TEST(Budget, VerdictPrecedenceAndCodes) {
  using support::BudgetVerdict;
  support::BudgetLimits limits;
  EXPECT_TRUE(limits.unlimited());
  limits.max_commits = 5;
  limits.max_relax_steps = 5;
  EXPECT_FALSE(limits.unlimited());
  support::StopSource stop;
  support::Budget b(limits, &stop);
  EXPECT_EQ(b.check(), BudgetVerdict::kOk);
  b.charge_relax_steps(5);
  EXPECT_EQ(b.check(), BudgetVerdict::kRelaxExhausted);
  // Commits outrank relaxation steps; cancellation outranks both.
  b.charge_commits(5);
  EXPECT_EQ(b.check(), BudgetVerdict::kCommitsExhausted);
  stop.request_stop();
  EXPECT_EQ(b.check(), BudgetVerdict::kCancelled);

  EXPECT_STREQ(support::budget_verdict_code(BudgetVerdict::kOk), "");
  EXPECT_STREQ(support::budget_verdict_code(BudgetVerdict::kCancelled),
               "cancelled");
  EXPECT_STREQ(support::budget_verdict_code(BudgetVerdict::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(support::budget_verdict_code(BudgetVerdict::kCommitsExhausted),
               "budget_exhausted");
  EXPECT_STREQ(support::budget_verdict_code(BudgetVerdict::kRelaxExhausted),
               "budget_exhausted");
  // Work-unit messages are deterministic: unit, spend, limit — no clock.
  const std::string msg = b.describe(BudgetVerdict::kCommitsExhausted);
  EXPECT_NE(msg.find("5 engine commits >= limit 5"), std::string::npos);
}

// ewf at 1600 ps / latency 16 needs ~29 relaxation passes cold — plenty of
// pass boundaries for budgets and cancellation to land on.
core::FlowOptions tight_flow_options() {
  core::FlowOptions opts;
  opts.tclk_ps = 1600;
  opts.latency_min = 16;
  opts.latency_max = 16;
  return opts;
}

TEST(SchedBudget, CommitBudgetExhaustsWithStructuredCode) {
  core::FlowOptions opts = tight_flow_options();
  opts.budget.max_commits = 50;
  const core::FlowResult first = core::run_flow(workloads::make_ewf(), opts);
  ASSERT_FALSE(first.success);
  EXPECT_NE(first.failure_reason.find("work-unit budget exhausted"),
            std::string::npos);
  EXPECT_NE(core::render_report(first).find("[schedule/budget_exhausted]"),
            std::string::npos);
  EXPECT_NE(core::render_json(first).find(
                "\"reason_code\":\"schedule/budget_exhausted\""),
            std::string::npos);
  // Work units are a pure function of the problem: re-running produces the
  // byte-identical failure, spend included.
  const core::FlowResult second = core::run_flow(workloads::make_ewf(), opts);
  EXPECT_EQ(first.failure_reason, second.failure_reason);
}

TEST(SchedBudget, PassBudgetExhaustionHasDedicatedCode) {
  core::FlowOptions opts = tight_flow_options();
  opts.budget.max_passes = 1;
  const core::FlowResult r = core::run_flow(workloads::make_ewf(), opts);
  ASSERT_FALSE(r.success);
  EXPECT_NE(r.failure_reason.find("pass budget (1) exhausted"),
            std::string::npos);
  EXPECT_NE(
      core::render_report(r).find("[schedule/pass_budget_exhausted]"),
      std::string::npos);
  EXPECT_NE(core::render_json(r).find(
                "\"reason_code\":\"schedule/pass_budget_exhausted\""),
            std::string::npos);
}

TEST(SchedBudget, NegativeBudgetIsRejectedAtValidation) {
  core::FlowOptions opts = tight_flow_options();
  opts.budget.max_commits = -1;
  const core::FlowResult r = core::run_flow(workloads::make_ewf(), opts);
  ASSERT_FALSE(r.success);
  EXPECT_NE(core::render_report(r).find("[options/negative-budget]"),
            std::string::npos);
}

TEST(SchedBudget, StopSourceCancelsAtPassBoundary) {
  core::FlowSession session(workloads::make_ewf());
  ASSERT_TRUE(session.ok());
  core::ExploreConfig cfg;
  cfg.curve = "seq";
  cfg.tclk_ps = 1600;
  cfg.latency = 16;
  support::StopSource stop;
  stop.request_stop();  // already stopped: the first pass boundary trips
  core::RunPointExtras extras;
  extras.stop = &stop;
  const core::ExplorePoint pt = core::run_point(session, cfg, &extras);
  EXPECT_FALSE(pt.feasible);
  EXPECT_TRUE(pt.cancelled);
  EXPECT_EQ(pt.failure.rfind("[schedule/cancelled]", 0), 0u) << pt.failure;
  // Without the stop request the identical config solves.
  const core::ExplorePoint clean = core::run_point(session, cfg);
  EXPECT_TRUE(clean.feasible);
  EXPECT_FALSE(clean.cancelled);
}

// ---- Serve-layer robustness -----------------------------------------------

std::vector<serve::JobRequest> small_job_set() {
  std::vector<serve::JobRequest> jobs;
  auto job = [&](std::int64_t id, const std::string& workload,
                 std::initializer_list<double> tclks, int latency) {
    serve::JobRequest j;
    j.id = id;
    j.workload = workload;
    for (double tclk : tclks) {
      core::ExploreConfig cfg;
      cfg.curve = "seq-" + std::to_string(latency);
      cfg.tclk_ps = tclk;
      cfg.latency = latency;
      j.points.push_back(cfg);
    }
    jobs.push_back(std::move(j));
  };
  job(0, "arf", {1700, 1900, 2100}, 10);
  job(1, "crc32", {1500, 1800}, 12);
  job(2, "arf", {1700, 2100}, 10);  // same module as job 0
  return jobs;
}

std::string drain_stream(
    const serve::ServerOptions& options,
    const std::vector<serve::JobRequest>& jobs,
    const std::function<void(serve::Server&)>& before_drain = {},
    serve::ServeStats* stats_out = nullptr) {
  serve::Server server(options);
  for (const serve::JobRequest& job : jobs) {
    EXPECT_TRUE(server.submit(job)) << "job " << job.id;
  }
  if (before_drain) before_drain(server);
  std::string out;
  server.drain([&](const std::string& line) {
    out += line;
    out += '\n';
  });
  if (stats_out != nullptr) *stats_out = server.stats();
  return out;
}

// Every line of a serve stream must be a complete JSON object even when
// the drain is cut short — "ordered and parseable to the last byte".
void expect_parseable(const std::string& stream) {
  std::size_t start = 0;
  while (start < stream.size()) {
    std::size_t end = stream.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "unterminated line";
    const std::string line = stream.substr(start, end - start);
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    start = end + 1;
  }
}

TEST(ServeFault, TightBudgetPointIsIdenticalAtEveryThreadCount) {
  std::vector<serve::JobRequest> jobs = small_job_set();
  serve::JobRequest budgeted;
  budgeted.id = 3;
  budgeted.workload = "ewf";
  core::ExploreConfig cfg;
  cfg.curve = "seq-16";
  cfg.tclk_ps = 1600;
  cfg.latency = 16;
  cfg.budget.max_commits = 50;  // trips after the first pass
  budgeted.points.push_back(cfg);
  jobs.push_back(budgeted);

  serve::ServerOptions serial;
  serial.threads = 1;
  const std::string reference = drain_stream(serial, jobs);
  EXPECT_NE(reference.find("[schedule/budget_exhausted]"), std::string::npos);
  for (int threads : {2, 4}) {
    serve::ServerOptions concurrent = serial;
    concurrent.threads = threads;
    EXPECT_EQ(reference, drain_stream(concurrent, jobs))
        << "threads=" << threads;
  }
}

TEST(ServeFault, TransientCompileFaultRetriesAndMatchesCleanRun) {
  serve::ServerOptions options;
  options.threads = 2;
  // Single job: one bounded retry later the stream is byte-identical to a
  // run where the fault never happened.
  const std::vector<serve::JobRequest> one = {small_job_set().front()};
  const std::string clean = drain_stream(options, one);
  support::FaultInjector faults;
  faults.arm("session/compile", /*count=*/1);
  serve::ServerOptions faulty = options;
  faulty.faults = &faults;
  serve::ServeStats stats;
  const std::string recovered = drain_stream(faulty, one, {}, &stats);
  EXPECT_EQ(clean, recovered);
  EXPECT_EQ(stats.compile_retries, 1u);
  EXPECT_EQ(stats.faults_injected, 1u);

  // Multi-job set: the retried job legitimately lands a round later, so
  // jobs may interleave differently — but the CONTENT (every point and
  // done line) is unchanged, line for line.
  auto sorted_lines = [](const std::string& text) {
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      lines.push_back(text.substr(start, end - start));
      start = end + 1;
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  const std::vector<serve::JobRequest> jobs = small_job_set();
  const std::string clean_set = drain_stream(options, jobs);
  support::FaultInjector set_faults;
  set_faults.arm("session/compile", /*count=*/1);
  serve::ServerOptions faulty_set = options;
  faulty_set.faults = &set_faults;
  EXPECT_EQ(sorted_lines(clean_set),
            sorted_lines(drain_stream(faulty_set, jobs)));
}

TEST(ServeFault, CompileRetriesExhaustedSurfacesStructuredError) {
  const std::vector<serve::JobRequest> jobs = small_job_set();
  support::FaultInjector faults;
  faults.arm("session/compile", /*count=*/1000);  // never stops failing
  serve::ServerOptions options;
  options.threads = 2;
  options.max_compile_retries = 2;
  options.faults = &faults;
  serve::ServeStats stats;
  const std::string out = drain_stream(options, jobs, {}, &stats);
  expect_parseable(out);
  // Every admission hits the fault: each job retries its bounded budget,
  // then fails loudly — and the drain terminates (no infinite requeue).
  for (const serve::JobRequest& job : jobs) {
    EXPECT_NE(
        out.find("{\"job\":" + std::to_string(job.id) +
                 ",\"error\":\"[serve/retries_exhausted] transient compile "
                 "fault persisted after 3 attempts\"}"),
        std::string::npos)
        << out;
  }
  EXPECT_EQ(out.find("\"feasible\""), std::string::npos);
  EXPECT_EQ(stats.compile_retries, 2u * jobs.size());
}

TEST(ServeFault, TraceInsertFaultNeverCorruptsSeedReplay) {
  // Strip the fields a seed legitimately changes; everything else must
  // survive every dropped insert.
  auto strip = [](std::string text) {
    std::string out;
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      std::string line = text.substr(start, end - start);
      start = end + 1;
      for (const char* field :
           {"\"passes\":", "\"relaxations\":", "\"seed_replays\":",
            "\"seed_misses\":"}) {
        const std::size_t at = line.find(field);
        if (at == std::string::npos) continue;
        std::size_t stop = line.find(',', at);
        if (stop == std::string::npos) stop = line.find('}', at);
        line.erase(at, stop - at + 1);
      }
      const std::size_t seed_at = line.find(",\"seed_use\":");
      if (seed_at != std::string::npos) {
        const std::size_t stop = line.find('}', seed_at);
        line.erase(seed_at, stop - seed_at);
      }
      out += line;
      out += '\n';
    }
    return out;
  };
  auto two_drains = [&](support::FaultInjector* faults) {
    serve::ServerOptions options;
    options.threads = 2;
    options.faults = faults;
    serve::Server server(options);
    std::string out;
    for (int d = 0; d < 2; ++d) {
      for (const serve::JobRequest& job : small_job_set()) {
        EXPECT_TRUE(server.submit(job));
      }
      server.drain([&](const std::string& line) {
        out += line;
        out += '\n';
      });
    }
    return out;
  };
  const std::string clean = two_drains(nullptr);
  support::FaultInjector faults;
  faults.arm("trace/insert", /*count=*/1000);  // drop every seed commit
  const std::string faulty = two_drains(&faults);
  // With every insert dropped the warm drain solves cold — no replays —
  // but the RESULTS are identical: a missing seed can cost passes, never
  // correctness.
  EXPECT_EQ(strip(clean), strip(faulty));
  EXPECT_EQ(faulty.find("\"seed_use\":\"replay\""), std::string::npos);
  EXPECT_NE(clean.find("\"seed_use\":\"replay\""), std::string::npos);
}

TEST(ServeFault, SessionEvictionRacingCompileFaultStaysDeterministic) {
  // A forced eviction between rounds plus a transient compile fault on the
  // next admission: the nastiest interleaving the caches support. The
  // stream must still be byte-identical at every thread count, and every
  // job must account for itself (done or error line).
  auto run = [](int threads) {
    support::FaultInjector faults;
    faults.arm("session/evict", /*count=*/2);
    faults.arm("session/compile", /*count=*/1, /*skip=*/1);
    serve::ServerOptions options;
    options.threads = threads;
    options.micro_batch = 1;  // several rounds → evictions land mid-job
    options.faults = &faults;
    return drain_stream(options, small_job_set());
  };
  const std::string reference = run(1);
  expect_parseable(reference);
  for (const serve::JobRequest& job : small_job_set()) {
    const std::string id = std::to_string(job.id);
    const bool accounted =
        reference.find("{\"job\":" + id + ",\"done\":true") !=
            std::string::npos ||
        reference.find("{\"job\":" + id + ",\"error\":") != std::string::npos;
    EXPECT_TRUE(accounted) << "job " << id << "\n" << reference;
  }
  EXPECT_EQ(reference, run(4));
}

TEST(ServeFault, WorkerDispatchFaultFailsExactlyThatPoint) {
  auto run = [](int threads, serve::ServeStats* stats) {
    support::FaultInjector faults;
    faults.arm("worker/dispatch", /*count=*/1, /*skip=*/2);  // third point
    serve::ServerOptions options;
    options.threads = threads;
    options.faults = &faults;
    return drain_stream(options, small_job_set(), {}, stats);
  };
  serve::ServeStats stats;
  const std::string reference = run(1, &stats);
  EXPECT_EQ(stats.faults_injected, 1u);
  // Exactly one synthesized failure; every other point ran normally.
  std::size_t failures = 0;
  for (std::size_t at = reference.find("[serve/fault_injected]");
       at != std::string::npos;
       at = reference.find("[serve/fault_injected]", at + 1)) {
    ++failures;
  }
  EXPECT_EQ(failures, 1u);
  EXPECT_NE(reference.find("\"feasible\":true"), std::string::npos);
  serve::ServeStats threaded_stats;
  EXPECT_EQ(reference, run(4, &threaded_stats));
}

TEST(ServeFault, CancelEmitsOrderedPlaceholdersAndSummary) {
  auto run = [](int threads, serve::ServeStats* stats) {
    serve::ServerOptions options;
    options.threads = threads;
    return drain_stream(options, small_job_set(),
                        [](serve::Server& server) { server.cancel(0); },
                        stats);
  };
  serve::ServeStats stats;
  const std::string reference = run(1, &stats);
  expect_parseable(reference);
  // Job 0's three points appear as ordered cancelled placeholders...
  for (int point = 0; point < 3; ++point) {
    EXPECT_NE(reference.find("{\"job\":0,\"point\":" + std::to_string(point)),
              std::string::npos);
  }
  EXPECT_NE(reference.find("[serve/cancelled]"), std::string::npos);
  EXPECT_NE(reference.find("\"cancelled\":true"), std::string::npos);
  // ...its done summary tallies them, and the other jobs ran untouched.
  EXPECT_NE(reference.find("{\"job\":0,\"done\":true,\"points\":3,"
                           "\"failures\":0,\"cancelled\":3"),
            std::string::npos)
      << reference;
  EXPECT_NE(reference.find("{\"job\":1,\"done\":true"), std::string::npos);
  EXPECT_EQ(stats.jobs_cancelled, 1u);
  EXPECT_EQ(stats.points_cancelled, 3u);
  serve::ServeStats threaded_stats;
  EXPECT_EQ(reference, run(4, &threaded_stats));
}

TEST(ServeFault, InjectedStopDrainsGracefullyMidRun) {
  auto run = [](int threads) {
    support::FaultInjector faults;
    faults.arm("drain/stop", /*count=*/1, /*skip=*/1);  // stop at round 2
    serve::ServerOptions options;
    options.threads = threads;
    options.micro_batch = 1;
    options.max_inflight = 1;  // job 1+ still queued when the stop lands
    options.faults = &faults;
    return drain_stream(options, small_job_set());
  };
  const std::string reference = run(1);
  expect_parseable(reference);
  // Round 1 really ran (a point solved), then the stop cancelled the rest
  // IN ORDER: the in-flight job finishes with placeholders + summary, the
  // never-started jobs get structured error lines.
  EXPECT_NE(reference.find("\"feasible\":true"), std::string::npos);
  EXPECT_NE(reference.find("[serve/cancelled] drain stopped"),
            std::string::npos);
  EXPECT_NE(reference.find("{\"job\":0,\"done\":true"), std::string::npos);
  EXPECT_NE(
      reference.find("\"error\":\"[job/cancelled] drain stopped before job "
                     "started\""),
      std::string::npos);
  EXPECT_EQ(reference, run(4));
}

TEST(ServeFault, StopSourceDrainsGracefullyBeforeAnyRound) {
  support::StopSource stop;
  stop.request_stop();
  serve::ServerOptions options;
  options.threads = 2;
  options.stop = &stop;
  serve::ServeStats stats;
  const std::string out = drain_stream(options, small_job_set(), {}, &stats);
  expect_parseable(out);
  // Nothing ran; every job got its cancellation line, so a SIGTERM'd
  // server still leaves a complete, attributable stream.
  EXPECT_EQ(out.find("\"feasible\":true"), std::string::npos);
  EXPECT_EQ(stats.jobs_cancelled, small_job_set().size());
}

TEST(ServeFault, ShedsBeyondQueueDepthWithStructuredError) {
  serve::ServerOptions options;
  options.max_queue_depth = 2;
  serve::Server server(options);
  std::string error;
  const std::vector<serve::JobRequest> jobs = small_job_set();
  EXPECT_TRUE(server.submit(jobs[0], &error));
  EXPECT_TRUE(server.submit(jobs[1], &error));
  EXPECT_FALSE(server.submit(jobs[2], &error));
  EXPECT_EQ(error,
            "[job/shed] queue depth 2 exceeded; job 2 rejected");
  EXPECT_EQ(server.stats().jobs_shed, 1u);
  // The counter reaches the --stats line hls_serve emits.
  EXPECT_NE(server.stats().to_json().find("\"jobs_shed\":1"),
            std::string::npos);
}

TEST(ServeFault, MidDrainSocketErrorLeavesDeliveredOutputOrdered) {
  // The serving front end keeps draining when the client hangs up; what
  // the client DID receive must be an exact ordered prefix of the full
  // stream. Model the sink the way hls_serve builds it: write_all over a
  // socketpair with an injected EPIPE partway through.
  std::signal(SIGPIPE, SIG_IGN);
  const std::vector<serve::JobRequest> jobs = small_job_set();
  serve::ServerOptions options;
  options.threads = 2;
  const std::string full = drain_stream(options, jobs);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  support::FaultInjector faults;
  faults.arm("socket/epipe", /*count=*/1, /*skip=*/3);  // die on line 4
  serve::IoOptions io;
  io.faults = &faults;
  serve::Server server(options);
  for (const serve::JobRequest& job : jobs) ASSERT_TRUE(server.submit(job));
  bool peer_gone = false;
  server.drain([&](const std::string& line) {
    if (peer_gone) return;
    int err = 0;
    if (!serve::write_all(fds[0], line + "\n", io, &err)) {
      peer_gone = true;
      EXPECT_EQ(err, EPIPE);
    }
  });
  ::close(fds[0]);
  std::string received;
  char buf[4096];
  for (ssize_t n = ::read(fds[1], buf, sizeof buf); n > 0;
       n = ::read(fds[1], buf, sizeof buf)) {
    received.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[1]);
  EXPECT_TRUE(peer_gone);
  ASSERT_FALSE(received.empty());
  EXPECT_LT(received.size(), full.size());
  EXPECT_EQ(received, full.substr(0, received.size()));  // ordered prefix
  expect_parseable(received);
}

// ---- Socket I/O helpers ----------------------------------------------------

TEST(ServeIo, ReadRequestRetriesEintrAndCapsRequestSize) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "{\"id\":0}";
  ASSERT_EQ(::write(fds[0], payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  ::shutdown(fds[0], SHUT_WR);
  support::FaultInjector faults;
  faults.arm("socket/read", /*count=*/3);  // three simulated EINTRs first
  serve::IoOptions io;
  io.faults = &faults;
  std::string text;
  EXPECT_EQ(serve::read_request(fds[1], &text, io), serve::ReadStatus::kOk);
  EXPECT_EQ(text, payload);
  EXPECT_EQ(faults.fired("socket/read"), 3u);

  // Oversized: the cap rejects without reading the stream to completion.
  int big[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, big), 0);
  const std::string chunk(1024, 'x');
  ASSERT_EQ(::write(big[0], chunk.data(), chunk.size()),
            static_cast<ssize_t>(chunk.size()));
  serve::IoOptions capped;
  capped.max_request_bytes = 16;
  EXPECT_EQ(serve::read_request(big[1], &text, capped),
            serve::ReadStatus::kOversized);
  ::close(big[0]);
  ::close(big[1]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeIo, WriteAllLoopsPartialWritesAndSurfacesEpipe) {
  std::signal(SIGPIPE, SIG_IGN);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  support::FaultInjector faults;
  faults.arm("socket/write", /*count=*/4);  // first 4 writes: 1 byte each
  serve::IoOptions io;
  io.faults = &faults;
  const std::string payload = "twelve bytes";
  EXPECT_TRUE(serve::write_all(fds[0], payload, io));
  EXPECT_EQ(faults.fired("socket/write"), 4u);
  char buf[64] = {};
  ASSERT_EQ(::read(fds[1], buf, sizeof buf),
            static_cast<ssize_t>(payload.size()));
  EXPECT_EQ(std::string(buf, payload.size()), payload);

  // Injected EPIPE.
  int err = 0;
  support::FaultInjector epipe;
  epipe.arm("socket/epipe");
  serve::IoOptions io_epipe;
  io_epipe.faults = &epipe;
  EXPECT_FALSE(serve::write_all(fds[0], payload, io_epipe, &err));
  EXPECT_EQ(err, EPIPE);

  // Real EPIPE: peer closed. SIGPIPE is ignored, so this is an errno, not
  // process death — exactly how hls_serve survives a vanished client.
  ::close(fds[1]);
  err = 0;
  bool ok = true;
  // The first write after close may succeed into the dead socket's buffer;
  // keep writing until the error surfaces.
  for (int i = 0; i < 64 && ok; ++i) {
    ok = serve::write_all(fds[0], payload, {}, &err);
  }
  EXPECT_FALSE(ok);
  EXPECT_EQ(err, EPIPE);
  ::close(fds[0]);
}

}  // namespace
}  // namespace hls
