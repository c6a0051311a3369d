// Serve determinism stress suite: the serve output stream must be a pure
// function of the submitted job SET and the server options — independent
// of submission order, worker thread count, and thread timing — with the
// caches cold, warm, and under mid-run eviction pressure.
//
// "Byte-identical" here is literal: the full concatenated line stream,
// including pass counts and seed_use fields, is compared as one string.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace hls::serve {
namespace {

// A mixed job set: repeated designs (session-cache and per-module
// exclusion pressure), overlapping tclk ladders (trace-cache replays), a
// pipelined grid, and one job that fails to compile.
std::vector<JobRequest> job_set() {
  std::vector<JobRequest> jobs;
  auto grid = [](std::initializer_list<double> tclks, int latency, int ii) {
    std::vector<core::ExploreConfig> points;
    for (double tclk : tclks) {
      core::ExploreConfig cfg;
      cfg.curve = (ii > 0 ? "ii" + std::to_string(ii)
                          : "sequential-" + std::to_string(latency));
      cfg.tclk_ps = tclk;
      cfg.latency = latency;
      cfg.pipeline_ii = ii;
      points.push_back(cfg);
    }
    return points;
  };
  auto job = [&](std::int64_t id, const std::string& workload,
                 std::vector<core::ExploreConfig> points) {
    JobRequest j;
    j.id = id;
    j.workload = workload;
    j.points = std::move(points);
    jobs.push_back(std::move(j));
  };
  job(0, "arf", grid({1700, 1900, 2100}, 10, 0));
  job(1, "crc32", grid({1500, 1800}, 12, 0));
  job(2, "arf", grid({1700, 2100}, 10, 0));     // same module as job 0
  job(3, "conv3x3", grid({1600, 1900}, 9, 0));
  job(4, "arf", grid({1800, 2000}, 10, 4));     // pipelined grid
  job(5, "does-not-exist", grid({1600}, 10, 0));  // compile error path
  job(6, "fft8_stage", grid({1700, 1900}, 10, 0));
  // A work-unit budget that trips after the first pass: the exhaustion
  // point is itself part of the determinism contract (docs/FAULTS.md) —
  // the same [schedule/budget_exhausted] line at every thread count.
  {
    std::vector<core::ExploreConfig> points = grid({1600}, 16, 0);
    points.front().budget.max_commits = 50;
    job(7, "ewf", std::move(points));
  }
  return jobs;
}

std::string run_stream(const ServerOptions& options, unsigned shuffle_seed,
                       int drains = 1) {
  std::vector<JobRequest> jobs = job_set();
  if (shuffle_seed != 0) {
    std::mt19937 rng(shuffle_seed);
    std::shuffle(jobs.begin(), jobs.end(), rng);
  }
  Server server(options);
  std::string out;
  for (int d = 0; d < drains; ++d) {
    for (const JobRequest& job : jobs) {
      EXPECT_TRUE(server.submit(job)) << "job " << job.id;
    }
    server.drain([&](const std::string& line) {
      out += line;
      out += '\n';
    });
  }
  return out;
}

TEST(ServeDeterminism, ThreadCountDoesNotChangeTheStream) {
  ServerOptions serial;
  serial.threads = 1;
  serial.emit_stats = true;
  const std::string reference = run_stream(serial, 0);
  ASSERT_FALSE(reference.empty());
  for (int threads : {2, 4, 0 /* hardware_concurrency */}) {
    ServerOptions concurrent = serial;
    concurrent.threads = threads;
    EXPECT_EQ(reference, run_stream(concurrent, 0)) << "threads=" << threads;
  }
}

TEST(ServeDeterminism, ArrivalOrderDoesNotChangeTheStream) {
  ServerOptions options;
  options.threads = 4;
  options.emit_stats = true;
  const std::string reference = run_stream(options, 0);
  for (unsigned seed : {1u, 2u, 3u, 4u, 5u}) {
    EXPECT_EQ(reference, run_stream(options, seed)) << "shuffle seed " << seed;
  }
}

TEST(ServeDeterminism, HoldsAcrossBatchAndInflightSettings) {
  // Batch size and in-flight cap legitimately change the stream (they
  // change interleaving and cache timing) — but for EACH setting, serial
  // and concurrent must still agree.
  for (int batch : {1, 3, 0 /* whole job */}) {
    for (int inflight : {1, 2, 8}) {
      ServerOptions serial;
      serial.threads = 1;
      serial.micro_batch = batch;
      serial.max_inflight = inflight;
      ServerOptions concurrent = serial;
      concurrent.threads = 4;
      EXPECT_EQ(run_stream(serial, 0), run_stream(concurrent, 3))
          << "batch=" << batch << " inflight=" << inflight;
    }
  }
}

TEST(ServeDeterminism, HoldsUnderCacheEvictionPressure) {
  // Tiny caches force session eviction and trace-cache FIFO eviction
  // mid-run; determinism must survive both.
  ServerOptions serial;
  serial.threads = 1;
  serial.max_sessions = 1;
  serial.max_trace_entries = 2;
  serial.emit_stats = true;
  const std::string reference = run_stream(serial, 0);
  ServerOptions concurrent = serial;
  concurrent.threads = 4;
  EXPECT_EQ(reference, run_stream(concurrent, 2));
}

TEST(ServeDeterminism, WarmCachesStayDeterministic) {
  // Drain the same job set twice on one server: the second drain runs
  // against warm caches (exact-config replays). Serial and concurrent
  // servers must produce identical two-drain streams.
  ServerOptions serial;
  serial.threads = 1;
  serial.emit_stats = true;
  const std::string reference = run_stream(serial, 0, /*drains=*/2);
  ServerOptions concurrent = serial;
  concurrent.threads = 4;
  EXPECT_EQ(reference, run_stream(concurrent, 4, /*drains=*/2));
  // And the warm half genuinely replayed: the second drain's points all
  // carry seed_use "replay" except failures, and the per-job done lines
  // tally them.
  EXPECT_NE(reference.find("\"seed_use\":\"replay\""), std::string::npos);
  EXPECT_NE(reference.find("\"seed_replays\":"), std::string::npos);
  bool replay_tallied = false;
  for (std::size_t at = reference.find("\"seed_replays\":");
       at != std::string::npos;
       at = reference.find("\"seed_replays\":", at + 1)) {
    if (reference[at + std::string("\"seed_replays\":").size()] != '0') {
      replay_tallied = true;
    }
  }
  EXPECT_TRUE(replay_tallied);
}

TEST(ServeDeterminism, TraceCacheChangesPassCountsNotResults) {
  // Strip the fields a seed is allowed to change (passes, relaxations,
  // seed_use, and the per-job seed tallies on the done line) and the
  // stats line; what remains must be identical with the trace cache on
  // and off.
  auto strip = [](std::string text) {
    std::string out;
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      std::string line = text.substr(start, end - start);
      start = end + 1;
      if (line.find("\"stats\"") != std::string::npos) continue;
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
  ServerOptions on;
  on.threads = 2;
  on.micro_batch = 1;  // maximize exact-replay opportunities
  ServerOptions off = on;
  off.trace_cache = false;
  EXPECT_EQ(strip(run_stream(on, 0)), strip(run_stream(off, 0)));
}

// An inline source whose outermost loop holds a nested loop (the paper's
// Figure 1 shape): every point fails with a structured [stage/code]
// diagnostic, never an internal error.
TEST(ServeStream, NestedLoopSourceFailsWithStructuredDiagnostic) {
  JobRequest job;
  job.id = 0;
  job.source = R"(
module nested {
  in a: i32;
  out y: i32;
  thread {
    forever {
      var acc: i32 = 0;
      wait;
      do {
        var d: i32 = a * a;
        acc = acc + d;
        wait;
        y = acc;
      } while (d != 0) latency(1, 3);
    }
  }
}
)";
  for (double tclk : {1600.0, 1900.0}) {
    core::ExploreConfig cfg;
    cfg.tclk_ps = tclk;
    cfg.latency = 4;
    job.points.push_back(cfg);
  }
  Server server;
  std::string error;
  ASSERT_TRUE(server.submit(job, &error)) << error;
  int failed_points = 0;
  server.drain([&](const std::string& line) {
    if (line.find("\"point\":") == std::string::npos) return;
    ++failed_points;
    EXPECT_NE(line.find("\"failure\":\"[microarch/nested-loop]"),
              std::string::npos)
        << line;
    EXPECT_EQ(line.find("internal"), std::string::npos) << line;
  });
  EXPECT_EQ(failed_points, 2);
}

TEST(ServeDeterminism, RejectsDuplicateAndMalformedJobs) {
  Server server;
  JobRequest ok;
  ok.id = 1;
  ok.workload = "arf";
  core::ExploreConfig cfg;
  cfg.tclk_ps = 1800;
  cfg.latency = 10;
  ok.points.push_back(cfg);
  std::string error;
  EXPECT_TRUE(server.submit(ok, &error));
  EXPECT_FALSE(server.submit(ok, &error));  // duplicate id
  EXPECT_NE(error.find("duplicate"), std::string::npos);
  JobRequest negative = ok;
  negative.id = -1;
  EXPECT_FALSE(server.submit(negative, &error));
  JobRequest no_points = ok;
  no_points.id = 2;
  no_points.points.clear();
  EXPECT_FALSE(server.submit(no_points, &error));
  JobRequest no_workload = ok;
  no_workload.id = 3;
  no_workload.workload.clear();
  EXPECT_FALSE(server.submit(no_workload, &error));
}

}  // namespace
}  // namespace hls::serve
