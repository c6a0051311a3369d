// Tests for the serve layer's capacity machinery (serve/admission.hpp,
// serve/cache.hpp):
//  * CapacityScheduler admits deterministically, in id order, under
//    varying in-flight caps, with per-module exclusion and non-blocking
//    skip of busy modules;
//  * set_capacity evicts the highest-id in-flight jobs and requeues them;
//  * micro_batches covers the boundary sizes (0, 1, cap, cap+1, no cap);
//  * LruEvictionPolicy evicts the least-recently-used unpinned key and
//    never an in-flight (pinned) one;
//  * SessionCache deduplicates by spec key and by module hash, never
//    caches failed compiles, never evicts pinned sessions;
//  * TraceCache matches every key field exactly (clock period included)
//    and evicts FIFO.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "serve/server.hpp"
#include "workloads/workloads.hpp"

namespace hls::serve {
namespace {

// ---- micro_batches ---------------------------------------------------------

std::vector<std::size_t> sizes(const std::vector<MicroBatch>& batches) {
  std::vector<std::size_t> out;
  for (const MicroBatch& b : batches) out.push_back(b.size());
  return out;
}

TEST(MicroBatches, BoundarySizes) {
  EXPECT_TRUE(micro_batches(0, 4).empty());
  EXPECT_EQ(sizes(micro_batches(1, 4)), (std::vector<std::size_t>{1}));
  EXPECT_EQ(sizes(micro_batches(4, 4)), (std::vector<std::size_t>{4}));
  EXPECT_EQ(sizes(micro_batches(5, 4)), (std::vector<std::size_t>{4, 1}));
  EXPECT_EQ(sizes(micro_batches(9, 3)),
            (std::vector<std::size_t>{3, 3, 3}));
}

TEST(MicroBatches, ContiguousAndOrdered) {
  const auto batches = micro_batches(10, 3);
  ASSERT_EQ(batches.size(), 4u);
  std::size_t expect_begin = 0;
  for (const MicroBatch& b : batches) {
    EXPECT_EQ(b.begin, expect_begin);
    EXPECT_LT(b.begin, b.end);
    expect_begin = b.end;
  }
  EXPECT_EQ(batches.back().end, 10u);
}

TEST(MicroBatches, NoCapMeansOneBatch) {
  EXPECT_EQ(sizes(micro_batches(7, 0)), (std::vector<std::size_t>{7}));
  EXPECT_EQ(sizes(micro_batches(7, -1)), (std::vector<std::size_t>{7}));
}

// ---- CapacityScheduler -----------------------------------------------------

TEST(CapacityScheduler, AdmitsInIdOrderUnderCap) {
  CapacityScheduler sched(2);
  // Enqueue out of id order; admission must not care.
  sched.enqueue(3, 0xc);
  sched.enqueue(1, 0xa);
  sched.enqueue(2, 0xb);
  EXPECT_EQ(sched.admit(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_TRUE(sched.admit().empty());  // at capacity
  sched.finish(1);
  EXPECT_EQ(sched.admit(), (std::vector<std::int64_t>{3}));
  sched.finish(2);
  sched.finish(3);
  EXPECT_TRUE(sched.idle());
}

TEST(CapacityScheduler, CapacityOneIsStrictlySerial) {
  CapacityScheduler sched(1);
  for (std::int64_t id : {5, 4, 6}) sched.enqueue(id, 0x1000 + id);
  std::vector<std::int64_t> order;
  while (!sched.idle()) {
    const auto admitted = sched.admit();
    ASSERT_EQ(admitted.size(), 1u);
    order.push_back(admitted[0]);
    sched.finish(admitted[0]);
  }
  EXPECT_EQ(order, (std::vector<std::int64_t>{4, 5, 6}));
}

TEST(CapacityScheduler, NonPositiveCapBehavesAsOne) {
  CapacityScheduler sched(0);
  sched.enqueue(1, 0xa);
  sched.enqueue(2, 0xb);
  EXPECT_EQ(sched.capacity(), 1);
  EXPECT_EQ(sched.admit(), (std::vector<std::int64_t>{1}));
}

TEST(CapacityScheduler, BusyModuleSkipsWithoutBlocking) {
  CapacityScheduler sched(3);
  sched.enqueue(1, 0xa);
  sched.enqueue(2, 0xa);  // same module as 1: must wait for it
  sched.enqueue(3, 0xb);  // different module: must NOT wait behind 2
  EXPECT_EQ(sched.admit(), (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(sched.pending_count(), 1u);
  sched.finish(1);
  EXPECT_EQ(sched.admit(), (std::vector<std::int64_t>{2}));
}

TEST(CapacityScheduler, RaisingCapacityAdmitsMore) {
  CapacityScheduler sched(1);
  for (std::int64_t id : {1, 2, 3}) sched.enqueue(id, 0x100 + id);
  EXPECT_EQ(sched.admit(), (std::vector<std::int64_t>{1}));
  EXPECT_TRUE(sched.set_capacity(3).empty());  // raising evicts nothing
  EXPECT_EQ(sched.admit(), (std::vector<std::int64_t>{2, 3}));
}

TEST(CapacityScheduler, LoweringCapacityEvictsHighestIdsAndRequeues) {
  CapacityScheduler sched(4);
  for (std::int64_t id : {1, 2, 3, 4}) sched.enqueue(id, 0x100 + id);
  EXPECT_EQ(sched.admit(), (std::vector<std::int64_t>{1, 2, 3, 4}));
  // Shrink to 2: jobs 3 and 4 (highest ids) lose their slots and become
  // pending again; 1 and 2 keep running.
  EXPECT_EQ(sched.set_capacity(2), (std::vector<std::int64_t>{3, 4}));
  EXPECT_EQ(sched.inflight(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(sched.pending_count(), 2u);
  EXPECT_TRUE(sched.admit().empty());  // still full
  sched.finish(1);
  EXPECT_EQ(sched.admit(), (std::vector<std::int64_t>{3}));
  sched.finish(2);
  sched.finish(3);
  EXPECT_EQ(sched.admit(), (std::vector<std::int64_t>{4}));
}

TEST(CapacityScheduler, DeterministicAcrossCapSweep) {
  // The admitted sequence is a pure function of (job set, cap): running
  // the same job set twice at each cap yields the same admission trace.
  for (int cap : {1, 2, 3, 5}) {
    std::vector<std::vector<std::int64_t>> traces;
    for (int run = 0; run < 2; ++run) {
      CapacityScheduler sched(cap);
      for (std::int64_t id : {7, 2, 9, 4, 1}) {
        sched.enqueue(id, 0xa0 + id % 3);  // some module sharing
      }
      std::vector<std::int64_t> trace;
      while (!sched.idle()) {
        for (std::int64_t id : sched.admit()) trace.push_back(id);
        const auto inflight = sched.inflight();
        ASSERT_FALSE(inflight.empty()) << "admission stalled at cap " << cap;
        sched.finish(inflight.front());  // retire lowest first
      }
      traces.push_back(std::move(trace));
    }
    EXPECT_EQ(traces[0], traces[1]) << "cap " << cap;
  }
}

// ---- LruEvictionPolicy -----------------------------------------------------

TEST(LruEvictionPolicy, EvictsLeastRecentlyUsed) {
  LruEvictionPolicy lru;
  lru.touch(10, 1);
  lru.touch(20, 2);
  lru.touch(30, 3);
  lru.touch(10, 4);  // refresh: 20 is now eldest
  std::uint64_t victim = 0;
  ASSERT_TRUE(lru.victim(&victim));
  EXPECT_EQ(victim, 20u);
}

TEST(LruEvictionPolicy, NeverEvictsPinned) {
  LruEvictionPolicy lru;
  lru.touch(10, 1);
  lru.touch(20, 2);
  lru.pin(10);  // eldest, but in flight
  std::uint64_t victim = 0;
  ASSERT_TRUE(lru.victim(&victim));
  EXPECT_EQ(victim, 20u);
  lru.pin(20);
  EXPECT_FALSE(lru.victim(&victim));  // everything pinned
  lru.unpin(10);
  ASSERT_TRUE(lru.victim(&victim));
  EXPECT_EQ(victim, 10u);
}

TEST(LruEvictionPolicy, PinCountsNest) {
  LruEvictionPolicy lru;
  lru.touch(10, 1);
  lru.pin(10);
  lru.pin(10);
  lru.unpin(10);
  EXPECT_TRUE(lru.pinned(10));  // one pin still outstanding
  lru.unpin(10);
  EXPECT_FALSE(lru.pinned(10));
}

TEST(LruEvictionPolicy, EqualTicksBreakTowardSmallestKey) {
  LruEvictionPolicy lru;
  lru.touch(30, 7);
  lru.touch(10, 7);
  lru.touch(20, 7);
  std::uint64_t victim = 0;
  ASSERT_TRUE(lru.victim(&victim));
  EXPECT_EQ(victim, 10u);
}

// ---- SessionCache ----------------------------------------------------------

TEST(SessionCache, SpecMemoSkipsRecompile) {
  SessionCache cache(4);
  int compiles = 0;
  auto make = [&] {
    ++compiles;
    return workloads::make_ewf();
  };
  const auto first = cache.acquire("workload:ewf", make, 1);
  EXPECT_FALSE(first.cache_hit);
  const auto second = cache.acquire("workload:ewf", make, 2);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(compiles, 1);
  EXPECT_EQ(first.session.get(), second.session.get());
  EXPECT_EQ(first.module_hash, second.module_hash);
}

TEST(SessionCache, ModuleHashCollisionSharesSession) {
  // Two spec keys, same design: the second compile is discarded in favor
  // of the cached session, and the new key is memoized.
  SessionCache cache(4);
  auto make = [] { return workloads::make_ewf(); };
  const auto a = cache.acquire("key-a", make, 1);
  const auto b = cache.acquire("key-b", make, 2);
  EXPECT_FALSE(a.cache_hit);
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(a.session.get(), b.session.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 2u);  // key-b still compiled once to hash
  // ...but a THIRD acquire of key-b is a pure memo hit: no compile.
  int compiles = 0;
  const auto c = cache.acquire(
      "key-b",
      [&] {
        ++compiles;
        return workloads::make_ewf();
      },
      3);
  EXPECT_TRUE(c.cache_hit);
  EXPECT_EQ(compiles, 0);
}

TEST(SessionCache, FailedCompileIsNeverCached) {
  SessionCache cache(4);
  // An empty workload fails front-end validation.
  auto make = [] { return workloads::Workload{}; };
  const auto a = cache.acquire("bad", make, 1);
  ASSERT_NE(a.session, nullptr);
  EXPECT_FALSE(a.session->ok());
  EXPECT_FALSE(a.cache_hit);
  EXPECT_EQ(cache.size(), 0u);
  // Resubmission compiles again (and fails again) rather than hitting.
  const auto b = cache.acquire("bad", make, 2);
  EXPECT_FALSE(b.cache_hit);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(SessionCache, EvictsLruNeverPinned) {
  SessionCache cache(2);
  const auto ewf = cache.acquire(
      "ewf", [] { return workloads::make_ewf(); }, 1);
  cache.pin(ewf.module_hash);
  const auto arf = cache.acquire(
      "arf", [] { return workloads::make_arf(); }, 2);
  // Capacity 2, both resident; inserting a third must evict arf (the LRU
  // unpinned session), not the older-but-pinned ewf.
  cache.acquire("crc", [] { return workloads::make_crc32(); }, 3);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.contains(ewf.module_hash));
  EXPECT_FALSE(cache.contains(arf.module_hash));
  // The evicted session's spec memo went with it: re-acquiring arf
  // compiles again instead of dangling.
  int compiles = 0;
  cache.unpin(ewf.module_hash);
  const auto again = cache.acquire(
      "arf",
      [&] {
        ++compiles;
        return workloads::make_arf();
      },
      4);
  EXPECT_EQ(compiles, 1);
  EXPECT_FALSE(again.cache_hit);
}

// ---- TraceCache ------------------------------------------------------------

sched::ScheduleSeed seed_at(double tclk) {
  sched::ScheduleSeed s;
  s.tclk_ps = tclk;
  s.num_steps = 10;
  return s;
}

TraceKey key_at(std::uint64_t module, int ii, double tclk) {
  return TraceKey{module, ii, 14, sched::BackendKind::kList, tclk};
}

TEST(TraceCache, ExactBucketBeatsNeighbor) {
  TraceCache cache(8);
  cache.insert(key_at(1, 0, 1400), seed_at(1400));
  cache.insert(key_at(1, 0, 1600), seed_at(1600));
  auto hit = cache.lookup(key_at(1, 0, 1600));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->tclk_ps, 1600);
  hit = cache.lookup(key_at(1, 0, 1400));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->tclk_ps, 1400);
  // A neighboring clock period is a miss, however close.
  EXPECT_EQ(cache.lookup(key_at(1, 0, 1450)), nullptr);
  EXPECT_EQ(cache.lookups(), 3u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(TraceCache, NearestNeighborTieBreaksTowardSmallerTclk) {
  TraceCache cache(8);
  cache.insert(key_at(1, 0, 1400), seed_at(1400));
  cache.insert(key_at(1, 0, 1600), seed_at(1600));
  // 1500 is 100 ps from both seeds. Lookup is exact only, so there is no
  // nearest neighbor to break the tie toward: neither seed is returned,
  // the smaller period's included.
  EXPECT_EQ(cache.lookup(key_at(1, 0, 1500)), nullptr);
  EXPECT_EQ(cache.lookups(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TraceCache, KeyFieldsMustMatchExactly) {
  TraceCache cache(8);
  const TraceKey key{1, 4, 14, sched::BackendKind::kList, 1400};
  cache.insert(key, seed_at(1400));
  EXPECT_EQ(cache.lookup({2, 4, 14, sched::BackendKind::kList, 1400}),
            nullptr);
  EXPECT_EQ(cache.lookup({1, 5, 14, sched::BackendKind::kList, 1400}),
            nullptr);
  EXPECT_EQ(cache.lookup({1, 4, 15, sched::BackendKind::kList, 1400}),
            nullptr);
  EXPECT_EQ(cache.lookup({1, 4, 14, sched::BackendKind::kSdc, 1400}),
            nullptr);
  EXPECT_EQ(cache.lookup({1, 4, 14, sched::BackendKind::kList, 1401}),
            nullptr);
  EXPECT_NE(cache.lookup(key), nullptr);
}

TEST(TraceCache, FifoEvictionDropsEldestInsertion) {
  TraceCache cache(2);
  cache.insert(key_at(1, 0, 1400), seed_at(1400));
  cache.insert(key_at(2, 0, 1500), seed_at(1500));
  cache.insert(key_at(2, 0, 1700), seed_at(1700));  // evicts 1@1400
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(key_at(1, 0, 1400)), nullptr);
  EXPECT_NE(cache.lookup(key_at(2, 0, 1500)), nullptr);
  EXPECT_NE(cache.lookup(key_at(2, 0, 1700)), nullptr);
}

TEST(TraceCache, ReinsertSameBucketReplacesWithoutGrowth) {
  TraceCache cache(4);
  const TraceKey key = key_at(1, 0, 1400);
  cache.insert(key, seed_at(1400));
  sched::ScheduleSeed updated = seed_at(1400);
  updated.num_steps = 99;
  cache.insert(key, std::move(updated));
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->num_steps, 99);
}

TEST(TraceCache, InvalidateModuleDropsAllItsSeeds) {
  TraceCache cache(8);
  cache.insert(key_at(1, 0, 1400), seed_at(1400));
  cache.insert(key_at(1, 4, 1500), seed_at(1500));
  cache.insert(key_at(2, 0, 1400), seed_at(1400));
  cache.invalidate_module(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(key_at(1, 0, 1400)), nullptr);
  EXPECT_EQ(cache.lookup(key_at(1, 4, 1500)), nullptr);
  EXPECT_NE(cache.lookup(key_at(2, 0, 1400)), nullptr);
}

// ---- Forced eviction (fault-injection levers) ------------------------------

TEST(SessionCache, ForcedEvictionSkipsPinnedSessions) {
  SessionCache cache(4);
  const auto ewf = cache.acquire("ewf", [] { return workloads::make_ewf(); },
                                 1);
  const auto crc = cache.acquire("crc", [] { return workloads::make_crc32(); },
                                 2);
  cache.pin(ewf.module_hash);
  cache.pin(crc.module_hash);
  // Everything pinned: injected pressure must not touch in-flight jobs.
  EXPECT_FALSE(cache.evict_one(nullptr));
  cache.unpin(ewf.module_hash);
  std::uint64_t victim = 0;
  ASSERT_TRUE(cache.evict_one(&victim));
  EXPECT_EQ(victim, ewf.module_hash);  // LRU unpinned, not the pinned one
  EXPECT_FALSE(cache.contains(ewf.module_hash));
  EXPECT_TRUE(cache.contains(crc.module_hash));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(TraceCache, ForcedEvictionDropsEldestAndStopsWhenEmpty) {
  TraceCache cache(8);
  EXPECT_FALSE(cache.evict_one());  // empty: nothing to do
  cache.insert(key_at(1, 0, 1400), seed_at(1400));
  cache.insert(key_at(2, 0, 1500), seed_at(1500));
  ASSERT_TRUE(cache.evict_one());
  // The eldest insertion went.
  EXPECT_EQ(cache.lookup(key_at(1, 0, 1400)), nullptr);
  EXPECT_NE(cache.lookup(key_at(2, 0, 1500)), nullptr);
  ASSERT_TRUE(cache.evict_one());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.evict_one());
}

// ---- Robustness counters in the stats line ---------------------------------

TEST(ServeStatsCounters, ShedRetryAndCancelReachTheStatsLine) {
  // The counters hls_serve --stats exposes (docs/FAULTS.md): shed at
  // submit, bounded compile retries, cooperative cancellation, and the
  // injected-fault tally — all present in the emitted stats object.
  support::FaultInjector faults;
  faults.arm("session/compile", /*count=*/1);
  ServerOptions options;
  options.threads = 2;
  options.max_queue_depth = 2;
  options.emit_stats = true;
  options.faults = &faults;
  Server server(options);
  auto job = [](std::int64_t id, const char* workload) {
    JobRequest j;
    j.id = id;
    j.workload = workload;
    core::ExploreConfig cfg;
    cfg.curve = "seq";
    cfg.tclk_ps = 1800;
    cfg.latency = 12;
    j.points.push_back(cfg);
    return j;
  };
  std::string error;
  EXPECT_TRUE(server.submit(job(0, "crc32"), &error));   // retried (fault)
  EXPECT_TRUE(server.submit(job(1, "ewf"), &error));     // cancelled below
  EXPECT_FALSE(server.submit(job(2, "arf"), &error));    // shed: depth 2
  EXPECT_NE(error.find("[job/shed]"), std::string::npos);
  server.cancel(1);
  std::string stats_line;
  server.drain([&](const std::string& line) {
    if (line.find("\"stats\"") != std::string::npos) stats_line = line;
  });
  ASSERT_FALSE(stats_line.empty());
  EXPECT_NE(stats_line.find("\"jobs_shed\":1"), std::string::npos);
  EXPECT_NE(stats_line.find("\"jobs_cancelled\":1"), std::string::npos);
  EXPECT_NE(stats_line.find("\"points_cancelled\":1"), std::string::npos);
  EXPECT_NE(stats_line.find("\"compile_retries\":1"), std::string::npos);
  EXPECT_NE(stats_line.find("\"faults_injected\":1"), std::string::npos);
}

// ---- Job parsing: the "min" II form ----------------------------------------

TEST(JobParsing, PointIiMinRequestsMinimumIiSolve) {
  std::vector<JobRequest> jobs;
  std::vector<std::string> errors;
  ASSERT_TRUE(parse_jobs(
      R"({"id": 7, "workload": "ewf",
          "points": [{"tclk_ps": 1800, "latency": 16, "ii": "min"},
                     {"tclk_ps": 1800, "latency": 16, "ii": 4}]})",
      &jobs, &errors));
  ASSERT_TRUE(errors.empty()) << errors.front();
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_EQ(jobs[0].points.size(), 2u);
  EXPECT_TRUE(jobs[0].points[0].solve_min_ii);
  EXPECT_EQ(jobs[0].points[0].pipeline_ii, 0);
  EXPECT_EQ(jobs[0].points[0].curve, "pipelined-16-iimin");
  EXPECT_FALSE(jobs[0].points[1].solve_min_ii);
  EXPECT_EQ(jobs[0].points[1].pipeline_ii, 4);
}

TEST(JobParsing, GridIiAxisMixesNumbersAndMin) {
  std::vector<JobRequest> jobs;
  std::vector<std::string> errors;
  ASSERT_TRUE(parse_jobs(
      R"({"id": 3, "workload": "ewf",
          "grid": {"tclk_ps": [1600, 1800], "latency": [16],
                   "ii": [0, "min"]}})",
      &jobs, &errors));
  ASSERT_TRUE(errors.empty()) << errors.front();
  ASSERT_EQ(jobs.size(), 1u);
  // latency-major, then II, then tclk: both fixed-II points first.
  ASSERT_EQ(jobs[0].points.size(), 4u);
  EXPECT_FALSE(jobs[0].points[0].solve_min_ii);
  EXPECT_FALSE(jobs[0].points[1].solve_min_ii);
  EXPECT_TRUE(jobs[0].points[2].solve_min_ii);
  EXPECT_TRUE(jobs[0].points[3].solve_min_ii);
  EXPECT_EQ(jobs[0].points[2].pipeline_ii, 0);
  EXPECT_EQ(jobs[0].points[2].curve, "pipelined-16-iimin");
  EXPECT_DOUBLE_EQ(jobs[0].points[2].tclk_ps, 1600);
  EXPECT_DOUBLE_EQ(jobs[0].points[3].tclk_ps, 1800);
}

TEST(JobParsing, MalformedIiIsRejectedWithTheStructuredMessage) {
  std::vector<JobRequest> jobs;
  std::vector<std::string> errors;
  ASSERT_TRUE(parse_jobs(
      R"([{"id": 1, "workload": "ewf",
           "points": [{"tclk_ps": 1800, "latency": 16, "ii": "max"}]},
          {"id": 2, "workload": "ewf",
           "grid": {"tclk_ps": [1800], "latency": [16], "ii": [-2]}}])",
      &jobs, &errors));
  EXPECT_TRUE(jobs.empty());
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("\"ii\" must be a non-negative number or \"min\""),
            std::string::npos)
      << errors[0];
  EXPECT_NE(
      errors[1].find("\"grid.ii\" must hold non-negative numbers or \"min\""),
      std::string::npos)
      << errors[1];
}

}  // namespace
}  // namespace hls::serve
