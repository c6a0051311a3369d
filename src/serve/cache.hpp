// The serving layer's two caches (docs/SERVE.md has the full contract):
//
//  * SessionCache — compiled FlowSessions keyed by module identity, so a
//    repeat submission of the same design (even renamed) skips the front
//    end (optimize + predicate + validate) entirely. LRU, size-bounded,
//    and in-flight sessions are pinned: eviction can never invalidate a
//    running job.
//
//  * TraceCache — exact-config replay seeds (sched::ScheduleSeed) keyed
//    by (module hash, II, latency, requested backend, clock period). A
//    hit replays the donor's final pass wholesale (one pass, bit-exact);
//    lookups are exact only, because a seed from another clock period
//    cannot skip passes (docs/SCHEDULER.md, "Cross-run seeding"). Entries
//    are committed only at round barriers and in (job, point) order,
//    which keeps lookups — and therefore pass counts and the output
//    stream — independent of thread timing.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "core/session.hpp"
#include "sched/driver.hpp"
#include "serve/admission.hpp"

namespace hls::serve {

// ---- SessionCache ----------------------------------------------------------

class SessionCache {
 public:
  /// Keeps at most `max_sessions` compiled sessions (minimum 1).
  explicit SessionCache(std::size_t max_sessions);

  struct Acquired {
    std::shared_ptr<core::FlowSession> session;
    std::uint64_t module_hash = 0;
    /// True when the front end was skipped (spec-key memo hit, or the
    /// freshly compiled module hashed equal to a cached one).
    bool cache_hit = false;
  };

  /// Returns the session for `key` (see serve::spec_key), compiling via
  /// `make` on a miss. Two distinct spec keys whose workloads compile to
  /// the same module (FlowSession::module_hash) share one session. A
  /// session that failed to compile is returned but never cached — the
  /// caller surfaces its diagnostics and moves on. `tick` stamps recency
  /// for LRU eviction. Not thread-safe: the serve engine calls it only
  /// from the round loop.
  Acquired acquire(const std::string& key,
                   const std::function<workloads::Workload()>& make,
                   std::uint64_t tick);

  /// Pins / unpins a session against eviction while a job runs on it.
  void pin(std::uint64_t module_hash) { policy_.pin(module_hash); }
  void unpin(std::uint64_t module_hash) { policy_.unpin(module_hash); }

  /// Force-evicts the LRU unpinned session regardless of capacity — the
  /// fault-injection lever ("session/evict") for exercising eviction
  /// under load. Returns false (and evicts nothing) when every session is
  /// pinned: in-flight jobs stay safe even under injected pressure. On
  /// success stores the victim's module hash so the caller can drop its
  /// dependent trace-cache entries.
  bool evict_one(std::uint64_t* evicted_hash = nullptr);

  bool contains(std::uint64_t module_hash) const {
    return sessions_.find(module_hash) != sessions_.end();
  }
  std::size_t size() const { return sessions_.size(); }
  std::size_t capacity() const { return max_sessions_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  void evict_to_capacity();

  std::size_t max_sessions_;
  std::map<std::uint64_t, std::shared_ptr<core::FlowSession>> sessions_;
  /// spec key → module hash memo, so a repeat submission skips the front
  /// end without compiling. Memo entries whose session was evicted are
  /// dropped with it (a stale memo would claim a hit the cache can't
  /// serve).
  std::map<std::string, std::uint64_t> spec_memo_;
  LruEvictionPolicy policy_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

// ---- TraceCache ------------------------------------------------------------

/// Cache key: everything that must match EXACTLY for a seed to replay.
struct TraceKey {
  std::uint64_t module_hash = 0;
  int ii = 0;       ///< 0 = sequential
  int latency = 0;  ///< requested LI bound (ExploreConfig::latency)
  sched::BackendKind backend = sched::BackendKind::kList;  ///< as requested
  double tclk_ps = 0;

  bool operator<(const TraceKey& o) const {
    return std::tie(module_hash, ii, latency, backend, tclk_ps) <
           std::tie(o.module_hash, o.ii, o.latency, o.backend, o.tclk_ps);
  }
};

class TraceCache {
 public:
  /// Keeps at most `max_entries` seeds (minimum 1); the eldest insertion
  /// is evicted first (FIFO — deterministic and cheap; recency tracking
  /// would make lookups mutating).
  explicit TraceCache(std::size_t max_entries);

  /// The seed stored under exactly `key`, or nullptr. Seeds are
  /// immutable and shared: the holder keeps one alive even after the
  /// cache replaced or evicted it, so a hit costs a refcount bump.
  std::shared_ptr<const sched::ScheduleSeed> lookup(const TraceKey& key);

  /// Stores a finished run's seed under `key`, replacing any previous
  /// entry there, then evicts eldest-first down to capacity. Call only at
  /// deterministic commit points (round barriers).
  void insert(const TraceKey& key, sched::ScheduleSeed seed);

  /// Drops every entry for a module (used when its session is evicted:
  /// seeds for a design the cache can no longer name are dead weight).
  void invalidate_module(std::uint64_t module_hash);

  /// Force-evicts the eldest entry regardless of capacity — the
  /// fault-injection lever ("trace/evict"). Returns false when empty.
  /// Safe at any barrier: work items hold their seeds by shared pointer,
  /// so a forced eviction can never invalidate a running point.
  bool evict_one();

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return max_entries_; }

  std::uint64_t lookups() const { return lookups_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return lookups_ - hits_; }
  std::uint64_t insertions() const { return insertions_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::shared_ptr<const sched::ScheduleSeed> seed;
    std::uint64_t stamp = 0;  ///< insertion counter, for FIFO eviction
  };

  std::size_t max_entries_;
  std::map<TraceKey, Entry> entries_;
  std::uint64_t next_stamp_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace hls::serve
