#include "serve/cache.hpp"

#include <algorithm>
#include <utility>

#include "support/diagnostics.hpp"

namespace hls::serve {

// ---- SessionCache ----------------------------------------------------------

SessionCache::SessionCache(std::size_t max_sessions)
    : max_sessions_(std::max<std::size_t>(1, max_sessions)) {}

SessionCache::Acquired SessionCache::acquire(
    const std::string& key, const std::function<workloads::Workload()>& make,
    std::uint64_t tick) {
  Acquired out;
  // Level 1: spec-key memo — the same submission text seen before. This is
  // the path that skips the front end without even building the workload.
  if (const auto memo = spec_memo_.find(key); memo != spec_memo_.end()) {
    const auto it = sessions_.find(memo->second);
    HLS_ASSERT(it != sessions_.end(), "spec memo points at evicted session");
    ++hits_;
    policy_.touch(it->first, tick);
    out.session = it->second;
    out.module_hash = it->first;
    out.cache_hit = true;
    return out;
  }
  ++misses_;
  auto session = std::make_shared<core::FlowSession>(make());
  if (!session->ok()) {
    // Compile failures are returned for diagnosis but never cached: their
    // module hash is meaningless and the job fails at admission anyway.
    out.session = std::move(session);
    return out;
  }
  const std::uint64_t hash = session->module_hash();
  // Level 2: post-compile collision — a renamed but structurally identical
  // design. The fresh compile is discarded in favor of the cached session
  // (same scheduling inputs by the module_hash contract), and this spec
  // key is memoized so the NEXT submission skips the front end too.
  if (const auto it = sessions_.find(hash); it != sessions_.end()) {
    spec_memo_.emplace(key, hash);
    policy_.touch(hash, tick);
    out.session = it->second;
    out.module_hash = hash;
    out.cache_hit = true;
    return out;
  }
  sessions_.emplace(hash, session);
  spec_memo_.emplace(key, hash);
  policy_.touch(hash, tick);
  evict_to_capacity();
  out.session = std::move(session);
  out.module_hash = hash;
  return out;
}

bool SessionCache::evict_one(std::uint64_t* evicted_hash) {
  std::uint64_t victim = 0;
  if (!policy_.victim(&victim)) return false;  // everything pinned
  sessions_.erase(victim);
  policy_.erase(victim);
  for (auto it = spec_memo_.begin(); it != spec_memo_.end();) {
    it = it->second == victim ? spec_memo_.erase(it) : std::next(it);
  }
  ++evictions_;
  if (evicted_hash != nullptr) *evicted_hash = victim;
  return true;
}

void SessionCache::evict_to_capacity() {
  while (sessions_.size() > max_sessions_) {
    std::uint64_t victim = 0;
    if (!policy_.victim(&victim)) return;  // everything pinned: over-commit
    sessions_.erase(victim);
    policy_.erase(victim);
    for (auto it = spec_memo_.begin(); it != spec_memo_.end();) {
      it = it->second == victim ? spec_memo_.erase(it) : std::next(it);
    }
    ++evictions_;
  }
}

// ---- TraceCache ------------------------------------------------------------

TraceCache::TraceCache(std::size_t max_entries)
    : max_entries_(std::max<std::size_t>(1, max_entries)) {}

std::shared_ptr<const sched::ScheduleSeed> TraceCache::lookup(
    const TraceKey& key) {
  ++lookups_;
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  ++hits_;
  return it->second.seed;
}

void TraceCache::insert(const TraceKey& key, sched::ScheduleSeed seed) {
  entries_.insert_or_assign(
      key, Entry{std::make_shared<const sched::ScheduleSeed>(std::move(seed)),
                 next_stamp_++});
  ++insertions_;
  while (entries_.size() > max_entries_) evict_one();
}

void TraceCache::invalidate_module(std::uint64_t module_hash) {
  std::erase_if(entries_, [&](const auto& entry) {
    return entry.first.module_hash == module_hash;
  });
}

bool TraceCache::evict_one() {
  if (entries_.empty()) return false;
  // Eldest stamp across the cache. Linear, but the cache is small
  // (hundreds of entries) and eviction runs only at round barriers.
  const auto eldest = std::min_element(
      entries_.begin(), entries_.end(), [](const auto& a, const auto& b) {
        return a.second.stamp < b.second.stamp;
      });
  entries_.erase(eldest);
  ++evictions_;
  return true;
}

}  // namespace hls::serve
