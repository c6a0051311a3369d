// The serve engine: accepts design+grid jobs, runs them on a worker pool
// over shared FlowSessions, and streams ordered ExplorePoint results back
// as JSON lines.
//
// Determinism contract (docs/SERVE.md): the output byte stream is a pure
// function of the submitted job SET — independent of arrival order (jobs
// are keyed by their explicit ids), of the thread count, and of thread
// timing. Three mechanisms make this hold:
//
//  1. Deterministic admission — jobs admit in id order under the in-flight
//     cap, at most one in-flight job per module (serve/admission.hpp).
//  2. Round barriers — each round takes one micro-batch per in-flight job,
//     resolves every trace-cache seed BEFORE fanning out, joins the pool,
//     then commits new seeds and emits output in (job id, point index)
//     order. Worker timing can reorder nothing observable.
//  3. Ordered streaming — each job's points are emitted in point order;
//     jobs interleave only at batch granularity, in id order.
//
// Serial submission (threads = 1) therefore produces byte-identical
// output to any concurrent configuration — enforced by the determinism
// stress test.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "serve/job.hpp"
#include "support/budget.hpp"
#include "support/fault.hpp"

namespace hls::serve {

struct ServerOptions {
  /// Worker threads per round; 0 = hardware_concurrency, 1 = serial.
  int threads = 1;
  /// In-flight job cap (CapacityScheduler); at most this many jobs make
  /// progress per round.
  int max_inflight = 4;
  /// Points per job per round (micro-batch size); <= 0 = whole job in one
  /// round.
  int micro_batch = 8;
  /// Compiled-session cache bound (LRU; in-flight sessions pinned).
  std::size_t max_sessions = 8;
  /// Trace-cache bound (seeds; FIFO eviction).
  std::size_t max_trace_entries = 1024;
  /// Exact-config seed replay. Off = every point solves cold. Results are
  /// identical either way: a hit replays the donor's final pass (provably
  /// bit-exact, collapsing the pass count to 1). This is the A/B lever
  /// the serve bench uses.
  bool trace_cache = true;
  /// Append a final {"stats": {...}} line to the stream.
  bool emit_stats = false;
  /// Queued-job cap for overload shedding; 0 = unbounded. When the queue
  /// is full, submit() rejects with a structured "[job/shed]" error line
  /// instead of growing without bound (docs/SERVE.md, Robustness).
  std::size_t max_queue_depth = 0;
  /// Bounded retry for transient (injected) compile faults: a job whose
  /// session compile hits a "session/compile" fault is re-queued with
  /// exponential round backoff up to this many attempts, then fails with
  /// a "[serve/retries_exhausted]" error line.
  int max_compile_retries = 2;
  /// Cooperative shutdown (e.g. from a SIGTERM handler). Observed at
  /// round boundaries: in-flight points finish, every remaining point is
  /// emitted as a cancelled placeholder, the stream stays ordered and
  /// parseable. The pointee must outlive drain().
  const support::StopSource* stop = nullptr;
  /// Deterministic fault injection (tests only; docs/FAULTS.md lists the
  /// sites). Consulted only from serial sections of the round loop, so an
  /// armed fault fires at the same point in the stream at every thread
  /// count. The pointee must outlive drain().
  support::FaultInjector* faults = nullptr;
};

/// Deterministic counters for the run (no wall-clock anywhere: the stats
/// line is part of the byte-stable stream).
struct ServeStats {
  std::uint64_t jobs = 0;
  std::uint64_t points = 0;
  std::uint64_t points_failed = 0;
  std::uint64_t rounds = 0;
  std::uint64_t sessions_compiled = 0;
  std::uint64_t session_cache_hits = 0;
  std::uint64_t session_evictions = 0;
  std::uint64_t trace_lookups = 0;
  std::uint64_t trace_exact_hits = 0;
  std::uint64_t trace_misses = 0;
  std::uint64_t trace_evictions = 0;
  /// SchedulerResult::seed_use tallies over all points.
  std::uint64_t seed_replays = 0;  ///< exact-config wholesale replays
  std::uint64_t seed_misses = 0;   ///< seeds whose replay failed
  /// Total scheduling passes across all points — the serve bench's
  /// cache-on vs cache-off comparison metric.
  std::uint64_t total_passes = 0;

  // Robustness counters (docs/FAULTS.md): shedding, cancellation, retry
  // and injection activity. All deterministic — they count decisions made
  // in serial sections, never thread-timing artifacts.
  std::uint64_t jobs_shed = 0;         ///< submit() rejections (queue full)
  std::uint64_t jobs_cancelled = 0;    ///< jobs cut short (cancel() or stop)
  std::uint64_t points_cancelled = 0;  ///< cancelled placeholder points
  std::uint64_t compile_retries = 0;   ///< transient-fault re-queues
  std::uint64_t faults_injected = 0;   ///< injector sites that fired
  /// Points a prune-enabled job skipped as [explore/dominated] (proved
  /// infeasible by a looser clock on the same chain; never scheduled).
  std::uint64_t points_pruned = 0;

  std::string to_json() const;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Queues a job. Rejects (false + error) ids that are negative or
  /// already queued, and jobs with no points. Arrival order is irrelevant:
  /// drain() processes jobs in id order.
  bool submit(JobRequest job, std::string* error = nullptr);

  /// Parses a JSON job document (see parse_jobs) and queues every
  /// well-formed job. Appends one message per rejected job to `errors`.
  /// Returns the number of jobs queued.
  std::size_t submit_text(std::string_view text,
                          std::vector<std::string>* errors = nullptr);

  /// Requests cooperative cancellation of one job. Observed at round
  /// boundaries: points already dispatched this round finish and are
  /// emitted normally; every remaining point is emitted as a cancelled
  /// placeholder ({"cancelled": true, "failure": "[serve/cancelled] ..."})
  /// and the job's done summary reports the cancelled count. Unknown ids
  /// are remembered (cancelling before drain() is fine). Call from the
  /// sink or between drains — not from another thread mid-round.
  void cancel(std::int64_t job_id) { cancelled_.insert(job_id); }

  /// Runs every queued job to completion, invoking `sink` once per output
  /// line (no trailing newline). Lines are, in stream order: per-point
  /// result objects, one {"job": id, "done": true, ...} summary per job,
  /// error objects for jobs that failed to compile, and (when
  /// emit_stats) a final {"stats": ...} object. Queued jobs are consumed;
  /// caches and stats persist across drain() calls, so a later drain of
  /// the same designs hits warm caches.
  void drain(const std::function<void(const std::string& line)>& sink);

  const ServeStats& stats() const { return stats_; }
  const SessionCache& session_cache() const { return sessions_; }
  const TraceCache& trace_cache() const { return traces_; }

 private:
  struct ActiveJob;

  ServerOptions options_;
  SessionCache sessions_;
  TraceCache traces_;
  ServeStats stats_;
  std::vector<JobRequest> queued_;
  /// Jobs with a pending cancel request (see cancel()); ids are erased
  /// once the cancellation has been emitted.
  std::set<std::int64_t> cancelled_;
  std::uint64_t tick_ = 0;  ///< monotone LRU clock across drains
};

}  // namespace hls::serve
