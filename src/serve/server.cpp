#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <set>
#include <string_view>
#include <thread>
#include <utility>

#include "support/strings.hpp"

namespace hls::serve {

namespace {

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string ServeStats::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("stats");
  w.begin_object();
  w.key("jobs"), w.value(jobs);
  w.key("points"), w.value(points);
  w.key("points_failed"), w.value(points_failed);
  w.key("rounds"), w.value(rounds);
  w.key("sessions_compiled"), w.value(sessions_compiled);
  w.key("session_cache_hits"), w.value(session_cache_hits);
  w.key("session_evictions"), w.value(session_evictions);
  w.key("trace_lookups"), w.value(trace_lookups);
  w.key("trace_exact_hits"), w.value(trace_exact_hits);
  w.key("trace_misses"), w.value(trace_misses);
  w.key("trace_evictions"), w.value(trace_evictions);
  w.key("seed_replays"), w.value(seed_replays);
  w.key("seed_misses"), w.value(seed_misses);
  w.key("total_passes"), w.value(total_passes);
  w.key("jobs_shed"), w.value(jobs_shed);
  w.key("jobs_cancelled"), w.value(jobs_cancelled);
  w.key("points_cancelled"), w.value(points_cancelled);
  w.key("compile_retries"), w.value(compile_retries);
  w.key("faults_injected"), w.value(faults_injected);
  w.key("points_pruned"), w.value(points_pruned);
  w.end_object();
  w.end_object();
  return w.str();
}

struct Server::ActiveJob {
  JobRequest req;
  std::shared_ptr<core::FlowSession> session;
  std::uint64_t module_hash = 0;
  bool session_hit = false;
  std::size_t next_point = 0;
  std::uint64_t failures = 0;
  // Per-job seed tallies, bumped only in the barrier commit loop so the
  // counts (like every other emitted field) are identical serial vs
  // threaded.
  std::uint64_t seed_replays = 0;
  std::uint64_t seed_misses = 0;
  /// Points emitted as cancelled placeholders (cancel() or drain stop).
  std::uint64_t cancelled_points = 0;
  /// Points skipped by dominance pruning (req.prune jobs only).
  std::uint64_t pruned_points = 0;
  /// Per-chain pruning witnesses (req.prune jobs only): chain key → the
  /// loosest clock period proven infeasible on that chain so far. Written
  /// only in the serial commit loop and read only at serial round-build
  /// time, so pruning decisions are cross-round and thread-count
  /// independent for a fixed micro_batch.
  std::map<std::string, double> chain_witness;
};

Server::Server(ServerOptions options)
    : options_(options),
      sessions_(options.max_sessions),
      traces_(options.max_trace_entries) {}

Server::~Server() = default;

bool Server::submit(JobRequest job, std::string* error) {
  auto reject = [&](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  if (job.id < 0) return reject("job id must be non-negative");
  // Overload shedding: a bounded queue rejects loudly instead of growing
  // without bound. The error is structured ("[job/shed] ...") so clients
  // can distinguish back-pressure from malformed jobs and resubmit later.
  if (options_.max_queue_depth > 0 &&
      queued_.size() >= options_.max_queue_depth) {
    ++stats_.jobs_shed;
    return reject(strf("[job/shed] queue depth ", options_.max_queue_depth,
                       " exceeded; job ", job.id, " rejected"));
  }
  for (const JobRequest& q : queued_) {
    if (q.id == job.id) {
      return reject(strf("duplicate job id ", job.id));
    }
  }
  if (job.points.empty()) return reject("job has no configurations");
  if (job.workload.empty() && job.source.empty()) {
    return reject("job names no workload");
  }
  queued_.push_back(std::move(job));
  return true;
}

std::size_t Server::submit_text(std::string_view text,
                                std::vector<std::string>* errors) {
  std::vector<JobRequest> jobs;
  if (!parse_jobs(text, &jobs, errors)) return 0;
  std::size_t accepted = 0;
  for (JobRequest& job : jobs) {
    std::string error;
    if (submit(std::move(job), &error)) {
      ++accepted;
    } else if (errors != nullptr) {
      errors->push_back(std::move(error));
    }
  }
  return accepted;
}

void Server::drain(const std::function<void(const std::string& line)>& sink) {
  // Arrival order is irrelevant from here on: jobs are processed strictly
  // by id, which is what makes randomized submission orders byte-identical.
  std::map<std::int64_t, JobRequest> pending;
  CapacityScheduler admission(options_.max_inflight);
  for (JobRequest& job : queued_) {
    const std::int64_t id = job.id;
    admission.enqueue(id, fnv1a(spec_key(job)));
    pending.emplace(id, std::move(job));
  }
  stats_.jobs += queued_.size();
  queued_.clear();

  // Jobs bounced by a transient (injected) compile fault, waiting out an
  // exponential ROUND backoff. Backoff is counted in rounds, not
  // wall-clock, so the retry schedule — and therefore the byte stream —
  // is identical at every thread count (docs/FAULTS.md).
  struct Retry {
    JobRequest req;
    std::uint64_t eligible_round = 0;
  };
  std::map<std::int64_t, Retry> retrying;
  std::map<std::int64_t, int> retry_attempts;

  // Consults the optional fault injector. Called ONLY from serial
  // sections of the round loop: per-site call counts — and so which
  // occurrence an armed fault hits — are thread-count independent.
  auto fault = [&](std::string_view site) {
    if (options_.faults == nullptr) return false;
    if (!options_.faults->should_fail(site)) return false;
    ++stats_.faults_injected;
    return true;
  };

  // One result line per point. Every field is deterministic — wall-clock
  // timings are deliberately absent (they would break byte-stability).
  auto point_line = [](std::int64_t job, std::size_t index,
                       const core::ExploreConfig& cfg,
                       const core::ExplorePoint& pt) {
    JsonWriter w;
    w.begin_object();
    w.key("job"), w.value(static_cast<std::int64_t>(job));
    w.key("point"), w.value(static_cast<std::uint64_t>(index));
    w.key("curve"), w.value(pt.curve);
    w.key("tclk_ps"), w.value(pt.tclk_ps);
    w.key("latency"), w.value(static_cast<std::int64_t>(pt.latency));
    // Min-II points echo the request form ("min") plus the solved II
    // when the schedule stage was reached; fixed-II lines are unchanged.
    if (cfg.solve_min_ii) {
      w.key("ii"), w.value("min");
      if (pt.min_ii > 0) {
        w.key("min_ii"), w.value(static_cast<std::int64_t>(pt.min_ii));
      }
    } else {
      w.key("ii"), w.value(static_cast<std::int64_t>(cfg.pipeline_ii));
    }
    w.key("pipelined"), w.value(pt.pipelined);
    w.key("backend"), w.value(pt.backend);
    w.key("feasible"), w.value(pt.feasible);
    // Emitted only for points cut short cooperatively, so ordinary
    // streams stay byte-identical to pre-cancellation builds.
    if (pt.cancelled) w.key("cancelled"), w.value(true);
    if (pt.feasible) {
      w.key("delay_ns"), w.value(pt.delay_ns);
      w.key("area"), w.value(pt.area);
      w.key("power_mw"), w.value(pt.power_mw);
    } else {
      w.key("failure"), w.value(pt.failure);
    }
    w.key("passes"), w.value(static_cast<std::int64_t>(pt.passes));
    w.key("relaxations"), w.value(static_cast<std::int64_t>(pt.relaxations));
    w.key("seed_use"), w.value(pt.seed_use);
    w.end_object();
    return w.str();
  };

  // Placeholder for a point that never ran (cancellation, drain stop, or
  // an injected dispatch fault): the config is echoed back so the line is
  // position-independently parseable like a real result.
  auto synthetic_point = [](const core::ExploreConfig& cfg,
                            std::string failure, bool cancelled) {
    core::ExplorePoint pt;
    pt.curve = cfg.curve;
    pt.tclk_ps = cfg.tclk_ps;
    pt.latency = cfg.latency;
    pt.pipelined = cfg.pipeline_ii > 0 || cfg.solve_min_ii;
    pt.backend = sched::backend_name(cfg.backend);
    pt.failure = std::move(failure);
    pt.cancelled = cancelled;
    return pt;
  };

  auto emit_done = [&](std::int64_t id, const ActiveJob& aj) {
    JsonWriter w;
    w.begin_object();
    w.key("job"), w.value(id);
    w.key("done"), w.value(true);
    w.key("points"), w.value(static_cast<std::uint64_t>(aj.req.points.size()));
    w.key("failures"), w.value(aj.failures);
    // Only cancelled jobs carry the key, keeping ordinary summaries
    // byte-identical to pre-cancellation builds.
    if (aj.cancelled_points > 0) {
      w.key("cancelled"), w.value(aj.cancelled_points);
    }
    // Likewise only prune-enabled jobs that actually skipped work.
    if (aj.pruned_points > 0) {
      w.key("pruned"), w.value(aj.pruned_points);
    }
    w.key("seed_replays"), w.value(aj.seed_replays);
    w.key("seed_misses"), w.value(aj.seed_misses);
    w.key("session_cache_hit"), w.value(aj.session_hit);
    w.key("module"), w.value(hex64(aj.module_hash));
    w.end_object();
    sink(w.str());
  };

  // Emits every not-yet-run point of `aj` as a cancelled placeholder.
  auto cancel_rest = [&](std::int64_t id, ActiveJob& aj,
                         const char* message) {
    for (std::size_t i = aj.next_point; i < aj.req.points.size(); ++i) {
      sink(point_line(id, i, aj.req.points[i],
                      synthetic_point(aj.req.points[i], message, true)));
      ++stats_.points_cancelled;
      ++aj.cancelled_points;
    }
    aj.next_point = aj.req.points.size();
    ++stats_.jobs_cancelled;
  };

  std::map<std::int64_t, ActiveJob> active;
  std::uint64_t round = 0;
  while (!admission.idle() || !retrying.empty()) {
    ++round;
    ++tick_;

    // ---- Cooperative shutdown (observed at round boundaries only) ------
    // In-flight points from the previous round already finished and were
    // emitted at its barrier; everything not yet dispatched becomes an
    // ordered cancelled placeholder, every job still gets its done
    // summary, and the stream stays parseable to the last byte.
    if ((options_.stop != nullptr && options_.stop->stop_requested()) ||
        fault("drain/stop")) {
      for (auto& [id, aj] : active) {
        cancel_rest(id, aj, "[serve/cancelled] drain stopped before point ran");
        emit_done(id, aj);
        sessions_.unpin(aj.module_hash);
        admission.finish(id);
      }
      active.clear();
      // Jobs that never started — still queued or in retry backoff — get
      // one structured error line each, in id order.
      std::set<std::int64_t> waiting;
      for (const auto& entry : pending) waiting.insert(entry.first);
      for (const auto& entry : retrying) waiting.insert(entry.first);
      for (const std::int64_t id : waiting) {
        JsonWriter w;
        w.begin_object();
        w.key("job"), w.value(id);
        w.key("error"),
            w.value("[job/cancelled] drain stopped before job started");
        w.end_object();
        sink(w.str());
        ++stats_.jobs_cancelled;
      }
      break;
    }

    // ---- Retry intake: backoff elapsed → back into admission -----------
    for (auto it = retrying.begin(); it != retrying.end();) {
      if (it->second.eligible_round > round) {
        ++it;
        continue;
      }
      const std::int64_t id = it->first;
      admission.enqueue(id, fnv1a(spec_key(it->second.req)));
      pending.emplace(id, std::move(it->second.req));
      it = retrying.erase(it);
    }

    // ---- Cancellation sweep over in-flight jobs (serial, id order) -----
    for (auto& [id, aj] : active) {
      if (cancelled_.count(id) == 0) continue;
      cancel_rest(id, aj, "[serve/cancelled] point cancelled before dispatch");
      cancelled_.erase(id);
      // The job retires with its done summary at this round's barrier.
    }

    // ---- Admission (serial, id order) ----------------------------------
    for (const std::int64_t id : admission.admit()) {
      JobRequest req = std::move(pending.at(id));
      pending.erase(id);
      // A cancel that lands before the job compiles skips the front end
      // entirely; the job still emits its full ordered point list.
      if (cancelled_.count(id) != 0) {
        ActiveJob aj;
        aj.req = std::move(req);
        cancel_rest(id, aj,
                    "[serve/cancelled] point cancelled before dispatch");
        emit_done(id, aj);
        admission.finish(id);
        cancelled_.erase(id);
        continue;
      }
      // Injected transient compile fault → bounded retry with exponential
      // round backoff. The job is requeued, not failed, until the retry
      // budget is spent; only then does it surface a structured error.
      if (fault("session/compile")) {
        const int attempts = ++retry_attempts[id];
        if (attempts <= options_.max_compile_retries) {
          ++stats_.compile_retries;
          Retry r;
          r.eligible_round = round + (1ULL << (attempts - 1));
          r.req = std::move(req);
          retrying.emplace(id, std::move(r));
        } else {
          JsonWriter w;
          w.begin_object();
          w.key("job"), w.value(id);
          w.key("error"),
              w.value(strf("[serve/retries_exhausted] transient compile "
                           "fault persisted after ",
                           attempts, " attempts"));
          w.end_object();
          sink(w.str());
        }
        admission.finish(id);
        continue;
      }
      std::string resolve_error;
      SessionCache::Acquired acq = sessions_.acquire(
          spec_key(req),
          [&]() -> workloads::Workload {
            workloads::Workload w;
            if (!resolve_workload(req, &w, &resolve_error)) return {};
            return w;
          },
          tick_);
      if (!resolve_error.empty() || !acq.session->ok()) {
        std::string message = resolve_error;
        if (message.empty()) {
          for (const Diagnostic& d : acq.session->diagnostics()) {
            if (d.severity == Severity::kError) {
              message = d.to_string();
              break;
            }
          }
        }
        JsonWriter w;
        w.begin_object();
        w.key("job"), w.value(id);
        w.key("error"), w.value(message);
        w.end_object();
        sink(w.str());
        admission.finish(id);
        continue;
      }
      sessions_.pin(acq.module_hash);
      ActiveJob aj;
      aj.req = std::move(req);
      aj.session = std::move(acq.session);
      aj.module_hash = acq.module_hash;
      aj.session_hit = acq.cache_hit;
      if (aj.req.guided || aj.req.prune) {
        // Model-guided admission: reorder the job's points into chain
        // order (core::guided_order) once, deterministically — the
        // stream's point indices refer to this reordered list
        // (docs/SERVE.md). Chains also put each ladder's loosest clock
        // first, which is what makes the prune witnesses below sound.
        const std::vector<std::size_t> order =
            core::guided_order(*aj.session, aj.req.points);
        std::vector<core::ExploreConfig> reordered;
        reordered.reserve(order.size());
        for (const std::size_t p : order) {
          reordered.push_back(std::move(aj.req.points[p]));
        }
        aj.req.points = std::move(reordered);
      }
      active.emplace(id, std::move(aj));
    }
    if (active.empty()) continue;  // admitted jobs all failed to compile

    // ---- Build the round: one micro-batch per job, seeds resolved NOW --
    // Seed resolution happens before any worker starts, in (job, point)
    // order, and each work item holds a shared pointer to its seed:
    // lookups can never race commits, and a mid-round cache eviction
    // cannot invalidate a seed a worker is reading.
    struct Work {
      std::int64_t job = 0;
      std::size_t index = 0;
      const core::ExploreConfig* cfg = nullptr;
      core::FlowSession* session = nullptr;
      TraceKey key;
      /// Injected "worker/dispatch" fault, decided serially at build time
      /// so the SAME item fails at every thread count; the worker then
      /// synthesizes a failed point instead of scheduling.
      bool fault_dispatch = false;
      /// Dominance-pruned (req.prune): a looser clock on this point's
      /// chain was already proven infeasible in an earlier round. Decided
      /// serially at build time like fault_dispatch; the worker
      /// synthesizes an [explore/dominated] point instead of scheduling.
      bool dominated = false;
      double dominated_witness = 0;  ///< the witness clock, for the message
      std::shared_ptr<const sched::ScheduleSeed> seed;  ///< trace-cache hit
      core::RunPointExtras extras;
      core::ExplorePoint pt;
    };
    std::vector<Work> work;
    for (auto& [id, aj] : active) {
      const std::size_t remaining = aj.req.points.size() - aj.next_point;
      const std::size_t take =
          options_.micro_batch <= 0
              ? remaining
              : std::min(remaining,
                         static_cast<std::size_t>(options_.micro_batch));
      for (std::size_t i = 0; i < take; ++i) {
        Work item;
        item.job = id;
        item.index = aj.next_point + i;
        item.cfg = &aj.req.points[item.index];
        item.session = aj.session.get();
        if (aj.req.prune) {
          const auto wit =
              aj.chain_witness.find(core::explore_chain_key(*item.cfg));
          if (wit != aj.chain_witness.end() &&
              item.cfg->tclk_ps < wit->second) {
            // Skip seed lookup and dispatch faults entirely: the point
            // never reaches a worker, so neither cache nor injector
            // should see it.
            item.dominated = true;
            item.dominated_witness = wit->second;
            work.push_back(std::move(item));
            continue;
          }
        }
        // Min-II points get their own key space (-1): their donor seeds
        // carry the SOLVED II and must not be offered to fixed-II points
        // (or vice versa) just because the request II matched.
        item.key =
            TraceKey{aj.module_hash,
                     item.cfg->solve_min_ii ? -1 : item.cfg->pipeline_ii,
                     item.cfg->latency, item.cfg->backend, item.cfg->tclk_ps};
        if (options_.trace_cache) item.seed = traces_.lookup(item.key);
        item.fault_dispatch = fault("worker/dispatch");
        work.push_back(std::move(item));
      }
      aj.next_point += take;
    }
    ++stats_.rounds;

    // ---- Fan out over the worker pool (barrier) ------------------------
    auto run_item = [&](Work& item) {
      if (item.dominated) {
        item.pt = synthetic_point(
            *item.cfg,
            strf(core::kDominatedPrefix,
                 " provably infeasible at looser clock tclk_ps=",
                 item.dominated_witness),
            false);
        return;
      }
      if (item.fault_dispatch) {
        // The fault decision was made serially; the point fails with a
        // structured diagnostic and the rest of the job proceeds.
        item.pt = synthetic_point(
            *item.cfg, "[serve/fault_injected] worker dispatch fault", false);
        return;
      }
      item.extras.seed = item.seed.get();
      item.extras.record_seed = options_.trace_cache;
      item.pt = core::run_point(*item.session, *item.cfg, &item.extras);
    };
    std::size_t threads = 1;
    if (options_.threads == 0) {
      threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    } else if (options_.threads > 0) {
      threads = static_cast<std::size_t>(options_.threads);
    }
    threads = std::min(threads, work.size());
    if (threads <= 1) {
      for (Work& item : work) run_item(item);
    } else {
      std::atomic<std::size_t> next{0};
      std::vector<std::exception_ptr> errors(work.size());
      auto worker = [&] {
        for (std::size_t i = next.fetch_add(1); i < work.size();
             i = next.fetch_add(1)) {
          try {
            run_item(work[i]);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
      for (std::thread& t : pool) t.join();
      for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    }

    // ---- Commit + emit at the barrier, in (job, point) order -----------
    for (Work& item : work) {
      sink(point_line(item.job, item.index, *item.cfg, item.pt));
      ++stats_.points;
      stats_.total_passes += static_cast<std::uint64_t>(item.pt.passes);
      ActiveJob& owner = active.at(item.job);
      if (item.pt.seed_use == "replay") {
        ++stats_.seed_replays;
        ++owner.seed_replays;
      }
      if (item.pt.seed_use == "miss") {
        ++stats_.seed_misses;
        ++owner.seed_misses;
      }
      if (!item.pt.feasible) {
        ++stats_.points_failed;
        ++owner.failures;
      }
      if (item.dominated) {
        ++stats_.points_pruned;
        ++owner.pruned_points;
      } else if (owner.req.prune && core::proves_infeasibility(item.pt)) {
        // Record (or loosen) this chain's witness for later rounds; any
        // proven-infeasible clock dominates everything strictly tighter.
        double& wit = owner.chain_witness[core::explore_chain_key(*item.cfg)];
        wit = std::max(wit, item.cfg->tclk_ps);
      }
      if (options_.trace_cache && item.extras.seed_recorded) {
        // An injected insert failure just drops the seed: a later run of
        // the same config solves cold. Replay correctness never depends
        // on an entry being present, only on committed entries being
        // exact — so a dropped insert can never corrupt seed replay.
        if (!fault("trace/insert")) {
          traces_.insert(item.key, std::move(item.extras.seed_out));
        }
      }
    }

    // ---- Retire finished jobs (id order) -------------------------------
    for (auto it = active.begin(); it != active.end();) {
      ActiveJob& aj = it->second;
      if (aj.next_point < aj.req.points.size()) {
        ++it;
        continue;
      }
      emit_done(it->first, aj);
      sessions_.unpin(aj.module_hash);
      admission.finish(it->first);
      it = active.erase(it);
    }

    // ---- Injected cache pressure (serial, barrier-safe) ----------------
    // Forced evictions model memory pressure landing between rounds. A
    // session eviction drops the module's seeds with it (the standing
    // invariant: the trace cache never outlives the session cache's
    // knowledge of a module); pinned in-flight sessions are never victims.
    if (fault("session/evict")) {
      std::uint64_t evicted = 0;
      if (sessions_.evict_one(&evicted)) traces_.invalidate_module(evicted);
    }
    if (fault("trace/evict")) traces_.evict_one();
  }

  // Cache counters are cumulative across drain() calls, mirroring the
  // cache lifetimes.
  stats_.sessions_compiled = sessions_.misses();
  stats_.session_cache_hits = sessions_.hits();
  stats_.session_evictions = sessions_.evictions();
  stats_.trace_lookups = traces_.lookups();
  stats_.trace_exact_hits = traces_.hits();
  stats_.trace_misses = traces_.misses();
  stats_.trace_evictions = traces_.evictions();
  if (options_.emit_stats) sink(stats_.to_json());
}

}  // namespace hls::serve
