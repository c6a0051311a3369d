// Serve trace-cache A/B: the same serving trace — two clients exploring
// overlapping grids of the same designs, then a resubmission wave — run
// with the trace cache enabled and disabled. Emits BENCH_serve_cache.json.
//
// The cache must (a) leave every result line byte-identical (seeding
// never changes results, only pass counts), (b) measurably reduce the
// total scheduling passes, and (c) replay on every hit: every
// configuration revisited by an overlapping grid or a resubmission
// replays its donor's final pass wholesale instead of re-walking the
// relaxation ladder. The bench fails (exit 1) if any property does not
// hold, so CI runs it as a check, not just a report.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "support/json.hpp"

namespace {

using namespace hls;

std::vector<serve::JobRequest> serving_trace() {
  std::vector<serve::JobRequest> jobs;
  std::int64_t next_id = 0;
  auto job = [&](const std::string& workload,
                 std::initializer_list<double> tclks, int latency, int ii) {
    serve::JobRequest j;
    j.id = next_id++;
    j.workload = workload;
    for (double tclk : tclks) {
      core::ExploreConfig cfg;
      cfg.curve = workload;
      cfg.tclk_ps = tclk;
      cfg.latency = latency;
      cfg.pipeline_ii = ii;
      j.points.push_back(cfg);
    }
    jobs.push_back(std::move(j));
  };
  // Client A sweeps ewf and idct8; client B re-sweeps overlapping windows
  // of the same designs (the overlap is where cross-job reuse lands).
  job("ewf", {1450, 1600, 1750, 1900}, 14, 0);
  job("idct8", {1500, 1600, 1700, 1850}, 16, 8);
  job("ewf", {1600, 1750, 1900, 2050}, 14, 0);
  job("idct8", {1600, 1700, 1850, 2000}, 16, 8);
  job("arf", {1700, 1900, 2100}, 10, 0);
  return jobs;
}

struct RunResult {
  std::string result_lines;  ///< point lines only, seed/pass fields stripped
  serve::ServeStats stats;
};

// Drops the fields the cache is allowed to change so the A/B equality
// check isolates "same results".
std::string strip_volatile(const std::string& line) {
  std::string out = line;
  for (const char* field : {"\"passes\":", "\"relaxations\":"}) {
    const std::size_t at = out.find(field);
    if (at == std::string::npos) continue;
    std::size_t stop = out.find(',', at);
    if (stop == std::string::npos) stop = out.find('}', at);
    out.erase(at, stop - at + 1);
  }
  const std::size_t seed_at = out.find(",\"seed_use\":");
  if (seed_at != std::string::npos) {
    out.erase(seed_at, out.find('}', seed_at) - seed_at);
  }
  return out;
}

RunResult run(bool trace_cache) {
  serve::ServerOptions options;
  options.threads = 1;
  options.micro_batch = 2;  // interleave jobs so reuse crosses batches
  options.trace_cache = trace_cache;
  serve::Server server(options);
  RunResult r;
  auto sink = [&](const std::string& line) {
    if (line.find("\"point\":") != std::string::npos) {
      r.result_lines += strip_volatile(line);
      r.result_lines += '\n';
    }
  };
  // Wave 1: the overlapping exploration. Wave 2: a full resubmission
  // (same job set, fresh ids) against warm caches.
  for (int wave = 0; wave < 2; ++wave) {
    for (serve::JobRequest job : serving_trace()) {
      job.id += wave * 100;
      std::string error;
      if (!server.submit(std::move(job), &error)) {
        std::fprintf(stderr, "submit failed: %s\n", error.c_str());
        std::exit(1);
      }
    }
    server.drain(sink);
  }
  r.stats = server.stats();
  return r;
}

}  // namespace

int main() {
  const RunResult on = run(/*trace_cache=*/true);
  const RunResult off = run(/*trace_cache=*/false);

  const double reduction =
      off.stats.total_passes == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(on.stats.total_passes) /
                               static_cast<double>(off.stats.total_passes));
  std::printf("serve trace-cache A/B (%llu points per run)\n",
              static_cast<unsigned long long>(on.stats.points));
  std::printf("  total passes   cache-on %6llu   cache-off %6llu   "
              "(-%.1f%%)\n",
              static_cast<unsigned long long>(on.stats.total_passes),
              static_cast<unsigned long long>(off.stats.total_passes),
              reduction);
  std::printf("  cache-on lookups: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(on.stats.trace_exact_hits),
              static_cast<unsigned long long>(on.stats.trace_misses));
  std::printf("  seed outcomes: %llu replays, %llu misses\n",
              static_cast<unsigned long long>(on.stats.seed_replays),
              static_cast<unsigned long long>(on.stats.seed_misses));

  bool ok = true;
  if (on.result_lines != off.result_lines) {
    std::fprintf(stderr,
                 "FAIL: cache-on and cache-off results differ (seeding must "
                 "never change results)\n");
    ok = false;
  }
  if (on.stats.total_passes >= off.stats.total_passes) {
    std::fprintf(stderr,
                 "FAIL: cache-on used %llu passes vs %llu cache-off (the "
                 "trace cache must reduce passes)\n",
                 static_cast<unsigned long long>(on.stats.total_passes),
                 static_cast<unsigned long long>(off.stats.total_passes));
    ok = false;
  }
  if (on.stats.seed_replays == 0) {
    std::fprintf(stderr, "FAIL: no exact-config replays happened\n");
    ok = false;
  }
  if (on.stats.seed_replays != on.stats.trace_exact_hits) {
    std::fprintf(stderr,
                 "FAIL: %llu trace-cache hits but %llu replays (every hit "
                 "must replay)\n",
                 static_cast<unsigned long long>(on.stats.trace_exact_hits),
                 static_cast<unsigned long long>(on.stats.seed_replays));
    ok = false;
  }

  JsonWriter w;
  w.begin_object();
  w.key("serve_cache");
  w.begin_object();
  w.key("points_per_run"), w.value(on.stats.points);
  w.key("results_identical"), w.value(on.result_lines == off.result_lines);
  w.key("total_passes_cache_on"), w.value(on.stats.total_passes);
  w.key("total_passes_cache_off"), w.value(off.stats.total_passes);
  w.key("pass_reduction_pct"), w.value(reduction);
  w.key("trace_exact_hits"), w.value(on.stats.trace_exact_hits);
  w.key("trace_misses"), w.value(on.stats.trace_misses);
  w.key("seed_replays"), w.value(on.stats.seed_replays);
  w.key("seed_misses"), w.value(on.stats.seed_misses);
  w.key("session_cache_hits"), w.value(on.stats.session_cache_hits);
  w.key("sessions_compiled"), w.value(on.stats.sessions_compiled);
  w.end_object();
  w.end_object();
  std::ofstream("BENCH_serve_cache.json") << w.str() << "\n";
  std::printf("wrote BENCH_serve_cache.json\n");
  return ok ? 0 : 1;
}
