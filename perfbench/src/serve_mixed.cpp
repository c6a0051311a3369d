// serve-mixed: a fresh serve::Server per iteration (two threads, default
// options) fed four waves of JSON job text through submit_text and
// drained in closed loop. Each wave holds the 12 named suite kernels on
// small grids, one inline .hls job (the paper's Figure 1 source) and three
// seeded 400-op random designs. Waves 2 and 4 resubmit the designs with
// clock windows overlapping waves 1 and 3, so trace-cache exact replays
// stand in for cold ladders, and JSON intake, admission, session compile
// and stream serialisation carry more of the time.
//
// Session-cache working sets: each wave cycles all 16 designs, which
// overflows the default 8-entry cache, but each half of a wave (8 designs)
// fits it, and alternate waves run the halves in opposite order, so the
// half a wave starts with is the one the previous wave ended with.
#include <map>
#include <optional>
#include <set>

#include "bench.hpp"
#include "cosim.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "stream.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace perfbench {

namespace {

using hls::core::FlowSession;

constexpr const char* kFigure1Source = R"(
module example1 {
  in mask: i32;
  in chrome: i32;
  in scale: i32;
  in th: i32;
  out pixel: i32;

  thread {
    forever {
      var aver: i32 = 0;
      wait;
      do {
        var filt: i32 = mask;
        var delta: i32 = mask * chrome;
        aver = aver + delta;
        if (aver > th) { aver = aver * scale; }
        wait;
        pixel = aver * filt;
      } while (delta != 0) latency(1, 3);
    }
  }
}
)";

struct Design {
  const char* workload;  ///< serve workload name, "random" or "" for the .hls source
  std::uint64_t random_seed;
  const char* backend;
  std::vector<int> latency;
  std::vector<int> ii;
};

// Half A, then half B (see the file comment).
const std::vector<Design>& designs() {
  static const std::vector<Design> all = {
      {"fir16", 0, "list", {2, 12}, {0, 2}},
      {"ewf", 0, "sdc", {4, 16}, {0, 1}},
      {"arf", 0, "auto", {16, 32}, {0, 2}},
      {"crc32", 0, "list", {4, 12}, {0, 2}},
      {"fft8_stage", 0, "sdc", {8, 16}, {0, 2}},
      {"dct8", 0, "list", {16, 32}, {0, 2}},
      {"random", 401, "auto", {24, 32}, {0, 2, 8}},
      {"", 0, "list", {2, 3}, {0, 1, 2}},
      {"idct8", 0, "sdc", {16, 32}, {0, 2}},
      {"conv3x3", 0, "list", {4, 12}, {0, 2}},
      {"sobel", 0, "auto", {4, 12}, {0, 2}},
      {"banked_fir", 0, "list", {8, 16}, {0, 2}},
      {"transpose4", 0, "sdc", {4, 12}, {1, 2}},
      {"stencil_row", 0, "list", {4, 12}, {0, 2}},
      {"random", 402, "list", {24, 32}, {0, 2, 8}},
      {"random", 403, "sdc", {16, 32}, {0, 1, 4}},
  };
  return all;
}

constexpr int kWaves = 4;
constexpr int kRandomOps = 400;
/// Arrival orders per wave; iterations cycle through them, and the
/// stream must not depend on which one arrived.
constexpr int kPermutations = 4;

// Clock windows: wave 2 overlaps wave 1 in two clocks, wave 3 overlaps
// wave 1 in one, wave 4 repeats wave 3's and extends it.
const double kWindows[kWaves][3] = {
    {1500, 1600, 1900}, {1600, 1900, 2100}, {1500, 1800, 2000}, {1800, 2000, 2100}};

std::string job_json(std::int64_t id, const Design& d, int wave) {
  hls::JsonWriter w;
  w.begin_object();
  w.key("id"), w.value(id);
  if (d.workload[0] == '\0') {
    w.key("source"), w.value(kFigure1Source);
  } else {
    w.key("workload"), w.value(d.workload);
  }
  if (d.random_seed != 0) {
    w.key("random_seed"), w.value(d.random_seed);
    w.key("random_ops"), w.value(kRandomOps);
  }
  w.key("backend"), w.value(d.backend);
  w.key("grid");
  w.begin_object();
  w.key("tclk_ps");
  w.begin_array();
  for (const double t : kWindows[wave]) w.value(t);
  w.end_array();
  w.key("latency");
  w.begin_array();
  for (const int l : d.latency) w.value(l);
  w.end_array();
  w.key("ii");
  w.begin_array();
  for (const int ii : d.ii) w.value(ii);
  w.end_array();
  w.end_object();
  w.end_object();
  return w.str();
}

struct Wave {
  std::vector<std::int64_t> ids;
  std::vector<std::string> texts;  ///< one per arrival order
};

std::vector<Wave> make_inputs(std::uint64_t seed) {
  std::vector<Wave> waves(kWaves);
  const std::size_t half = designs().size() / 2;
  for (int w = 0; w < kWaves; ++w) {
    std::vector<std::string> jobs;
    for (std::size_t k = 0; k < designs().size(); ++k) {
      const std::size_t d = w % 2 == 0 ? k : (k + half) % designs().size();
      const std::int64_t id = w * 100 + static_cast<std::int64_t>(k);
      waves[w].ids.push_back(id);
      jobs.push_back(job_json(id, designs()[d], w));
    }
    hls::Rng rng(seed * 7919 + static_cast<std::uint64_t>(w));
    for (int p = 0; p < kPermutations; ++p) {
      for (std::size_t i = jobs.size() - 1; i > 0; --i) {
        const auto j = rng.uniform(0, static_cast<std::int64_t>(i));
        std::swap(jobs[i], jobs[static_cast<std::size_t>(j)]);
      }
      std::string text = "[";
      for (std::size_t i = 0; i < jobs.size(); ++i) text += (i ? ",\n" : "\n") + jobs[i];
      waves[w].texts.push_back(text + "\n]");
    }
  }
  return waves;
}

struct Line {
  std::string text;
  Clock::time_point at;
};

}  // namespace

Output run_serve_mixed(const Args& args, Tracer* tracer) {
  Output out;
  EndToEnd e2e;
  Counters layers;
  const Clock::time_point setup0 = Clock::now();
  const std::vector<Wave> waves = make_inputs(args.seed);
  e2e.setup_s.push_back(seconds_between(setup0, Clock::now()));

  struct Served {
    std::vector<std::vector<Line>> lines;
    std::vector<Clock::time_point> submitted;
    /// The time from the server's start to the first stream line, between
    /// each line and the next (across waves too), and from the last line
    /// to the server's shutdown. The server works in rounds behind
    /// barriers and emits each round's lines in a fixed order after it
    /// (see serve/server.hpp), so the work between two given lines is the
    /// same in every iteration: a round, or the formatting of one line.
    std::vector<double> parts_s;
    double seconds = 0;
    hls::serve::ServeStats stats;
  };
  auto serve_once = [&](std::int64_t request, std::size_t permutation) {
    Served s;
    s.lines.resize(kWaves);
    s.submitted.resize(kWaves);
    const Clock::time_point t0 = Clock::now();
    Clock::time_point cut = t0;
    auto end_part = [&](Clock::time_point now) {
      s.parts_s.push_back(seconds_between(cut, now));
      cut = now;
    };
    {
      auto root = tracer->span("bench.iteration", request);
      hls::serve::ServerOptions options;
      options.threads = kThreads;
      hls::serve::Server server(options);
      for (int w = 0; w < kWaves; ++w) {
        std::vector<std::string> errors;
        s.submitted[w] = Clock::now();
        std::size_t queued = 0;
        {
          auto span = tracer->span("serve.submit", request);
          queued = server.submit_text(waves[w].texts[permutation], &errors);
        }
        if (queued != waves[w].ids.size()) {
          out.failures.unexpected_code += waves[w].ids.size() - queued;
          for (const std::string& e : errors) out.notes.push_back("rejected job: " + e);
        }
        auto span = tracer->span("serve.drain", request);
        server.drain([&](const std::string& line) {
          const Clock::time_point now = Clock::now();
          s.lines[w].push_back({line, now});
          end_part(now);
        });
      }
      s.stats = server.stats();
    }
    end_part(Clock::now());
    s.seconds = seconds_between(t0, Clock::now());
    return s;
  };
  struct Checked {
    std::vector<std::vector<StreamLine>> parsed;  ///< per wave
    std::string stream;
    std::size_t points = 0;
  };
  auto check = [&](const Served& s) {
    Checked c;
    for (int w = 0; w < kWaves; ++w) {
      std::vector<std::string> texts;
      for (const Line& l : s.lines[w]) {
        texts.push_back(l.text);
        c.stream += l.text;
        c.stream += '\n';
      }
      c.parsed.push_back(check_stream(texts, waves[w].ids, &out.failures));
      for (const StreamLine& l : c.parsed.back()) {
        if (l.kind == StreamLine::Kind::kPoint) ++c.points;
      }
    }
    out.attempted += c.points;
    return c;
  };

  // An untimed first iteration warms the caches and is the reference every
  // timed iteration's stream must equal byte for byte, whatever order its
  // jobs arrived in.
  const Served warm = serve_once(kVerifyRequest, 0);
  const Checked reference = check(warm);
  const hls::serve::ServeStats& stats = warm.stats;
  e2e.points_per_iteration = reference.points;
  // Part j ends with the iteration's j-th stream line. A point's or job's
  // latency runs from its wave's first part (which holds the submit) to its
  // point or done line.
  std::size_t line = 0;
  for (int w = 0; w < kWaves; ++w) {
    const std::size_t first = line;
    for (const StreamLine& l : reference.parsed[w]) {
      if (l.kind == StreamLine::Kind::kPoint) e2e.point_parts.push_back({first, line});
      if (l.kind == StreamLine::Kind::kDone) e2e.job_parts.push_back({first, line});
      ++line;
    }
  }
  std::vector<double> first_line_ms;
  closed_loop(args, tracer, 3, [&](int i) {
    sample_setup(tracer, &e2e.setup_s, [&] { return make_inputs(args.seed); });
    const Served s = serve_once(i, static_cast<std::size_t>(i + 1) % kPermutations);
    const Checked c = check(s);
    for (int w = 0; w < kWaves; ++w) {
      std::set<std::int64_t> seen;
      for (std::size_t k = 0; k < c.parsed[w].size(); ++k) {
        if (!seen.insert(c.parsed[w][k].job).second) continue;
        first_line_ms.push_back(seconds_between(s.submitted[w], s.lines[w][k].at) * 1e3);
      }
    }
    e2e.iterations.push_back({s.seconds, s.parts_s, {}});
    if (c.stream != reference.stream) {
      ++out.failures.nondeterministic;
      out.notes.push_back("iteration " + std::to_string(i) + " stream differs from the first");
    }
  });
  e2e.peak_rss_mb = peak_rss_mb();

  // Untimed rebuild of every distinct feasible point (every distinct point,
  // in the traced run, where this is the serial cold replay that splits
  // the opaque drain into layers): same QoR as the stream, and a machine
  // that co-simulates equal to the interpreter.
  const std::int64_t request = args.trace ? kReplayRequest : kVerifyRequest;
  struct Compiled {
    hls::ir::Module original;
    hls::ir::Stimulus stimulus;
    std::optional<FlowSession> session;
  };
  std::map<std::string, Compiled> sessions;
  std::set<std::string> rebuilt;
  std::map<std::string, int> unexpected;  ///< failure -> points, first iteration
  for (int w = 0; w < kWaves; ++w) {
    std::vector<hls::serve::JobRequest> jobs;
    std::vector<std::string> errors;
    hls::serve::parse_jobs(waves[w].texts[0], &jobs, &errors);
    std::map<std::int64_t, const hls::serve::JobRequest*> by_id;
    for (const hls::serve::JobRequest& j : jobs) by_id[j.id] = &j;
    for (const StreamLine& l : reference.parsed[w]) {
      if (l.kind != StreamLine::Kind::kPoint) continue;
      if (l.feasible) e2e.qor.add(l.area, l.delay_ns, l.power_mw);
      const auto job = by_id.find(l.job);
      if (job == by_id.end() || l.point < 0 ||
          static_cast<std::size_t>(l.point) >= job->second->points.size()) {
        ++out.failures.stream_malformed;
        continue;
      }
      const hls::serve::JobRequest& req = *job->second;
      const hls::core::ExploreConfig& cfg = req.points[static_cast<std::size_t>(l.point)];
      const std::string spec = hls::serve::spec_key(req);
      if (!l.feasible && classify_failure(l.failure) == Outcome::kFailed) {
        ++unexpected[(req.source.empty() ? spec : "inline .hls source") + ": " + l.failure];
      }
      if (!l.feasible && !args.trace) continue;
      if (!rebuilt.insert(spec + '\x1e' + hls::core::explore_chain_key(cfg) + '\x1e' +
                          std::to_string(cfg.tclk_ps))
               .second) {
        continue;
      }
      try {
        Compiled& c = sessions[spec];
        if (!c.session) {
          hls::workloads::Workload design;
          std::string error;
          bool resolved = false;
          {
            auto span = tracer->span("frontend.parse", request);
            resolved = hls::serve::resolve_workload(req, &design, &error);
          }
          if (!resolved) throw std::runtime_error(error);
          c.original = design.module;
          c.stimulus = make_stimulus(design.module, args.seed ^ std::hash<std::string>{}(spec),
                                     kCosimIterations);
          auto span = tracer->span("core.compile", request);
          c.session.emplace(std::move(design));
        }
        const StagedRun run = run_stages(*c.session, flow_options(cfg), tracer, request);
        const hls::core::FlowResult& r = run.flow;
        add_run(r, &layers);
        const PointPrint streamed(l.feasible, l.failure, 0, l.area, l.delay_ns, l.power_mw);
        if (!print_of(run).same_result(streamed)) {
          ++out.failures.rebuild_mismatch;
          out.notes.push_back("rebuild differs: " + spec.substr(0, 40) + " @" +
                              std::to_string(cfg.tclk_ps));
        }
        if (r.success) {
          auto span = tracer->span("rtl.cosim", kVerifyRequest);
          std::string detail;
          if (!cosim_matches(c.original, *r.module, r.machine, c.stimulus, &detail)) {
            ++out.failures.cosim_mismatch;
            out.notes.push_back("cosim mismatch: " + spec.substr(0, 40) + ": " + detail);
          }
        }
      } catch (const std::exception& e) {
        ++out.failures.crash;
        out.notes.push_back(std::string("rebuild crashed: ") + e.what());
      }
    }
  }
  for (const auto& [what, n] : unexpected) {
    out.notes.push_back(hls::strf("unexpected failure x", n, ": ", what));
  }
  out.notes.push_back("serve: " + stats.to_json());

  if (!args.trace) {
    out.metrics = end_to_end_metrics(e2e, out.attempted, out.failures, &out.notes);
    return out;
  }
  add_traced_run(tracer->spans(), e2e.iteration_seconds(), &layers);
  layers["serve.first_line_ms"] = median(first_line_ms);
  layers["serve.session_hits"] = static_cast<double>(stats.session_cache_hits);
  layers["serve.session_lookups"] =
      static_cast<double>(stats.session_cache_hits + stats.sessions_compiled);
  layers["serve.trace_exact_hits"] = static_cast<double>(stats.trace_exact_hits);
  layers["serve.trace_lookups"] = static_cast<double>(stats.trace_lookups);
  layers["serve.passes"] = static_cast<double>(stats.total_passes);
  layers["serve.points"] = static_cast<double>(stats.points);
  layers["serve.rounds"] = static_cast<double>(stats.rounds);
  layers["serve.stream_bytes"] = static_cast<double>(reference.stream.size());
  out.metrics = per_layer_metrics(layers);
  return out;
}

}  // namespace perfbench
