// The end-to-end benchmark program (see perfbench/README.md).
//
//   hls_perfbench --workload suite-flow|explore-1600|serve-mixed --seed N
//                 --seconds S --trace 0|1 [--trace-file PATH]
//
// --trace-file is required with --trace 1.
//
// Prints the run environment, sample counts and every metric by name with
// its unit, then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, and the spans go to a Chrome trace-event file.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"
#include "support/json.hpp"

namespace {

using namespace perfbench;

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (key == "--trace-file") {
      args->trace_path = value;
    } else {
      return false;
    }
  }
  // A traced run must be told where to write its trace file.
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace &&
         (!args->trace || !args->trace_path.empty());
}

std::string env_json(const Args& args) {
  hls::JsonWriter w;
  w.begin_object();
  w.key("workload"), w.value(args.workload);
  w.key("seed"), w.value(static_cast<std::uint64_t>(args.seed));
  w.key("seconds"), w.value(args.seconds);
  w.key("trace"), w.value(args.trace);
  w.key("nproc"), w.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("threads"), w.value(kThreads);
  w.key("build_type"), w.value(PERFBENCH_BUILD_TYPE);
  w.key("compiler"), w.value(PERFBENCH_COMPILER);
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload suite-flow|explore-1600|serve-mixed --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH] (required with --trace 1)\n",
                 argv[0]);
    return 2;
  }
  Output (*run)(const Args&, Tracer*) = nullptr;
  if (args.workload == "suite-flow") run = run_suite_flow;
  if (args.workload == "explore-1600") run = run_explore_1600;
  if (args.workload == "serve-mixed") run = run_serve_mixed;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const std::string env = env_json(args);
  std::printf("{\"env\": %s}\n", env.c_str());
  std::fflush(stdout);
  Tracer tracer(args.trace);
  const Output out = run(args, &tracer);

  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const Metric& m : out.metrics) {
    std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (args.trace) {
    if (!tracer.write_chrome(args.trace_path, env)) {
      std::fprintf(stderr, "cannot write trace file %s\n", args.trace_path.c_str());
      return 1;
    }
    std::printf("# trace: %zu spans written to %s\n", tracer.spans().size(),
                args.trace_path.c_str());
  }

  hls::JsonWriter w;
  w.begin_object();
  w.key("correct"), w.value(out.failures.incorrect() == 0);
  w.key("attempted"), w.value(out.attempted);
  w.key("failed"), w.value(out.failures.total());
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : out.metrics) {
    w.key(m.name);
    w.begin_object();
    w.key("value"), w.value(m.value);
    w.key("unit"), w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
