// In-memory span recording for the traced run, written out at exit as a
// Chrome trace-event file (open it in Perfetto or chrome://tracing).
//
// Spans are recorded by the benchmark around its calls into the library,
// never inside the library. A span is named "<layer>.<call>" after the
// src/ module it enters (core, sched, rtl, synth, frontend, serve) or
// "bench.<phase>" for the benchmark's own loop. Spans nest strictly and
// are recorded from one thread only.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0;  ///< since the tracer was created
  double dur_us = 0;
  std::uint32_t id = 0;      ///< 1-based
  std::uint32_t parent = 0;  ///< enclosing span's id; 0 at the root
  std::int64_t request = -1;  ///< shared by the spans of one iteration
  std::string detail;         ///< e.g. the scheduler backend
  std::vector<std::pair<std::string, double>> counts;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Traced and untraced iterations alternate within one traced run.
  void set_enabled(bool on) { enabled_ = on; }

  /// RAII span; does nothing while the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, std::int64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void detail(std::string text);
    void count(std::string key, double value);

   private:
    Tracer* tracer_ = nullptr;  ///< null when disabled
    std::size_t index_ = 0;
  };

  Scope span(std::string_view name, std::int64_t request = -1) {
    return Scope(this, name, request);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes {"traceEvents": [...], "otherData": metadata}. Returns false
  /// when the file cannot be written.
  bool write_chrome(const std::string& path, const std::string& metadata_json) const;

 private:
  using Clock = std::chrono::steady_clock;
  double now_us() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of the enclosing spans
};

/// "sched.schedule" -> "sched".
std::string_view layer_of(std::string_view span_name);

/// Self time per layer in seconds: each span's duration minus the part
/// its child spans cover, summed over the spans of that layer.
std::map<std::string, double> layer_self_seconds(const std::vector<Span>& spans);

/// Summed duration in seconds of the spans named `name`.
double span_seconds(const std::vector<Span>& spans, std::string_view name);

}  // namespace perfbench
