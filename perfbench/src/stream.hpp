// Parsing of the serve layer's JSON-lines result stream (docs/SERVE.md):
// per-point result lines, one done summary per job, error lines for jobs
// that never ran, and an optional stats line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "classify.hpp"

namespace perfbench {

struct StreamLine {
  enum class Kind { kPoint, kDone, kError, kStats, kMalformed };
  Kind kind = Kind::kMalformed;
  std::int64_t job = -1;
  std::int64_t point = -1;  ///< kPoint: index in the job's point list
  bool feasible = false;
  double tclk_ps = 0;
  double delay_ns = 0;
  double area = 0;
  double power_mw = 0;
  std::string failure;  ///< kPoint when infeasible; kError's message
};

StreamLine parse_stream_line(std::string_view line);

/// Checks one drained stream against the job ids that were submitted:
/// every line parses, every job has exactly one done line, and every
/// infeasible point carries an expected infeasibility code. Adds what it
/// finds to `failures` and returns the parsed lines.
std::vector<StreamLine> check_stream(const std::vector<std::string>& lines,
                                     const std::vector<std::int64_t>& job_ids,
                                     Failures* failures);

}  // namespace perfbench
