// Outcome classification behind the benchmark's error_rate.
//
// A point either succeeds, ends in an *expected* infeasibility — a result
// the design space legitimately contains — or fails. Only the last counts
// against the benchmark. The expected set is the three provable
// infeasibility codes; everything else (budget exhaustion, internal
// errors, options or compile diagnostics) is a failed operation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

enum class Outcome { kFeasible, kInfeasible, kFailed };

/// True for "[schedule/infeasible]", "[schedule/no_feasible_ii]" and
/// "[explore/dominated]" — results, not failures.
bool expected_infeasibility(std::string_view stage, std::string_view code);

/// Classifies a point from its failure text, formatted like
/// core::ExplorePoint::failure ("[stage/code] message"). Empty text means
/// the point is feasible.
Outcome classify_failure(std::string_view failure);

/// Failed operations by kind; error_rate is total() / points attempted.
struct Failures {
  std::uint64_t crash = 0;             ///< exception out of the library
  std::uint64_t cosim_mismatch = 0;    ///< RTL simulation != ir::interpret
  std::uint64_t unexpected_code = 0;   ///< diagnostic outside the expected set
  std::uint64_t stream_malformed = 0;  ///< serve line that does not parse
  std::uint64_t missing_done = 0;      ///< serve job with no done line
  std::uint64_t nondeterministic = 0;  ///< result differs between iterations
  std::uint64_t rebuild_mismatch = 0;  ///< untimed rebuild disagrees on QoR

  std::uint64_t total() const { return unexpected_code + incorrect(); }
  /// Failures that make the run's outputs wrong or missing. A diagnostic
  /// outside the expected set is still a clean, structured answer: it
  /// counts against error_rate but not against correctness.
  std::uint64_t incorrect() const {
    return crash + cosim_mismatch + stream_malformed + missing_done + nondeterministic +
           rebuild_mismatch;
  }
  std::string to_json() const;
};

}  // namespace perfbench
