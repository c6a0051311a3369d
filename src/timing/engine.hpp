// Memoizing timing-query front end (paper Section IV.B.1: the scheduler
// "performs timing queries (whose results are cached appropriately)").
//
// Path arrival math is pure (netlist.hpp); the engine adds memoization of
// unit-delay lookups and query statistics that the profiling experiment
// (Figure 9) reports. The memo tables are dense vectors indexed by
// (class, width) and mux fan-in — the scheduler issues one of these
// lookups per candidate binding, so a tree lookup here was measurable.
#pragma once

#include <cstdint>
#include <vector>

#include "timing/netlist.hpp"

namespace hls::timing {

/// Immutable unit-delay tables: the (class, width) and mux-fanin lookups
/// every TimingEngine memoizes are identical for a given library, so the
/// built-in library's tables are prewarmed once per process and read by
/// every engine on it — concurrent explore and serve workers skip the
/// cold library lookups. Engines keep their own query/hit counters; the
/// tables are only ever read.
struct DelayTables {
  std::vector<std::vector<double>> fu_delay_ps;  ///< [class][width]; <0 = absent
  std::vector<double> mux_delay_ps;              ///< [inputs]; <0 = absent
  /// Fills the tables for widths 1..max_width and mux fan-ins 2..max_mux.
  static DelayTables prewarm(const tech::Library& lib, int max_width = 64,
                             int max_mux = 64);
};

class TimingEngine {
 public:
  /// An engine on tech::artisan90() reads the process-wide prewarmed
  /// tables (built on first use); lookups those miss, and every lookup on
  /// another library, go through the engine-local memo tables.
  TimingEngine(const tech::Library& lib, double tclk_ps);

  const tech::Library& library() const { return lib_; }
  double tclk_ps() const { return tclk_ps_; }

  /// Unit delay with memoization (one library lookup per (class, width)).
  double fu_delay_ps(tech::FuClass c, int width);
  double mux_delay_ps(int inputs);

  /// Full path query: composes operand arrivals, sharing muxes and the
  /// unit delay; counts one timing query.
  double output_arrival_ps(const PathQuery& q);

  /// Slack of registering a value arriving at `arrival_ps`.
  double register_slack_ps(double arrival_ps) const;

  std::uint64_t queries() const { return queries_; }
  std::uint64_t cache_hits() const { return cache_hits_; }

 private:
  const tech::Library& lib_;
  double tclk_ps_;
  const DelayTables* shared_ = nullptr;
  /// Dense per-class delay-by-width tables; kUncached marks empty slots
  /// (library delays are non-negative).
  static constexpr double kUncached = -1.0;
  std::vector<std::vector<double>> fu_delay_cache_;
  std::vector<double> mux_delay_cache_;
  std::uint64_t queries_ = 0;
  std::uint64_t cache_hits_ = 0;
};

}  // namespace hls::timing
