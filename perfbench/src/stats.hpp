// Summary statistics for the benchmark's timings and QoR figures.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q% of the
/// samples at or below it (q in (0, 100]). 0 for an empty set.
double percentile(std::vector<double> samples, double q);

/// The 50th nearest-rank percentile.
double median(std::vector<double> samples);

/// How many of `n` samples lie strictly beyond the q-th nearest-rank
/// percentile. A percentile is only worth reporting with ten or more.
std::size_t samples_beyond(std::size_t n, double q);

/// Element i of the result is the smallest element i among `rows` (rows
/// shorter than i + 1 are skipped); the result is as long as the longest
/// row. Used to take each part of a closed-loop iteration at its fastest.
std::vector<double> minimum_each(const std::vector<std::vector<double>>& rows);

/// Geometric mean of positive values; 0 for an empty set.
double geomean(const std::vector<double>& values);

}  // namespace perfbench
