#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t rank(std::size_t n, double q) {
  const auto r = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const std::size_t r = rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(r - 1),
                   samples.end());
  return samples[r - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50); }

std::size_t samples_beyond(std::size_t n, double q) { return n == 0 ? 0 : n - rank(n, q); }

std::vector<double> minimum_each(const std::vector<std::vector<double>>& rows) {
  std::vector<double> out;
  for (const std::vector<double>& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i == out.size()) {
        out.push_back(row[i]);
      } else {
        out[i] = std::min(out[i], row[i]);
      }
    }
  }
  return out;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
