#include "classify.hpp"

#include "support/json.hpp"

namespace perfbench {

bool expected_infeasibility(std::string_view stage, std::string_view code) {
  if (stage == "schedule") return code == "infeasible" || code == "no_feasible_ii";
  return stage == "explore" && code == "dominated";
}

Outcome classify_failure(std::string_view failure) {
  if (failure.empty()) return Outcome::kFeasible;
  if (failure.front() != '[') return Outcome::kFailed;
  const std::size_t slash = failure.find('/');
  const std::size_t close = failure.find(']');
  if (slash == std::string_view::npos || close == std::string_view::npos || slash > close) {
    return Outcome::kFailed;
  }
  const std::string_view stage = failure.substr(1, slash - 1);
  const std::string_view code = failure.substr(slash + 1, close - slash - 1);
  return expected_infeasibility(stage, code) ? Outcome::kInfeasible : Outcome::kFailed;
}

std::string Failures::to_json() const {
  hls::JsonWriter w;
  w.begin_object();
  w.key("crash"), w.value(crash);
  w.key("cosim_mismatch"), w.value(cosim_mismatch);
  w.key("unexpected_code"), w.value(unexpected_code);
  w.key("stream_malformed"), w.value(stream_malformed);
  w.key("missing_done"), w.value(missing_done);
  w.key("nondeterministic"), w.value(nondeterministic);
  w.key("rebuild_mismatch"), w.value(rebuild_mismatch);
  w.end_object();
  return w.str();
}

}  // namespace perfbench
