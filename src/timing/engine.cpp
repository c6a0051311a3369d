#include "timing/engine.hpp"

#include <algorithm>

namespace hls::timing {

DelayTables DelayTables::prewarm(const tech::Library& lib, int max_width,
                                 int max_mux) {
  DelayTables t;
  constexpr auto kLast = static_cast<std::size_t>(tech::FuClass::kMemPort);
  t.fu_delay_ps.resize(kLast + 1);
  for (std::size_t c = 0; c <= kLast; ++c) {
    const auto cls = static_cast<tech::FuClass>(c);
    if (cls == tech::FuClass::kNone) continue;  // free ops never look up
    auto& by_width = t.fu_delay_ps[c];
    by_width.assign(static_cast<std::size_t>(max_width) + 1, -1.0);
    for (int w = 1; w <= max_width; ++w) {
      by_width[static_cast<std::size_t>(w)] = lib.fu_delay_ps(cls, w);
    }
  }
  t.mux_delay_ps.assign(static_cast<std::size_t>(max_mux) + 1, -1.0);
  for (int n = 2; n <= max_mux; ++n) {
    t.mux_delay_ps[static_cast<std::size_t>(n)] = lib.mux_delay_ps(n);
  }
  return t;
}

namespace {

const DelayTables& artisan90_delay_tables() {
  static const DelayTables tables = DelayTables::prewarm(tech::artisan90());
  return tables;
}

}  // namespace

TimingEngine::TimingEngine(const tech::Library& lib, double tclk_ps)
    : lib_(lib),
      tclk_ps_(tclk_ps),
      shared_(&lib == &tech::artisan90() ? &artisan90_delay_tables()
                                         : nullptr) {}

double TimingEngine::fu_delay_ps(tech::FuClass c, int width) {
  const auto cls = static_cast<std::size_t>(c);
  if (shared_ != nullptr && cls < shared_->fu_delay_ps.size()) {
    const auto& by_width = shared_->fu_delay_ps[cls];
    const auto sw = static_cast<std::size_t>(width);
    if (sw < by_width.size() && by_width[sw] >= 0) {
      ++cache_hits_;
      return by_width[sw];
    }
  }
  if (cls >= fu_delay_cache_.size()) fu_delay_cache_.resize(cls + 1);
  auto& by_width = fu_delay_cache_[cls];
  const auto w = static_cast<std::size_t>(width);
  if (w >= by_width.size()) by_width.resize(w + 1, kUncached);
  if (by_width[w] != kUncached) {
    ++cache_hits_;
    return by_width[w];
  }
  const double d = lib_.fu_delay_ps(c, width);
  by_width[w] = d;
  return d;
}

double TimingEngine::mux_delay_ps(int inputs) {
  const auto n = static_cast<std::size_t>(inputs);
  if (shared_ != nullptr && n < shared_->mux_delay_ps.size() &&
      shared_->mux_delay_ps[n] >= 0) {
    ++cache_hits_;
    return shared_->mux_delay_ps[n];
  }
  if (n >= mux_delay_cache_.size()) mux_delay_cache_.resize(n + 1, kUncached);
  if (mux_delay_cache_[n] != kUncached) {
    ++cache_hits_;
    return mux_delay_cache_[n];
  }
  const double d = lib_.mux_delay_ps(inputs);
  mux_delay_cache_[n] = d;
  return d;
}

double TimingEngine::output_arrival_ps(const PathQuery& q) {
  ++queries_;
  double in = 0;
  for (double a : q.operand_arrivals_ps) in = std::max(in, a);
  if (q.cls == tech::FuClass::kNone) return in;
  double t = in;
  if (q.in_mux_inputs >= 2) t += mux_delay_ps(q.in_mux_inputs);
  t += fu_delay_ps(q.cls, q.width);
  if (q.out_mux_inputs >= 2) t += mux_delay_ps(q.out_mux_inputs);
  return t;
}

double TimingEngine::register_slack_ps(double arrival_ps) const {
  return timing::register_slack_ps(arrival_ps, tclk_ps_, lib_);
}

}  // namespace hls::timing
