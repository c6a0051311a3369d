#include "cosim.hpp"

#include <algorithm>
#include <exception>

#include "rtl/sim.hpp"
#include "support/rng.hpp"

namespace perfbench {

hls::ir::Stimulus make_stimulus(const hls::ir::Module& m, std::uint64_t seed, int iterations) {
  hls::Rng rng(seed);
  hls::ir::Stimulus s;
  for (const hls::ir::Port& p : m.ports) {
    if (p.dir != hls::ir::PortDir::kIn) continue;
    // Operands beyond 16 bits only exercise wrap-around both sides
    // already share; small magnitudes keep products inside the datapath.
    const std::int64_t lo = std::max<std::int64_t>(hls::ir::type_min(p.type), -(1 << 15));
    const std::int64_t hi = std::min<std::int64_t>(hls::ir::type_max(p.type), (1 << 15) - 1);
    std::vector<std::int64_t> values;
    values.reserve(static_cast<std::size_t>(iterations));
    for (int i = 0; i < iterations; ++i) values.push_back(rng.uniform(lo, hi));
    s.set(p.name, std::move(values));
  }
  return s;
}

bool cosim_matches(const hls::ir::Module& reference, const hls::ir::Module& scheduled,
                   const hls::rtl::ModuleMachine& machine, const hls::ir::Stimulus& stimulus,
                   std::string* detail) {
  try {
    const hls::ir::InterpResult ref = hls::ir::interpret(reference, stimulus);
    const hls::rtl::SimResult sim = hls::rtl::simulate(machine, stimulus);
    if (ref.writes.empty()) {
      *detail = "the reference wrote no output";
      return false;
    }
    if (hls::ir::writes_by_port(reference, ref.writes) !=
        hls::ir::writes_by_port(scheduled, sim.writes)) {
      *detail = "output streams differ";
      return false;
    }
    return true;
  } catch (const std::exception& e) {
    *detail = std::string("exception: ") + e.what();
    return false;
  }
}

}  // namespace perfbench
