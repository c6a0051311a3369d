// Functional check of a generated machine: cycle-accurate RTL simulation
// against the independent untimed interpreter (ir::interpret) run on the
// design as it was before the optimizer and scheduler touched it.
#pragma once

#include <cstdint>
#include <string>

#include "ir/interp.hpp"
#include "rtl/fsmd.hpp"

namespace perfbench {

/// Per-iteration values for every input port of `m`, drawn from `seed`
/// and clamped to each port's type. Equal seeds give equal stimulus.
hls::ir::Stimulus make_stimulus(const hls::ir::Module& m, std::uint64_t seed, int iterations);

/// True when simulating `machine` (built from `scheduled`) writes the
/// same values to the same ports as interpreting `reference`, and at
/// least one value is written. On false, `detail` says why. Exceptions
/// from either side count as a mismatch.
bool cosim_matches(const hls::ir::Module& reference, const hls::ir::Module& scheduled,
                   const hls::rtl::ModuleMachine& machine, const hls::ir::Stimulus& stimulus,
                   std::string* detail);

}  // namespace perfbench
