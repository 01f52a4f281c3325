#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/fault_sim.h"

namespace m3dfl::atpg {

using sim::FaultPolarity;
using sim::InjectedFault;

/// Enumerates the full TDF fault list: slow-to-rise and slow-to-fall at
/// every fault site (every gate pin plus every MIV).
std::vector<InjectedFault> enumerate_tdf_faults(
    const netlist::SiteTable& sites);

/// Enumerates the classic stuck-at fault list: SA0 and SA1 at every site.
std::vector<InjectedFault> enumerate_stuck_at_faults(
    const netlist::SiteTable& sites);

struct CoverageResult {
  std::size_t num_faults = 0;
  std::size_t detected = 0;
  double coverage() const {
    return num_faults ? static_cast<double>(detected) / num_faults : 0.0;
  }
};

/// The atpg module's one fault-detection loop: flags[i] is 1 iff faults[i]
/// produces at least one miscompare under the pattern set bound to `fsim`
/// (the early-exit detects() path). The list is cut into chunks that
/// sweep_shards(num_threads, ...) workspaces claim dynamically: `fsim` and
/// clones over its core, about 3 MB each on m3d100k. 0 threads means the
/// hardware's count, inline below a few ten thousand faults. Every fault is
/// simulated on its own, so the flags are the same at any thread count.
std::vector<std::uint8_t> detect_faults(sim::FaultSimulator& fsim,
                                        std::span<const InjectedFault> faults,
                                        std::size_t num_threads = 0);

/// Measures TDF coverage of the pattern set bound to `fsim` through
/// detect_faults(). If sample_limit > 0, a deterministic random sample of
/// that many faults is measured instead of the full list (statistical fault
/// sampling, the standard practice for large designs).
CoverageResult measure_tdf_coverage(sim::FaultSimulator& fsim,
                                    const netlist::SiteTable& sites,
                                    std::size_t sample_limit = 0,
                                    std::uint64_t seed = 1);

}  // namespace m3dfl::atpg
