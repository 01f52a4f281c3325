#pragma once

#include <cstdint>
#include <memory>

#include "netlist/fault_site.h"
#include "netlist/netlist.h"
#include "sim/bitpar/arena.h"
#include "sim/logic_sim.h"
#include "sim/sim_core.h"

namespace m3dfl::atpg {

/// Options of the TDF pattern generator.
struct PatternGenOptions {
  std::size_t num_patterns = 256;
  /// Per-input 1-probability weights are drawn from this many discrete
  /// levels; weighted-random generation detects random-resistant faults
  /// faster than pure uniform patterns.
  int weight_levels = 3;
  std::uint64_t seed = 1;
};

/// Generates a launch-off-capture TDF pattern set for the design.
///
/// This plays the role of the paper's commercial TDF ATPG (Tessent): it
/// produces the V1 scan-load blocks. Weighted-random generation with a
/// deterministic seed gives high transition coverage on the library's
/// benchmark netlists (Table III reports 97-99% in the paper; our
/// bench_table3 binary measures the equivalent figure for each benchmark).
sim::PatternSet generate_tdf_patterns(const netlist::Netlist& nl,
                                      const PatternGenOptions& opts);

/// An enhanced-scan TDF pattern pair (launch block V1, capture block V2).
struct TdfPatternPair {
  sim::PatternSet v1;
  sim::PatternSet v2;
  std::size_t num_random = 0;   ///< Leading weighted-random patterns.
  std::size_t num_topoff = 0;   ///< Trailing deterministic (PODEM) patterns.
  std::size_t num_untestable = 0;  ///< Faults PODEM proved untestable.
  double coverage = 0.0;        ///< Raw TDF coverage: detected / all.
  /// Test coverage in the commercial-tool sense: detected / testable
  /// (untestable faults excluded from the denominator).
  double test_coverage = 0.0;
  /// Good machine of (v1, v2) over the arena. With no top-off pattern it is
  /// the core the random-base fault-dropping pass simulated on, so the
  /// pattern set is simulated once per build.
  std::shared_ptr<const sim::SimCore> core;
};

/// Full ATPG flow: weighted-random base patterns with fault-dropping
/// simulation, then deterministic PODEM top-off targeting the undetected
/// faults (X bits random-filled so each deterministic pattern also detects
/// fortuitous faults). Stops when the fault list is exhausted, no target
/// succeeds, or max_topoff extra patterns were added. This is the stand-in
/// for the paper's commercial TDF ATPG and reaches comparable (97-99%)
/// coverage on the benchmark netlists. `arena` is the netlist's arena
/// (built over `sites`); every fault-dropping pass simulates on it, sharded
/// by detect_faults() over `num_threads` workspaces (0 = the hardware's
/// count, inline for small fault lists). The result is the same at any
/// thread count.
TdfPatternPair generate_tdf_patterns_with_topoff(
    std::shared_ptr<const sim::bitpar::NetlistArena> arena,
    const netlist::SiteTable& sites, const PatternGenOptions& opts,
    std::size_t max_topoff, std::size_t num_threads = 0);

}  // namespace m3dfl::atpg
