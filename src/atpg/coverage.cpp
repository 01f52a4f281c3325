#include "atpg/coverage.h"

#include <memory>

#include "common/executor.h"
#include "common/rng.h"

namespace m3dfl::atpg {

std::vector<InjectedFault> enumerate_tdf_faults(
    const netlist::SiteTable& sites) {
  std::vector<InjectedFault> faults;
  faults.reserve(sites.size() * 2);
  for (netlist::SiteId s = 0; s < sites.size(); ++s) {
    faults.push_back({s, FaultPolarity::kSlowToRise});
    faults.push_back({s, FaultPolarity::kSlowToFall});
  }
  return faults;
}

std::vector<InjectedFault> enumerate_stuck_at_faults(
    const netlist::SiteTable& sites) {
  std::vector<InjectedFault> faults;
  faults.reserve(sites.size() * 2);
  for (netlist::SiteId s = 0; s < sites.size(); ++s) {
    faults.push_back({s, FaultPolarity::kStuckAt0});
    faults.push_back({s, FaultPolarity::kStuckAt1});
  }
  return faults;
}

namespace {

/// Below this many faults a detection sweep runs inline (auto thread
/// count): `tiny`'s ~2K faults take about a millisecond.
constexpr std::size_t kSerialFaults = 1 << 15;
/// Largest chunk a shard claims at once; fault costs vary by cone size, so
/// chunks stay small enough to balance (m3d100k: ~400 chunks).
constexpr std::size_t kMaxFaultChunk = 2048;

}  // namespace

std::vector<std::uint8_t> detect_faults(sim::FaultSimulator& fsim,
                                        std::span<const InjectedFault> faults,
                                        std::size_t num_threads) {
  std::vector<std::uint8_t> detected(faults.size(), 0);
  const std::size_t shards =
      sweep_shards(num_threads, faults.size(), kSerialFaults);
  // Shard 0 runs on `fsim`; every other shard clones a workspace on its own
  // worker at its first chunk (clone() only reads the shared core), so the
  // transient workspaces live in the workers' malloc arenas, not among the
  // design's long-lived blocks. The netlist's lazy caches are warmed before
  // the fan-out (they are unsynchronized).
  std::vector<std::unique_ptr<sim::FaultSimulator>> clones(shards);
  if (shards > 1) {
    const netlist::Netlist& nl = fsim.core().arena().netlist();
    nl.topo_order();
    nl.levels();
    nl.depth();
  }
  auto sweep = [&](std::size_t shard, std::size_t lo, std::size_t hi) {
    std::unique_ptr<sim::FaultSimulator>& own = clones[shard];
    if (shard > 0 && !own) own = fsim.clone();
    sim::FaultSimulator& sim = shard == 0 ? fsim : *own;
    for (std::size_t i = lo; i < hi; ++i) {
      detected[i] = sim.detects(faults[i]) ? 1 : 0;
    }
  };
  for_each_chunk(shards, faults.size(), kMaxFaultChunk, "fault_drop", sweep);
  return detected;
}

CoverageResult measure_tdf_coverage(sim::FaultSimulator& fsim,
                                    const netlist::SiteTable& sites,
                                    std::size_t sample_limit,
                                    std::uint64_t seed) {
  std::vector<InjectedFault> faults = enumerate_tdf_faults(sites);
  if (sample_limit > 0 && sample_limit < faults.size()) {
    Rng rng(seed);
    rng.shuffle(faults);
    faults.resize(sample_limit);
  }
  CoverageResult result;
  result.num_faults = faults.size();
  for (std::uint8_t d : detect_faults(fsim, faults)) {
    result.detected += d;
  }
  return result;
}

}  // namespace m3dfl::atpg
