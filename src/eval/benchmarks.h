#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "atpg/patterns.h"
#include "atpg/scan_config.h"
#include "diagnosis/diagnoser.h"
#include "graphx/hetero_graph.h"
#include "m3d/miv.h"
#include "m3d/partition.h"
#include "netlist/fault_site.h"
#include "netlist/generators.h"
#include "netlist/transforms.h"
#include "sim/fault_sim.h"

namespace m3dfl::eval {

/// Design configurations evaluated in the paper (Sec. IV):
///  * kSyn1 — the training synthesis/partitioning flow;
///  * kTPI  — test-point-inserted netlist;
///  * kSyn2 — re-synthesized netlist (different clock target);
///  * kPar  — alternative M3D partitioning algorithm;
///  * kRandomPart — random partitioning (data augmentation only).
enum class Config : std::uint8_t { kSyn1, kTPI, kSyn2, kPar, kRandomPart };

const char* config_name(Config c);

/// All four evaluation configurations, in table order.
std::vector<Config> eval_configs();

/// Everything that defines one benchmark circuit and its test setup. The
/// four presets below stand in for the paper's AES / Tate / netcard /
/// leon3mp (see DESIGN.md "Substitutions"): sizes are scaled down ~60x but
/// the ordering and the diagnosis-difficulty profile (equivalence-class
/// size via buffer_fraction, cone depth via locality/levels) mirror the
/// paper's Table III.
struct BenchmarkSpec {
  std::string name;
  netlist::GeneratorParams gen;
  std::uint32_t num_chains = 32;
  std::uint32_t compaction_ratio = 20;
  std::size_t num_patterns = 256;
  /// Enhanced-scan test application (independently controllable launch and
  /// capture vectors). Gives the 97-99% TDF coverage the paper's
  /// commercial deterministic ATPG reaches; plain launch-off-capture with
  /// random vectors is also supported (see sim/logic_sim.h).
  bool enhanced_scan = true;
  /// Deterministic PODEM top-off budget (extra patterns appended after the
  /// random base to reach paper-level TDF coverage). 0 disables.
  std::size_t max_topoff_patterns = 512;
  diag::DiagnoserOptions diag;
  std::uint64_t seed = 1;
};

BenchmarkSpec aes_spec();
BenchmarkSpec tate_spec();
BenchmarkSpec netcard_spec();
BenchmarkSpec leon3mp_spec();
std::vector<BenchmarkSpec> all_benchmark_specs();

/// A small spec for unit/integration tests (sub-second end-to-end).
BenchmarkSpec tiny_spec();

/// Paper-scale spec: an actual-size design (the paper's benchmarks span
/// 98K–338K gates) with rent-style heavy-tailed fanout
/// (GeneratorParams::rent_exponent) and paper-like scan-chain counts.
/// Deterministic PODEM top-off is disabled and the random pattern budget is
/// reduced — at this scale the dictionary/diagnosis campaigns are the
/// subject under test, not ATPG closure. Campaigns over these specs should
/// use FaultDictionaryOptions::partition_max_gates (cone-closed region
/// sharding) and, for dictionaries, spill_path (out-of-core signatures).
BenchmarkSpec paper_scale_spec(std::uint32_t num_logic_gates,
                               std::uint64_t seed = 0x9a9e0001ull);

/// Named paper-scale presets, CLI-visible as "m3d100k" / "m3d338k".
BenchmarkSpec m3d100k_spec();
BenchmarkSpec m3d338k_spec();

/// A fully built design: M3D netlist + scan + patterns + simulation core +
/// heterogeneous graph. Heap-held and immovable once built (the core and
/// graph hold pointers into the owning struct).
struct Design {
  BenchmarkSpec spec;
  Config config = Config::kSyn1;

  netlist::Netlist nl;  ///< M3D netlist (tiers assigned, MIVs inserted).
  netlist::SiteTable sites;
  part::PartitionResult part;  ///< Tier stats of the final netlist.
  atpg::ScanConfig scan;
  sim::PatternSet patterns;    ///< Launch (V1) scan loads.
  sim::PatternSet patterns_v2; ///< Capture (V2) loads (enhanced scan only).

  /// Arena + good machine of `patterns`, built once and shared read-only
  /// by every simulator of the design (workers clone fsim over it).
  std::shared_ptr<const sim::SimCore> core;
  std::unique_ptr<sim::FaultSimulator> fsim;   ///< Workspace over `core`.
  std::unique_ptr<graphx::HeteroGraph> graph;  ///< Transitions bound.

  /// Feature-construction time (T. IX): HeteroGraph construction plus Tpat
  /// binding. The good machine it reads is ATPG's, so it is not included.
  double graph_build_seconds = 0.0;
  double atpg_coverage = 0.0;  ///< Raw TDF coverage (all faults).
  double test_coverage = 0.0;  ///< Coverage over testable faults (the
                               ///< figure commercial tools report).
  std::size_t num_topoff_patterns = 0;

  Design() = default;
  Design(const Design&) = delete;
  Design& operator=(const Design&) = delete;

  /// A diagnoser wired to this design (bound to fsim).
  diag::Diagnoser make_diagnoser(bool multifault = false) const;
};

/// Builds a design for a benchmark in a given configuration.
/// partition_seed distinguishes multiple random partitions (kRandomPart).
std::unique_ptr<Design> build_design(const BenchmarkSpec& spec, Config config,
                                     std::uint64_t partition_seed = 0);

/// Process-wide design cache: building a design (ATPG with deterministic
/// top-off, good-machine simulation, heterogeneous-graph construction) is
/// the expensive step of every experiment, and designs are immutable once
/// built, so experiment drivers share them. Keyed by (spec identity,
/// config, partition_seed). Thread-safe: lookups serialize on an internal
/// mutex (the experiment drivers now fan datagen out over worker threads),
/// and the returned reference stays valid for the process lifetime.
Design& cached_design(const BenchmarkSpec& spec, Config config,
                      std::uint64_t partition_seed = 0);

}  // namespace m3dfl::eval
