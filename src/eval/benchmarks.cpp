#include "eval/benchmarks.h"

#include <cassert>
#include <chrono>
#include <map>
#include <mutex>

#include "common/rng.h"
#include "obs/trace.h"

namespace m3dfl::eval {

using netlist::GeneratorParams;
using netlist::Netlist;

const char* config_name(Config c) {
  switch (c) {
    case Config::kSyn1: return "Syn-1";
    case Config::kTPI: return "TPI";
    case Config::kSyn2: return "Syn-2";
    case Config::kPar: return "Par";
    case Config::kRandomPart: return "Rand";
  }
  return "?";
}

std::vector<Config> eval_configs() {
  return {Config::kSyn1, Config::kTPI, Config::kSyn2, Config::kPar};
}

BenchmarkSpec aes_spec() {
  BenchmarkSpec s;
  s.name = "aes";
  s.gen.num_logic_gates = 1600;
  s.gen.num_scan_cells = 144;
  s.gen.num_primary_inputs = 16;
  s.gen.num_levels = 13;
  s.gen.buffer_fraction = 0.10;
  s.gen.buffer_chain_len = 1;
  s.gen.xor_fraction = 0.22;  // Crypto datapaths are XOR-rich.
  s.gen.locality = 5;
  s.gen.seed = 0xae5'0001;
  s.num_chains = 40;
  s.num_patterns = 160;
  s.max_topoff_patterns = 512;
  s.diag.max_candidates = 32;
  s.diag.keep_score_ratio = 0.50;
  s.diag.min_score = 0.22;
  s.diag.single_fault_relax = 0.80;
  s.seed = 0xae5'1111;
  return s;
}

BenchmarkSpec tate_spec() {
  BenchmarkSpec s;
  s.name = "tate";
  s.gen.num_logic_gates = 2400;
  s.gen.num_scan_cells = 192;
  s.gen.num_primary_inputs = 12;
  s.gen.num_levels = 15;
  s.gen.buffer_fraction = 0.12;
  s.gen.buffer_chain_len = 1;
  s.gen.xor_fraction = 0.18;
  s.gen.locality = 6;
  s.gen.seed = 0x7a7e'0001;
  s.num_chains = 60;
  s.num_patterns = 192;
  s.max_topoff_patterns = 640;
  s.diag.max_candidates = 32;
  s.diag.keep_score_ratio = 0.50;
  s.diag.min_score = 0.22;
  s.diag.single_fault_relax = 0.80;
  s.seed = 0x7a7e'1111;
  return s;
}

BenchmarkSpec netcard_spec() {
  BenchmarkSpec s;
  s.name = "netcard";
  s.gen.num_logic_gates = 3200;
  s.gen.num_scan_cells = 288;
  s.gen.num_primary_inputs = 16;
  s.gen.num_levels = 17;
  // Heavy buffering + low XOR share => large fault-equivalence classes and
  // poor diagnostic resolution, reproducing the paper's hardest benchmark.
  s.gen.buffer_fraction = 0.34;
  s.gen.buffer_chain_len = 6;
  s.gen.xor_fraction = 0.06;
  s.gen.wide_gate_fraction = 0.15;
  s.gen.locality = 8;
  s.gen.seed = 0x0e7c'0001;
  s.num_chains = 80;
  s.num_patterns = 256;
  s.max_topoff_patterns = 768;
  s.diag.max_candidates = 64;
  s.diag.keep_score_ratio = 0.25;
  s.diag.min_score = 0.08;
  s.diag.single_fault_relax = 0.50;
  s.seed = 0x0e7c'1111;
  return s;
}

BenchmarkSpec leon3mp_spec() {
  BenchmarkSpec s;
  s.name = "leon3mp";
  s.gen.num_logic_gates = 4200;
  s.gen.num_scan_cells = 352;
  s.gen.num_primary_inputs = 16;
  s.gen.num_levels = 19;
  s.gen.buffer_fraction = 0.22;
  s.gen.buffer_chain_len = 5;
  s.gen.xor_fraction = 0.10;
  s.gen.locality = 7;
  s.gen.seed = 0x1e0'30001;
  s.num_chains = 80;
  s.num_patterns = 256;
  s.max_topoff_patterns = 896;
  s.diag.max_candidates = 48;
  s.diag.keep_score_ratio = 0.30;
  s.diag.min_score = 0.10;
  s.diag.single_fault_relax = 0.55;
  s.seed = 0x1e0'31111;
  return s;
}

std::vector<BenchmarkSpec> all_benchmark_specs() {
  return {aes_spec(), tate_spec(), netcard_spec(), leon3mp_spec()};
}

BenchmarkSpec tiny_spec() {
  BenchmarkSpec s;
  s.name = "tiny";
  s.gen.num_logic_gates = 260;
  s.gen.num_scan_cells = 40;
  s.gen.num_primary_inputs = 6;
  s.gen.num_levels = 8;
  s.gen.buffer_fraction = 0.15;
  s.gen.seed = 0x71417;
  s.num_chains = 10;
  s.num_patterns = 96;
  s.max_topoff_patterns = 128;
  s.diag.max_candidates = 24;
  s.seed = 0x71418;
  return s;
}

BenchmarkSpec paper_scale_spec(std::uint32_t num_logic_gates,
                               std::uint64_t seed) {
  BenchmarkSpec s;
  s.name = "m3d" + std::to_string(num_logic_gates / 1000) + "k";
  s.gen.num_logic_gates = num_logic_gates;
  // Paper-like flop density (~1 scan cell per 24 gates) keeps scan-out
  // responses proportional to design size without making the output space
  // dominate memory.
  s.gen.num_scan_cells = std::max<std::uint32_t>(256, num_logic_gates / 24);
  s.gen.num_primary_inputs = 64;
  s.gen.num_levels = 32;
  s.gen.buffer_fraction = 0.18;
  s.gen.buffer_chain_len = 3;
  s.gen.xor_fraction = 0.12;
  s.gen.wide_gate_fraction = 0.22;
  s.gen.locality = 8;
  s.gen.column_radius = 0.06;
  s.gen.rent_exponent = 0.65;
  s.gen.seed = derive_seed(seed, num_logic_gates);
  s.num_chains = 256;
  s.compaction_ratio = 20;
  // Reduced pattern budget, no deterministic top-off: the subject under
  // test at this scale is the partitioned campaign + out-of-core
  // dictionary, not ATPG closure.
  s.num_patterns = 64;
  s.max_topoff_patterns = 0;
  s.diag.max_candidates = 48;
  s.diag.keep_score_ratio = 0.30;
  s.diag.min_score = 0.10;
  s.diag.single_fault_relax = 0.55;
  s.seed = derive_seed(seed, 0x5ca1e);
  return s;
}

BenchmarkSpec m3d100k_spec() { return paper_scale_spec(100'000); }
BenchmarkSpec m3d338k_spec() { return paper_scale_spec(338'000); }

diag::Diagnoser Design::make_diagnoser(bool multifault) const {
  diag::DiagnoserOptions opts = spec.diag;
  opts.multifault = multifault;
  diag::Diagnoser d(nl, sites, scan, opts);
  d.bind(*fsim);
  return d;
}

std::unique_ptr<Design> build_design(const BenchmarkSpec& spec, Config config,
                                     std::uint64_t partition_seed) {
  M3DFL_OBS_SPAN(span, "design.build");
  auto d = std::make_unique<Design>();
  d->spec = spec;
  d->config = config;

  // 1. "Synthesis": the base 2D netlist, shared by every configuration of
  // the benchmark, then transformed per configuration.
  Netlist base;
  {
    M3DFL_OBS_SPAN(netlist_span, "design.netlist");
    base = netlist::generate_netlist(spec.gen);
    switch (config) {
      case Config::kSyn2:
        base = netlist::resynthesize(base, derive_seed(spec.seed, 21));
        break;
      case Config::kTPI:
        base = netlist::insert_test_points(base, 0.01,
                                           derive_seed(spec.seed, 22));
        break;
      default:
        break;
    }
  }

  // 2. 3D partitioning + MIV insertion.
  {
    M3DFL_OBS_SPAN(partition_span, "design.partition");
    part::PartitionOptions popts;
    popts.seed = derive_seed(spec.seed, 31 + partition_seed);
    switch (config) {
      case Config::kPar:
        popts.algo = part::PartitionAlgo::kGreedyGain;
        break;
      case Config::kRandomPart:
        popts.algo = part::PartitionAlgo::kRandom;
        break;
      default:
        popts.algo = part::PartitionAlgo::kMinCut;
        break;
    }
    const part::PartitionResult part2d = part::partition_netlist(base, popts);
    part::MivInsertionResult m3d = part::insert_mivs(base, part2d);
    d->nl = std::move(m3d.netlist);
    d->sites = netlist::SiteTable(d->nl);
    d->part.tier_of_gate.assign(d->nl.num_gates(), netlist::Tier::kBottom);
    for (netlist::GateId g = 0; g < d->nl.num_gates(); ++g) {
      d->part.tier_of_gate[g] = d->nl.gate(g).tier;
    }
    part::update_cut_stats(d->nl, d->part);
  }

  // 3. Scan + TDF pattern generation (regenerated per configuration, as in
  // the paper's flow). The design's one arena is built here: ATPG's
  // fault-dropping passes and the simulation core share it, and with
  // enhanced scan ATPG hands back the core of the final pattern set.
  std::shared_ptr<const sim::bitpar::NetlistArena> arena;
  {
    M3DFL_OBS_SPAN(atpg_span, "design.atpg");
    arena = std::make_shared<const sim::bitpar::NetlistArena>(d->nl, d->sites);
    d->scan = atpg::ScanConfig::make(
        static_cast<std::uint32_t>(d->nl.num_outputs()), spec.num_chains,
        spec.compaction_ratio);
    atpg::PatternGenOptions pgen;
    pgen.num_patterns = spec.num_patterns;
    pgen.seed =
        derive_seed(spec.seed, 41 + static_cast<std::uint64_t>(config));
    if (spec.enhanced_scan) {
      atpg::TdfPatternPair pair = atpg::generate_tdf_patterns_with_topoff(
          arena, d->sites, pgen, spec.max_topoff_patterns);
      d->patterns = std::move(pair.v1);
      d->patterns_v2 = std::move(pair.v2);
      d->core = std::move(pair.core);
      d->atpg_coverage = pair.coverage;
      d->test_coverage = pair.test_coverage;
      d->num_topoff_patterns = pair.num_topoff;
    } else {
      d->patterns = atpg::generate_tdf_patterns(d->nl, pgen);
    }
  }

  // 4. Good-machine simulation (launch-off-capture only; enhanced scan
  // took its core from ATPG) and the design's simulator workspace.
  {
    M3DFL_OBS_SPAN(core_span, "design.core");
    if (!d->core) {
      d->core = std::make_shared<const sim::SimCore>(
          arena, sim::simulate_launch_off_capture(d->nl, d->patterns));
    }
    d->fsim = std::make_unique<sim::FaultSimulator>(d->core);
  }

  // 5. Heterogeneous graph with its transitions bound (feature
  // construction; timed for Table IX).
  {
    M3DFL_OBS_SPAN(graph_span, "design.graph");
    const auto t0 = std::chrono::steady_clock::now();
    d->graph = std::make_unique<graphx::HeteroGraph>(d->nl, d->sites);
    d->graph->bind_transitions(*d->core);
    const auto t1 = std::chrono::steady_clock::now();
    d->graph_build_seconds = std::chrono::duration<double>(t1 - t0).count();
  }

  assert(d->nl.validate().empty());
  return d;
}

Design& cached_design(const BenchmarkSpec& spec, Config config,
                      std::uint64_t partition_seed) {
  static std::mutex cache_mu;
  static std::map<std::string, std::unique_ptr<Design>> cache;
  std::string key = spec.name;
  key += '/';
  key += config_name(config);
  key += '/';
  key += std::to_string(partition_seed);
  key += '/';
  key += std::to_string(spec.gen.num_logic_gates);
  key += '/';
  key += std::to_string(spec.num_patterns);
  key += '/';
  key += std::to_string(spec.max_topoff_patterns);
  key += '/';
  key += std::to_string(spec.seed);
  // Held across the build: a design is only ever constructed once, and a
  // second caller racing for the same key blocks until it exists. Designs
  // are immutable after build, so returned references need no lock.
  std::lock_guard<std::mutex> lock(cache_mu);
  auto [it, inserted] = cache.try_emplace(std::move(key));
  if (inserted) {
    it->second = build_design(spec, config, partition_seed);
  }
  return *it->second;
}

}  // namespace m3dfl::eval
