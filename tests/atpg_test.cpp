// Tests of scan configuration, pattern generation, TDF coverage
// measurement, and the PODEM deterministic test generator.

#include <gtest/gtest.h>

#include <set>

#include "atpg/coverage.h"
#include "atpg/patterns.h"
#include "atpg/podem.h"
#include "atpg/scan_config.h"
#include "netlist/generators.h"

namespace m3dfl::atpg {
namespace {

using netlist::GeneratorParams;
using netlist::Netlist;
using netlist::SiteTable;
using sim::FaultPolarity;
using sim::InjectedFault;

Netlist make_circuit(std::uint64_t seed, std::uint32_t gates = 220) {
  GeneratorParams p;
  p.num_logic_gates = gates;
  p.num_scan_cells = 20;
  p.num_levels = 8;
  p.seed = seed;
  return netlist::generate_netlist(p);
}

// --- ScanConfig ------------------------------------------------------------

TEST(ScanConfig, PartitionsOutputsAcrossChains) {
  const ScanConfig cfg = ScanConfig::make(100, 10, 5);
  EXPECT_EQ(cfg.num_chains, 10u);
  EXPECT_EQ(cfg.num_channels, 2u);
  EXPECT_EQ(cfg.chain_length, 10u);
  // Every output maps to exactly one (chain, position) and back.
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (std::uint32_t o = 0; o < 100; ++o) {
    const auto key = std::make_pair(cfg.chain_of(o), cfg.position_of(o));
    EXPECT_TRUE(seen.insert(key).second);
    EXPECT_LT(cfg.chain_of(o), cfg.num_chains);
    EXPECT_LT(cfg.position_of(o), cfg.chain_length);
  }
}

TEST(ScanConfig, OutputsOfInvertsTheMapping) {
  const ScanConfig cfg = ScanConfig::make(97, 12, 4);
  for (std::uint32_t o = 0; o < 97; ++o) {
    const auto outs =
        cfg.outputs_of(cfg.channel_of(o), cfg.position_of(o));
    EXPECT_NE(std::find(outs.begin(), outs.end(), o), outs.end());
    EXPECT_LE(outs.size(), 4u);  // At most ratio outputs per cell.
  }
}

TEST(ScanConfig, MoreChainsThanOutputsClamps) {
  const ScanConfig cfg = ScanConfig::make(5, 64, 20);
  EXPECT_LE(cfg.num_chains, 5u);
  EXPECT_GE(cfg.chain_length, 1u);
}

// --- Pattern generation ------------------------------------------------------

TEST(Patterns, DeterministicUnderSeed) {
  const Netlist nl = make_circuit(1);
  PatternGenOptions opts;
  opts.num_patterns = 100;
  opts.seed = 5;
  const sim::PatternSet a = generate_tdf_patterns(nl, opts);
  const sim::PatternSet b = generate_tdf_patterns(nl, opts);
  for (std::size_t i = 0; i < a.num_inputs(); ++i) {
    for (std::size_t w = 0; w < a.num_words(); ++w) {
      EXPECT_EQ(a.word(i, w), b.word(i, w));
    }
  }
}

TEST(Patterns, WeightedBitsAreNotDegenerate) {
  const Netlist nl = make_circuit(2);
  PatternGenOptions opts;
  opts.num_patterns = 256;
  opts.seed = 6;
  const sim::PatternSet ps = generate_tdf_patterns(nl, opts);
  std::size_t ones = 0;
  for (std::size_t i = 0; i < ps.num_inputs(); ++i) {
    for (std::size_t p = 0; p < ps.num_patterns(); ++p) {
      ones += ps.bit(i, p);
    }
  }
  const double density =
      static_cast<double>(ones) / (ps.num_inputs() * ps.num_patterns());
  EXPECT_GT(density, 0.2);
  EXPECT_LT(density, 0.8);
}

// --- Coverage ----------------------------------------------------------------

TEST(Coverage, EnumeratesBothPolaritiesPerSite) {
  const Netlist nl = make_circuit(3, 60);
  const SiteTable sites(nl);
  const auto faults = enumerate_tdf_faults(sites);
  EXPECT_EQ(faults.size(), 2 * sites.size());
}

TEST(Coverage, SamplingBoundsRespected) {
  const Netlist nl = make_circuit(4, 120);
  const SiteTable sites(nl);
  sim::FaultSimulator fsim(nl, sites);
  Rng rng(7);
  const auto v1 = sim::PatternSet::random(nl.num_inputs(), 64, rng);
  const auto v2 = sim::PatternSet::random(nl.num_inputs(), 64, rng);
  fsim.bind(v1, v2);
  const CoverageResult r = measure_tdf_coverage(fsim, sites, 100, 1);
  EXPECT_EQ(r.num_faults, 100u);
  EXPECT_LE(r.detected, r.num_faults);
  EXPECT_GE(r.coverage(), 0.0);
  EXPECT_LE(r.coverage(), 1.0);
}

// --- PODEM ---------------------------------------------------------------------

class PodemProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemProperty, GeneratedTestsActuallyDetect) {
  const Netlist nl = make_circuit(GetParam(), 300);
  const SiteTable sites(nl);
  Podem podem(nl, sites);
  Rng rng(GetParam() + 3);

  int generated = 0;
  int checked = 0;
  for (int trial = 0; trial < 60 && generated < 25; ++trial) {
    const auto site =
        static_cast<netlist::SiteId>(rng.next_below(sites.size()));
    const InjectedFault fault{site, rng.bernoulli(0.5)
                                        ? FaultPolarity::kSlowToRise
                                        : FaultPolarity::kSlowToFall};
    const Podem::Result r = podem.generate(fault);
    if (!r.success) continue;
    ++generated;

    // Build a single-pattern pair from the assignments (X -> random) and
    // verify the fault is detected by the event-driven fault simulator.
    sim::PatternSet v1(nl.num_inputs(), 1), v2(nl.num_inputs(), 1);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      const bool b1 = r.v1_inputs[i] == V3::kX ? rng.bernoulli(0.5)
                                               : r.v1_inputs[i] == V3::k1;
      const bool b2 = r.v2_inputs[i] == V3::kX ? rng.bernoulli(0.5)
                                               : r.v2_inputs[i] == V3::k1;
      v1.set_bit(i, 0, b1);
      v2.set_bit(i, 0, b2);
    }
    sim::FaultSimulator fsim(nl, sites);
    fsim.bind(v1, v2);
    std::vector<sim::Word> diff;
    EXPECT_TRUE(fsim.observed_diff(fault, diff))
        << "PODEM pattern fails to detect fault at site " << site;
    ++checked;
  }
  EXPECT_GT(generated, 10) << "PODEM success rate suspiciously low";
  EXPECT_EQ(generated, checked);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemProperty,
                         ::testing::Values(101, 102, 103, 104));

TEST(Podem, JustifiesInputStemFaults) {
  const Netlist nl = make_circuit(55, 150);
  const SiteTable sites(nl);
  Podem podem(nl, sites);
  // Input stems are the easiest targets; PODEM must handle the forced-input
  // corner (the faulty machine pins the input's value).
  int ok = 0;
  for (std::size_t i = 0; i < 10 && i < nl.num_inputs(); ++i) {
    const auto site = sites.stem_of(nl.inputs()[i]);
    const Podem::Result r =
        podem.generate({site, FaultPolarity::kSlowToRise});
    ok += r.success;
  }
  EXPECT_GE(ok, 7);
}

TEST(Podem, TopoffRaisesCoverage) {
  const Netlist nl = make_circuit(66, 400);
  const SiteTable sites(nl);
  PatternGenOptions opts;
  opts.num_patterns = 32;  // Deliberately weak random base.
  opts.seed = 9;
  const TdfPatternPair pair = generate_tdf_patterns_with_topoff(
      std::make_shared<const sim::bitpar::NetlistArena>(nl, sites), sites,
      opts, 640);
  EXPECT_GT(pair.num_topoff, 0u);
  EXPECT_EQ(pair.v1.num_patterns(), pair.v2.num_patterns());
  EXPECT_EQ(pair.v1.num_patterns(), 32 + pair.num_topoff);

  // Coverage with top-off strictly exceeds the random-only baseline.
  sim::FaultSimulator base_sim(nl, sites);
  {
    PatternGenOptions b = opts;
    auto v1 = generate_tdf_patterns(nl, b);
    b.seed = derive_seed(opts.seed, 0x5eed);
    auto v2 = generate_tdf_patterns(nl, b);
    base_sim.bind(v1, v2);
    const auto base_cov = measure_tdf_coverage(base_sim, sites);
    EXPECT_GT(pair.coverage, base_cov.coverage());
  }
  EXPECT_GT(pair.coverage, 0.78);
}

}  // namespace
}  // namespace m3dfl::atpg
