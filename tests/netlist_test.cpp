// Unit + property tests for the netlist substrate: construction, invariant
// validation, topological structure, fault-site enumeration, generators,
// and the function-preserving transforms.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>

#include "common/rng.h"
#include "netlist/fault_site.h"
#include "netlist/generators.h"
#include "netlist/netlist.h"
#include "netlist/transforms.h"
#include "sim/logic_sim.h"

namespace m3dfl::netlist {
namespace {

Netlist make_small() {
  // c = AND(a, b); d = INV(c); outputs: c (scan 0), d (scan 1).
  Netlist nl;
  const GateId a = nl.add_input();
  const GateId b = nl.add_input();
  const GateId c = nl.add_gate(GateType::kAnd, {a, b});
  const GateId d = nl.add_gate(GateType::kInv, {c});
  nl.add_output(c);
  nl.add_output(d);
  nl.set_num_scan_cells(2);
  return nl;
}

TEST(Netlist, BasicConstruction) {
  const Netlist nl = make_small();
  EXPECT_EQ(nl.num_gates(), 4u);
  EXPECT_EQ(nl.num_inputs(), 2u);
  EXPECT_EQ(nl.num_outputs(), 2u);
  EXPECT_EQ(nl.num_logic_gates(), 2u);
  EXPECT_EQ(nl.num_scan_cells(), 2u);
  EXPECT_TRUE(nl.validate().empty()) << nl.validate();
}

TEST(Netlist, FanoutMirrorsFanin) {
  const Netlist nl = make_small();
  const Gate& a = nl.gate(0);
  ASSERT_EQ(a.fanout.size(), 1u);
  EXPECT_EQ(a.fanout[0], 2u);
  const Gate& c = nl.gate(2);
  ASSERT_EQ(c.fanout.size(), 1u);
  EXPECT_EQ(c.fanout[0], 3u);
}

TEST(Netlist, TopoOrderRespectsEdges) {
  const Netlist nl = make_small();
  const auto& order = nl.topo_order();
  ASSERT_EQ(order.size(), nl.num_gates());
  std::vector<std::size_t> position(nl.num_gates());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    for (GateId d : nl.gate(g).fanin) {
      EXPECT_LT(position[d], position[g]);
    }
  }
}

TEST(Netlist, LevelsAreOnePlusMaxFanin) {
  const Netlist nl = make_small();
  const auto& lv = nl.levels();
  EXPECT_EQ(lv[0], 0u);
  EXPECT_EQ(lv[1], 0u);
  EXPECT_EQ(lv[2], 1u);
  EXPECT_EQ(lv[3], 2u);
  EXPECT_EQ(nl.depth(), 2u);
}

TEST(Netlist, InputIndexLookup) {
  const Netlist nl = make_small();
  EXPECT_EQ(nl.input_index(0), 0);
  EXPECT_EQ(nl.input_index(1), 1);
  EXPECT_EQ(nl.input_index(2), -1);
}

TEST(Netlist, ValidateCatchesArityViolation) {
  Netlist nl;
  const GateId a = nl.add_input();
  nl.add_gate(GateType::kBuf, {a});
  // Manually corrupt: XOR with one fanin.
  nl.gate(1).type = GateType::kXor;
  EXPECT_FALSE(nl.validate().empty());
}

TEST(Netlist, TypeHistogramCountsEveryGate) {
  const Netlist nl = make_small();
  const auto hist = nl.type_histogram();
  EXPECT_EQ(hist[static_cast<std::size_t>(GateType::kInput)], 2u);
  EXPECT_EQ(hist[static_cast<std::size_t>(GateType::kAnd)], 1u);
  EXPECT_EQ(hist[static_cast<std::size_t>(GateType::kInv)], 1u);
  std::size_t total = 0;
  for (auto c : hist) total += c;
  EXPECT_EQ(total, nl.num_gates());
}

// --- SiteTable -------------------------------------------------------------

TEST(SiteTable, EnumeratesEveryPin) {
  const Netlist nl = make_small();
  const SiteTable sites(nl);
  // 4 stems + 2 AND pins + 1 INV pin.
  EXPECT_EQ(sites.size(), 7u);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const SiteId stem = sites.stem_of(g);
    EXPECT_EQ(sites.site(stem).gate, g);
    EXPECT_TRUE(sites.site(stem).is_stem());
    EXPECT_EQ(sites.site(stem).driver, g);
    for (std::size_t k = 0; k < nl.gate(g).fanin.size(); ++k) {
      const SiteId br = sites.branch_of(g, static_cast<int>(k));
      EXPECT_EQ(sites.site(br).gate, g);
      EXPECT_EQ(sites.site(br).pin, static_cast<std::int16_t>(k));
      EXPECT_EQ(sites.site(br).driver, nl.gate(g).fanin[k]);
    }
  }
}

TEST(SiteTable, MivSitesMatchMivGates) {
  Netlist nl;
  const GateId a = nl.add_input();
  const GateId m = nl.add_gate(GateType::kMiv, {a});
  const GateId b = nl.add_gate(GateType::kBuf, {m});
  nl.add_output(b);
  nl.set_num_scan_cells(1);
  const SiteTable sites(nl);
  const auto mivs = sites.miv_sites(nl);
  ASSERT_EQ(mivs.size(), 1u);
  EXPECT_EQ(sites.site(mivs[0]).gate, m);
  EXPECT_TRUE(sites.is_miv_site(mivs[0], nl));
  EXPECT_FALSE(sites.is_miv_site(sites.stem_of(b), nl));
}

TEST(SiteTable, BranchTierIsReceiverTier) {
  Netlist nl;
  const GateId a = nl.add_input();
  const GateId b = nl.add_gate(GateType::kBuf, {a});
  nl.add_output(b);
  nl.set_num_scan_cells(1);
  nl.gate(a).tier = Tier::kBottom;
  nl.gate(b).tier = Tier::kTop;
  const SiteTable sites(nl);
  EXPECT_EQ(sites.tier_of(sites.stem_of(a), nl), Tier::kBottom);
  EXPECT_EQ(sites.tier_of(sites.branch_of(b, 0), nl), Tier::kTop);
}

// --- Generator properties ---------------------------------------------------

struct GenCase {
  std::uint32_t gates;
  std::uint32_t scan_cells;
  std::uint64_t seed;
};
// GoogleTest names these cases from the parameter's raw bytes; without
// padding bytes those names are the same in every build.
static_assert(std::has_unique_object_representations_v<GenCase>);

class GeneratorProperty : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorProperty, ProducesValidFullyObservableNetlist) {
  const GenCase c = GetParam();
  GeneratorParams p;
  p.num_logic_gates = c.gates;
  p.num_scan_cells = c.scan_cells;
  p.num_levels = 10;
  p.seed = c.seed;
  const Netlist nl = generate_netlist(p);
  EXPECT_TRUE(nl.validate().empty()) << nl.validate();
  EXPECT_EQ(nl.num_outputs(), c.scan_cells);
  EXPECT_EQ(nl.num_scan_cells(), c.scan_cells);
  EXPECT_GE(nl.num_logic_gates(), c.gates);

  // Full observability: every gate reaches at least one output.
  std::vector<char> reaches(nl.num_gates(), 0);
  std::vector<GateId> stack;
  for (GateId o : nl.outputs()) {
    if (!reaches[o]) {
      reaches[o] = 1;
      stack.push_back(o);
    }
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (GateId d : nl.gate(g).fanin) {
      if (!reaches[d]) {
        reaches[d] = 1;
        stack.push_back(d);
      }
    }
  }
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    EXPECT_TRUE(reaches[g]) << "gate " << g << " is unobservable";
  }
}

TEST_P(GeneratorProperty, DeterministicUnderSeed) {
  const GenCase c = GetParam();
  GeneratorParams p;
  p.num_logic_gates = c.gates;
  p.num_scan_cells = c.scan_cells;
  p.seed = c.seed;
  const Netlist a = generate_netlist(p);
  const Netlist b = generate_netlist(p);
  ASSERT_EQ(a.num_gates(), b.num_gates());
  for (GateId g = 0; g < a.num_gates(); ++g) {
    EXPECT_EQ(a.gate(g).type, b.gate(g).type);
    EXPECT_EQ(a.gate(g).fanin, b.gate(g).fanin);
  }
}

TEST_P(GeneratorProperty, PlacementCoordinatesInUnitInterval) {
  const GenCase c = GetParam();
  GeneratorParams p;
  p.num_logic_gates = c.gates;
  p.num_scan_cells = c.scan_cells;
  p.seed = c.seed;
  const Netlist nl = generate_netlist(p);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    EXPECT_GE(nl.gate(g).pos, 0.0f);
    EXPECT_LE(nl.gate(g).pos, 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GeneratorProperty,
    ::testing::Values(GenCase{100, 12, 1}, GenCase{250, 30, 2},
                      GenCase{500, 48, 3}, GenCase{1000, 96, 4},
                      GenCase{333, 25, 99}));

// --- Transform properties ----------------------------------------------------

/// Simulates both netlists on the same random inputs and compares outputs.
void expect_functionally_equal(const Netlist& a, const Netlist& b,
                               std::uint64_t seed) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  Rng rng(seed);
  const sim::PatternSet inputs =
      sim::PatternSet::random(a.num_inputs(), 192, rng);
  const std::vector<sim::Word> va = sim::LogicSimulator(a).run(inputs);
  const std::vector<sim::Word> vb = sim::LogicSimulator(b).run(inputs);
  const std::size_t W = inputs.num_words();
  for (std::size_t o = 0; o < a.num_outputs(); ++o) {
    for (std::size_t w = 0; w < W; ++w) {
      const sim::Word mask = inputs.valid_mask(w);
      EXPECT_EQ(va[a.outputs()[o] * W + w] & mask,
                vb[b.outputs()[o] * W + w] & mask)
          << "output " << o << " word " << w;
    }
  }
}

class ResynthesisProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResynthesisProperty, PreservesFunction) {
  GeneratorParams p;
  p.num_logic_gates = 300;
  p.num_scan_cells = 24;
  p.seed = GetParam();
  const Netlist base = generate_netlist(p);
  const Netlist re = resynthesize(base, GetParam() * 7 + 1);
  EXPECT_TRUE(re.validate().empty());
  EXPECT_NE(re.num_gates(), base.num_gates());  // Structure changed...
  expect_functionally_equal(base, re, GetParam());  // ...function did not.
}

TEST_P(ResynthesisProperty, PreservesScanPairing) {
  GeneratorParams p;
  p.num_logic_gates = 200;
  p.num_scan_cells = 16;
  p.seed = GetParam();
  const Netlist base = generate_netlist(p);
  const Netlist re = resynthesize(base, GetParam());
  EXPECT_EQ(re.num_scan_cells(), base.num_scan_cells());
  EXPECT_EQ(re.num_inputs(), base.num_inputs());
  EXPECT_EQ(re.num_outputs(), base.num_outputs());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResynthesisProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(TestPointInsertion, AddsObserveOnlyOutputs) {
  GeneratorParams p;
  p.num_logic_gates = 400;
  p.num_scan_cells = 32;
  p.seed = 5;
  const Netlist base = generate_netlist(p);
  const Netlist tpi = insert_test_points(base, 0.02, 6);
  EXPECT_TRUE(tpi.validate().empty());
  EXPECT_GT(tpi.num_outputs(), base.num_outputs());
  EXPECT_EQ(tpi.num_scan_cells(), base.num_scan_cells());
  // Budget respected: at most 2% of logic gates.
  EXPECT_LE(tpi.num_outputs() - base.num_outputs(),
            static_cast<std::size_t>(0.02 * base.num_logic_gates()) + 1);
  // The original outputs still compute the same functions.
  Rng rng(7);
  const sim::PatternSet inputs =
      sim::PatternSet::random(base.num_inputs(), 128, rng);
  const auto va = sim::LogicSimulator(base).run(inputs);
  const auto vb = sim::LogicSimulator(tpi).run(inputs);
  const std::size_t W = inputs.num_words();
  for (std::size_t o = 0; o < base.num_outputs(); ++o) {
    for (std::size_t w = 0; w < W; ++w) {
      const sim::Word mask = inputs.valid_mask(w);
      EXPECT_EQ(va[base.outputs()[o] * W + w] & mask,
                vb[tpi.outputs()[o] * W + w] & mask);
    }
  }
}

TEST(TestPointInsertion, ZeroBudgetIsIdentityOnOutputs) {
  GeneratorParams p;
  p.num_logic_gates = 150;
  p.num_scan_cells = 12;
  p.seed = 9;
  const Netlist base = generate_netlist(p);
  const Netlist tpi = insert_test_points(base, 0.0, 10);
  EXPECT_EQ(tpi.num_outputs(), base.num_outputs());
}

}  // namespace
}  // namespace m3dfl::netlist
