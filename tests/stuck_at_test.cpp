// Tests of the stuck-at fault model: simulation semantics, fault
// enumeration and PODEM test generation (the ATPG side of the model).

#include <gtest/gtest.h>

#include <algorithm>

#include "atpg/coverage.h"
#include "atpg/podem.h"
#include "common/rng.h"
#include "netlist/generators.h"
#include "sim/fault_sim.h"

namespace m3dfl {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::SiteTable;
using sim::FaultPolarity;
using sim::InjectedFault;

struct Fixture {
  Netlist nl;
  SiteTable sites;
  sim::FaultSimulator fsim;
  sim::TwoVectorResult good;  ///< Netlist-major good machine, for references.

  explicit Fixture(std::uint64_t seed) : nl(make(seed)), sites(nl),
                                         fsim(nl, sites) {
    Rng rng(seed + 1);
    auto v1 = sim::PatternSet::random(nl.num_inputs(), 96, rng);
    auto v2 = sim::PatternSet::random(nl.num_inputs(), 96, rng);
    fsim.bind(v1, v2);
    good = sim::simulate_two_vector(nl, v1, v2);
  }

  static Netlist make(std::uint64_t seed) {
    netlist::GeneratorParams p;
    p.num_logic_gates = 200;
    p.num_scan_cells = 16;
    p.seed = seed;
    return netlist::generate_netlist(p);
  }
};

TEST(StuckAt, ActivationCoversExactlyTheOppositeValue) {
  Fixture fx(301);
  const auto& good = fx.good;
  const std::size_t W = good.num_words;
  for (netlist::SiteId s = 0; s < fx.sites.size(); s += 37) {
    const GateId drv = fx.sites.site(s).driver;
    const auto a0 = fx.fsim.activation_mask({s, FaultPolarity::kStuckAt0});
    const auto a1 = fx.fsim.activation_mask({s, FaultPolarity::kStuckAt1});
    const std::size_t rem = good.num_patterns % sim::kWordBits;
    const sim::Word tail = rem ? (sim::Word{1} << rem) - 1 : ~sim::Word{0};
    for (std::size_t w = 0; w < W; ++w) {
      const sim::Word mask = w + 1 == W ? tail : ~sim::Word{0};
      EXPECT_EQ(a0[w], good.v2_word(drv, w) & mask);
      EXPECT_EQ(a1[w], ~good.v2_word(drv, w) & mask);
      EXPECT_EQ(a0[w] & a1[w], sim::Word{0});
      EXPECT_EQ((a0[w] | a1[w]) & mask, mask)
          << "SA0 and SA1 activation must tile every pattern";
    }
  }
}

/// Brute-force stuck-at re-simulation: force the site's signal to the stuck
/// constant on every pattern (stem: pin the gate; branch: override the one
/// pin) and fully re-evaluate the V2 frame in topo order. Independent of the
/// event-driven engine's cone pruning, workspace restore, and early exit.
std::vector<sim::Word> stuck_reference_diff(const Netlist& nl,
                                            const SiteTable& sites,
                                            const sim::TwoVectorResult& good,
                                            const InjectedFault& f) {
  const std::size_t W = good.num_words;
  const std::size_t rem = good.num_patterns % sim::kWordBits;
  const sim::Word tail =
      rem ? (sim::Word{1} << rem) - 1 : ~sim::Word{0};
  const sim::Word stuck =
      f.polarity == FaultPolarity::kStuckAt1 ? ~sim::Word{0} : sim::Word{0};
  const auto& site = sites.site(f.site);

  std::vector<sim::Word> faulty(nl.num_gates() * W);
  std::vector<sim::Word> ins;
  for (GateId g : nl.topo_order()) {
    const auto& gate = nl.gate(g);
    sim::Word* row = faulty.data() + static_cast<std::size_t>(g) * W;
    if (site.is_stem() && site.gate == g) {
      for (std::size_t w = 0; w < W; ++w) row[w] = stuck;
      continue;
    }
    if (gate.type == GateType::kInput) {
      for (std::size_t w = 0; w < W; ++w) row[w] = good.v2[g * W + w];
      continue;
    }
    for (std::size_t w = 0; w < W; ++w) {
      ins.clear();
      for (std::size_t k = 0; k < gate.fanin.size(); ++k) {
        const bool overridden = !site.is_stem() && site.gate == g &&
                                static_cast<std::int16_t>(k) == site.pin;
        ins.push_back(overridden ? stuck : faulty[gate.fanin[k] * W + w]);
      }
      sim::Word out = 0;
      switch (gate.type) {
        case GateType::kBuf:
        case GateType::kMiv:
        case GateType::kObs: out = ins[0]; break;
        case GateType::kInv: out = ~ins[0]; break;
        case GateType::kXor: out = ins[0] ^ ins[1]; break;
        case GateType::kXnor: out = ~(ins[0] ^ ins[1]); break;
        case GateType::kAnd:
        case GateType::kNand:
          out = ins[0];
          for (std::size_t k = 1; k < ins.size(); ++k) out &= ins[k];
          if (gate.type == GateType::kNand) out = ~out;
          break;
        case GateType::kOr:
        case GateType::kNor:
          out = ins[0];
          for (std::size_t k = 1; k < ins.size(); ++k) out |= ins[k];
          if (gate.type == GateType::kNor) out = ~out;
          break;
        case GateType::kInput: break;
      }
      row[w] = out;
    }
  }

  std::vector<sim::Word> diff(nl.num_outputs() * W, 0);
  for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
    const GateId g = nl.outputs()[o];
    for (std::size_t w = 0; w < W; ++w) {
      sim::Word d = faulty[g * W + w] ^ good.v2[g * W + w];
      if (w + 1 == W) d &= tail;
      diff[o * W + w] = d;
    }
  }
  return diff;
}

TEST(StuckAt, EventDrivenMatchesReferenceResimulation) {
  Fixture fx(310);
  Rng rng(311);
  std::vector<sim::Word> diff;
  int stems = 0, branches = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto site =
        static_cast<netlist::SiteId>(rng.next_below(fx.sites.size()));
    const InjectedFault f{site, trial % 2 == 0 ? FaultPolarity::kStuckAt0
                                               : FaultPolarity::kStuckAt1};
    (fx.sites.site(site).is_stem() ? stems : branches) += 1;
    const bool detected = fx.fsim.observed_diff(f, diff);
    const auto ref = stuck_reference_diff(fx.nl, fx.sites, fx.good, f);
    ASSERT_EQ(diff, ref) << "site " << site << " "
                         << sim::polarity_name(f.polarity);
    const bool ref_detected = std::any_of(
        ref.begin(), ref.end(), [](sim::Word w) { return w != 0; });
    ASSERT_EQ(detected, ref_detected);
    // The detect-only fast path agrees and leaves the workspace clean.
    ASSERT_EQ(fx.fsim.detects(f), detected);
  }
  EXPECT_GT(stems, 0);
  EXPECT_GT(branches, 0);
}

TEST(StuckAt, StuckSiteIsEasierToDetectThanTdf) {
  Fixture fx(302);
  std::vector<sim::Word> diff;
  std::size_t saf_detected = 0, tdf_detected = 0, n = 0;
  for (netlist::SiteId s = 0; s < fx.sites.size(); s += 11) {
    ++n;
    saf_detected += fx.fsim.observed_diff({s, FaultPolarity::kStuckAt0}, diff);
    tdf_detected +=
        fx.fsim.observed_diff({s, FaultPolarity::kSlowToFall}, diff);
  }
  // SA0 is activated by every good-1 pattern, the slow-to-fall TDF only by
  // falling transitions — strictly fewer activations, so coverage by the
  // same pattern set cannot be higher.
  EXPECT_GE(saf_detected, tdf_detected);
  EXPECT_GT(saf_detected, n / 2);
}

TEST(StuckAt, EnumerationCoversBothValuesPerSite) {
  Fixture fx(303);
  const auto faults = atpg::enumerate_stuck_at_faults(fx.sites);
  EXPECT_EQ(faults.size(), 2 * fx.sites.size());
  EXPECT_EQ(faults[0].polarity, FaultPolarity::kStuckAt0);
  EXPECT_EQ(faults[1].polarity, FaultPolarity::kStuckAt1);
}

TEST(StuckAt, PodemGeneratesSingleFrameTests) {
  Fixture fx(304);
  atpg::Podem podem(fx.nl, fx.sites);
  Rng rng(305);
  int generated = 0;
  for (int trial = 0; trial < 30 && generated < 12; ++trial) {
    const auto site =
        static_cast<netlist::SiteId>(rng.next_below(fx.sites.size()));
    const InjectedFault fault{site, rng.bernoulli(0.5)
                                        ? FaultPolarity::kStuckAt0
                                        : FaultPolarity::kStuckAt1};
    const auto r = podem.generate(fault);
    if (!r.success) continue;
    ++generated;
    // V1 is unconstrained for stuck-at faults.
    for (const atpg::V3 v : r.v1_inputs) EXPECT_EQ(v, atpg::V3::kX);
    // The generated V2 detects the fault.
    sim::PatternSet v1(fx.nl.num_inputs(), 1), v2(fx.nl.num_inputs(), 1);
    for (std::size_t i = 0; i < fx.nl.num_inputs(); ++i) {
      const bool b2 = r.v2_inputs[i] == atpg::V3::kX
                          ? rng.bernoulli(0.5)
                          : r.v2_inputs[i] == atpg::V3::k1;
      v1.set_bit(i, 0, rng.bernoulli(0.5));
      v2.set_bit(i, 0, b2);
    }
    sim::FaultSimulator fsim(fx.nl, fx.sites);
    fsim.bind(v1, v2);
    std::vector<sim::Word> diff;
    EXPECT_TRUE(fsim.observed_diff(fault, diff))
        << "PODEM stuck-at pattern must detect, site " << site;
  }
  EXPECT_GE(generated, 10);
}

}  // namespace
}  // namespace m3dfl
