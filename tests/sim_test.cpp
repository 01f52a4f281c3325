// Tests of the bit-parallel logic simulator, launch-off-capture semantics,
// the event-driven TDF fault simulator, and failure-log construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <tuple>

#include "common/rng.h"
#include "netlist/generators.h"
#include "sim/failure_log.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"

// sim_test is its own binary, so replacing the global allocator here is safe.
// The counter lets SteadyStateIsAllocationFree assert the engine's
// zero-allocation guarantee directly instead of trusting the reserve logic.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

// GCC pairs these malloc-backed replacements against allocation sites it
// believes used the default allocator and warns spuriously; new and delete
// are replaced together here, so the pairing is in fact consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace m3dfl::sim {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::SiteTable;

// --- PatternSet --------------------------------------------------------------

TEST(PatternSet, BitAccessRoundTrips) {
  PatternSet ps(3, 130);
  ps.set_bit(0, 0, true);
  ps.set_bit(1, 64, true);
  ps.set_bit(2, 129, true);
  EXPECT_TRUE(ps.bit(0, 0));
  EXPECT_FALSE(ps.bit(0, 1));
  EXPECT_TRUE(ps.bit(1, 64));
  EXPECT_TRUE(ps.bit(2, 129));
  ps.set_bit(2, 129, false);
  EXPECT_FALSE(ps.bit(2, 129));
}

TEST(PatternSet, ValidMaskCoversExactlyThePatterns) {
  PatternSet ps(1, 70);
  EXPECT_EQ(ps.num_words(), 2u);
  EXPECT_EQ(ps.valid_mask(0), ~Word{0});
  EXPECT_EQ(ps.valid_mask(1), (Word{1} << 6) - 1);
  PatternSet full(1, 128);
  EXPECT_EQ(full.valid_mask(1), ~Word{0});
}

TEST(PatternSet, RandomIsDeterministicAndTailClean) {
  Rng a(42), b(42);
  const PatternSet x = PatternSet::random(4, 100, a);
  const PatternSet y = PatternSet::random(4, 100, b);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t w = 0; w < x.num_words(); ++w) {
      EXPECT_EQ(x.word(i, w), y.word(i, w));
    }
    EXPECT_EQ(x.word(i, 1) & ~x.valid_mask(1), Word{0});
  }
}

// --- Logic simulation ---------------------------------------------------------

/// Scalar reference evaluation of one gate.
bool eval_ref(GateType t, const std::vector<bool>& in) {
  switch (t) {
    case GateType::kBuf:
    case GateType::kMiv:
    case GateType::kObs: return in[0];
    case GateType::kInv: return !in[0];
    case GateType::kXor: return in[0] != in[1];
    case GateType::kXnor: return in[0] == in[1];
    case GateType::kAnd:
    case GateType::kNand: {
      bool v = true;
      for (bool b : in) v = v && b;
      return t == GateType::kAnd ? v : !v;
    }
    case GateType::kOr:
    case GateType::kNor: {
      bool v = false;
      for (bool b : in) v = v || b;
      return t == GateType::kOr ? v : !v;
    }
    case GateType::kInput: return false;
  }
  return false;
}

/// Property: packed simulation equals per-pattern scalar simulation.
class PackedVsScalar : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackedVsScalar, Agree) {
  netlist::GeneratorParams p;
  p.num_logic_gates = 180;
  p.num_scan_cells = 14;
  p.num_levels = 7;
  p.seed = GetParam();
  const Netlist nl = generate_netlist(p);
  Rng rng(GetParam() + 1);
  const PatternSet inputs = PatternSet::random(nl.num_inputs(), 70, rng);
  const std::vector<Word> packed = LogicSimulator(nl).run(inputs);
  const std::size_t W = inputs.num_words();

  for (std::size_t pat : {std::size_t{0}, std::size_t{13}, std::size_t{69}}) {
    // Scalar reference.
    std::vector<bool> val(nl.num_gates(), false);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      val[nl.inputs()[i]] = inputs.bit(i, pat);
    }
    for (GateId g : nl.topo_order()) {
      const auto& gate = nl.gate(g);
      if (gate.type == GateType::kInput) continue;
      std::vector<bool> in;
      for (GateId d : gate.fanin) in.push_back(val[d]);
      val[g] = eval_ref(gate.type, in);
    }
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      const bool packed_bit =
          (packed[g * W + pat / kWordBits] >> (pat % kWordBits)) & 1;
      EXPECT_EQ(packed_bit, val[g]) << "gate " << g << " pattern " << pat;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedVsScalar,
                         ::testing::Values(1, 2, 3, 10, 77));

/// Word-boundary pattern counts: a single pattern, one short of a full
/// word, one past it, and one short of two full words. The packed rows
/// must agree with the scalar reference at the edge patterns of the set.
class PackedTailWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackedTailWidths, EdgePatternsAgreeWithScalar) {
  const std::size_t patterns = GetParam();
  netlist::GeneratorParams p;
  p.num_logic_gates = 140;
  p.num_scan_cells = 12;
  p.num_levels = 6;
  p.seed = 91;
  const Netlist nl = generate_netlist(p);
  Rng rng(92);
  const PatternSet inputs =
      PatternSet::random(nl.num_inputs(), patterns, rng);
  ASSERT_EQ(inputs.num_words(), words_for(patterns));
  const std::vector<Word> packed = LogicSimulator(nl).run(inputs);
  const std::size_t W = inputs.num_words();

  for (const std::size_t pat :
       {std::size_t{0}, patterns / 2, patterns - 1}) {
    std::vector<bool> val(nl.num_gates(), false);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
      val[nl.inputs()[i]] = inputs.bit(i, pat);
    }
    for (GateId g : nl.topo_order()) {
      const auto& gate = nl.gate(g);
      if (gate.type == GateType::kInput) continue;
      std::vector<bool> in;
      for (GateId d : gate.fanin) in.push_back(val[d]);
      val[g] = eval_ref(gate.type, in);
    }
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      const bool packed_bit =
          (packed[g * W + pat / kWordBits] >> (pat % kWordBits)) & 1;
      ASSERT_EQ(packed_bit, val[g]) << "gate " << g << " pattern " << pat;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, PackedTailWidths,
                         ::testing::Values<std::size_t>(1, 63, 65, 127));

TEST(LaunchOffCapture, V2ScanStateIsV1Capture) {
  netlist::GeneratorParams p;
  p.num_logic_gates = 120;
  p.num_scan_cells = 10;
  p.seed = 4;
  const Netlist nl = generate_netlist(p);
  Rng rng(5);
  const PatternSet v1 = PatternSet::random(nl.num_inputs(), 64, rng);
  const TwoVectorResult r = simulate_launch_off_capture(nl, v1);
  const std::size_t W = r.num_words;
  // Scan cell i's V2 input value equals output i's V1 value.
  for (std::size_t i = 0; i < nl.num_scan_cells(); ++i) {
    const GateId q = nl.inputs()[i];
    const GateId d = nl.outputs()[i];
    for (std::size_t w = 0; w < W; ++w) {
      EXPECT_EQ(r.v2[q * W + w] & v1.valid_mask(w),
                r.v1[d * W + w] & v1.valid_mask(w));
    }
  }
  // Non-scan primary inputs are held.
  for (std::size_t i = nl.num_scan_cells(); i < nl.num_inputs(); ++i) {
    const GateId g = nl.inputs()[i];
    for (std::size_t w = 0; w < W; ++w) {
      EXPECT_EQ(r.v2[g * W + w], r.v1[g * W + w]);
    }
  }
}

TEST(TwoVector, TransitionIsXorOfFrames) {
  netlist::GeneratorParams p;
  p.num_logic_gates = 100;
  p.num_scan_cells = 8;
  p.seed = 6;
  const Netlist nl = generate_netlist(p);
  Rng rng(7);
  const PatternSet v1 = PatternSet::random(nl.num_inputs(), 64, rng);
  const PatternSet v2 = PatternSet::random(nl.num_inputs(), 64, rng);
  const TwoVectorResult r = simulate_two_vector(nl, v1, v2);
  for (std::size_t i = 0; i < r.v1.size(); ++i) {
    EXPECT_EQ(r.transition[i], r.v1[i] ^ r.v2[i]);
  }
}

// --- Fault simulation ---------------------------------------------------------

struct FaultSimFixture {
  Netlist nl;
  SiteTable sites;
  FaultSimulator fsim;
  PatternSet v1, v2;
  TwoVectorResult good;  ///< Netlist-major good machine, for references.

  explicit FaultSimFixture(std::uint64_t seed, std::size_t patterns = 96)
      : nl(make(seed)), sites(nl), fsim(nl, sites) {
    Rng rng(seed + 100);
    v1 = PatternSet::random(nl.num_inputs(), patterns, rng);
    v2 = PatternSet::random(nl.num_inputs(), patterns, rng);
    fsim.bind(v1, v2);
    good = simulate_two_vector(nl, v1, v2);
  }

  static Netlist make(std::uint64_t seed) {
    netlist::GeneratorParams p;
    p.num_logic_gates = 160;
    p.num_scan_cells = 16;
    p.num_levels = 7;
    p.seed = seed;
    return generate_netlist(p);
  }
};

/// Reference faulty simulation: full re-simulation with the site's value
/// overridden by the TDF surrogate model.
std::vector<Word> reference_diff(const Netlist& nl, const SiteTable& sites,
                                 const TwoVectorResult& good,
                                 const InjectedFault& f) {
  const std::size_t W = good.num_words;
  const auto& site = sites.site(f.site);

  // Activation mask (tail-masked).
  const std::size_t rem = good.num_patterns % kWordBits;
  const Word tail = rem ? (Word{1} << rem) - 1 : ~Word{0};
  std::vector<Word> faulty(nl.num_gates() * W);
  // Copy V2 inputs.
  for (GateId g : nl.topo_order()) {
    const auto& gate = nl.gate(g);
    if (gate.type == GateType::kInput) {
      for (std::size_t w = 0; w < W; ++w) {
        faulty[g * W + w] = good.v2[g * W + w];
      }
      if (site.is_stem() && site.gate == g) {
        for (std::size_t w = 0; w < W; ++w) {
          Word act = good.v1[g * W + w] ^ good.v2[g * W + w];
          if (f.polarity == FaultPolarity::kSlowToRise) {
            act &= ~good.v1[g * W + w];
          } else if (f.polarity == FaultPolarity::kSlowToFall) {
            act &= good.v1[g * W + w];
          }
          if (w + 1 == W) act &= tail;
          faulty[g * W + w] =
              (good.v2[g * W + w] & ~act) | (good.v1[g * W + w] & act);
        }
      }
      continue;
    }
    // Gather fanin values with branch override.
    for (std::size_t w = 0; w < W; ++w) {
      std::vector<Word> ins;
      for (std::size_t k = 0; k < gate.fanin.size(); ++k) {
        Word v = faulty[gate.fanin[k] * W + w];
        if (!site.is_stem() && site.gate == g &&
            static_cast<std::int16_t>(k) == site.pin) {
          const GateId drv = site.driver;
          Word act = good.v1[drv * W + w] ^ good.v2[drv * W + w];
          if (f.polarity == FaultPolarity::kSlowToRise) {
            act &= ~good.v1[drv * W + w];
          } else if (f.polarity == FaultPolarity::kSlowToFall) {
            act &= good.v1[drv * W + w];
          }
          if (w + 1 == W) act &= tail;
          // The branch sees V1 where activated, downstream-faulty V2 else.
          v = (v & ~act) | (good.v1[drv * W + w] & act);
        }
        ins.push_back(v);
      }
      Word out = 0;
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
      faulty[g * W + w] = out;
    }
    if (site.is_stem() && site.gate == g) {
      for (std::size_t w = 0; w < W; ++w) {
        Word act = good.tr_word(g, w);
        if (f.polarity == FaultPolarity::kSlowToRise) {
          act &= ~good.v1[g * W + w];
        } else if (f.polarity == FaultPolarity::kSlowToFall) {
          act &= good.v1[g * W + w];
        }
        faulty[g * W + w] =
            (faulty[g * W + w] & ~act) | (good.v1[g * W + w] & act);
      }
    }
  }

  std::vector<Word> diff(nl.num_outputs() * W, 0);
  for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
    const GateId g = nl.outputs()[o];
    for (std::size_t w = 0; w < W; ++w) {
      Word d = faulty[g * W + w] ^ good.v2[g * W + w];
      if (w + 1 == W) d &= tail;
      diff[o * W + w] = d;
    }
  }
  return diff;
}

class EventDrivenVsReference : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EventDrivenVsReference, StemFaultDiffsAgree) {
  FaultSimFixture fx(GetParam());
  Rng rng(GetParam() + 9);
  std::vector<Word> diff;
  for (int trial = 0; trial < 25; ++trial) {
    const auto site = static_cast<netlist::SiteId>(
        rng.next_below(fx.sites.size()));
    if (!fx.sites.site(site).is_stem()) continue;
    const InjectedFault f{
        site, rng.bernoulli(0.5) ? FaultPolarity::kSlowToRise
                                 : FaultPolarity::kSlowToFall};
    fx.fsim.observed_diff(f, diff);
    const auto ref = reference_diff(fx.nl, fx.sites, fx.good, f);
    ASSERT_EQ(diff.size(), ref.size());
    for (std::size_t i = 0; i < diff.size(); ++i) {
      ASSERT_EQ(diff[i], ref[i]) << "site " << site << " index " << i;
    }
  }
}

TEST_P(EventDrivenVsReference, BranchFaultDiffsAgree) {
  FaultSimFixture fx(GetParam() + 1000);
  Rng rng(GetParam() + 19);
  std::vector<Word> diff;
  for (int trial = 0; trial < 25; ++trial) {
    const auto site = static_cast<netlist::SiteId>(
        rng.next_below(fx.sites.size()));
    if (fx.sites.site(site).is_stem()) continue;
    const InjectedFault f{
        site, rng.bernoulli(0.5) ? FaultPolarity::kSlowToRise
                                 : FaultPolarity::kSlowToFall};
    fx.fsim.observed_diff(f, diff);
    const auto ref = reference_diff(fx.nl, fx.sites, fx.good, f);
    for (std::size_t i = 0; i < diff.size(); ++i) {
      ASSERT_EQ(diff[i], ref[i]) << "site " << site << " index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventDrivenVsReference,
                         ::testing::Values(21, 22, 23, 24));

// --- Generalized reference: all polarities, multi-fault seeds ----------------

/// Per-word gate evaluation shared by the generalized reference.
Word eval_word_ref(GateType t, const std::vector<Word>& ins) {
  switch (t) {
    case GateType::kBuf:
    case GateType::kMiv:
    case GateType::kObs: return ins[0];
    case GateType::kInv: return ~ins[0];
    case GateType::kXor: return ins[0] ^ ins[1];
    case GateType::kXnor: return ~(ins[0] ^ ins[1]);
    case GateType::kAnd:
    case GateType::kNand: {
      Word out = ins[0];
      for (std::size_t k = 1; k < ins.size(); ++k) out &= ins[k];
      return t == GateType::kNand ? ~out : out;
    }
    case GateType::kOr:
    case GateType::kNor: {
      Word out = ins[0];
      for (std::size_t k = 1; k < ins.size(); ++k) out |= ins[k];
      return t == GateType::kNor ? ~out : out;
    }
    case GateType::kInput: return 0;
  }
  return 0;
}

/// Brute-force re-simulation of an arbitrary fault set (any of the five
/// polarities, stem and branch sites), replicating the engine's surrogate
/// semantics exactly: faults whose activation is all-zero are ignored; a stem
/// fault pins its gate to the good-derived faulty value only when that value
/// differs from good V2; a branch override replaces the pin with the
/// good-driver-derived faulty value outright. Fault gates must be distinct.
std::vector<Word> reference_diff_multi(const Netlist& nl,
                                       const SiteTable& sites,
                                       const TwoVectorResult& good,
                                       std::span<const InjectedFault> faults) {
  const std::size_t W = good.num_words;
  const std::size_t rem = good.num_patterns % kWordBits;
  const Word tail = rem ? (Word{1} << rem) - 1 : ~Word{0};

  auto fault_value = [&](const InjectedFault& f, std::vector<Word>& fv) {
    const GateId drv = sites.site(f.site).driver;
    bool any = false;
    fv.assign(W, 0);
    for (std::size_t w = 0; w < W; ++w) {
      const Word v1 = good.v1[drv * W + w];
      const Word v2 = good.v2[drv * W + w];
      Word act = 0;
      Word forced = v1;
      switch (f.polarity) {
        case FaultPolarity::kSlowToRise: act = ~v1 & v2 & (v1 ^ v2); break;
        case FaultPolarity::kSlowToFall: act = v1 & ~v2 & (v1 ^ v2); break;
        case FaultPolarity::kSlow: act = v1 ^ v2; break;
        case FaultPolarity::kStuckAt0:
          act = v2;
          forced = 0;
          break;
        case FaultPolarity::kStuckAt1:
          act = ~v2;
          forced = ~Word{0};
          break;
      }
      if (w + 1 == W) act &= tail;
      any |= act != 0;
      fv[w] = (v2 & ~act) | (forced & act);
    }
    return any;
  };

  // Pre-resolve every activated fault into a pinned stem row or a branch
  // override row, exactly as the engine seeds events.
  std::map<GateId, std::vector<Word>> pinned;
  std::map<std::pair<GateId, std::int16_t>, std::vector<Word>> override_pin;
  std::vector<Word> fv;
  for (const InjectedFault& f : faults) {
    const auto& site = sites.site(f.site);
    if (!fault_value(f, fv)) continue;  // Never activated: no event seeded.
    if (site.is_stem()) {
      bool differs = false;
      for (std::size_t w = 0; w < W; ++w) {
        differs |= fv[w] != good.v2[site.gate * W + w];
      }
      if (differs) pinned[site.gate] = fv;
    } else {
      override_pin[{site.gate, site.pin}] = fv;
    }
  }

  std::vector<Word> faulty(nl.num_gates() * W);
  for (GateId g : nl.topo_order()) {
    const auto& gate = nl.gate(g);
    if (const auto it = pinned.find(g); it != pinned.end()) {
      std::copy(it->second.begin(), it->second.end(), faulty.begin() + g * W);
      continue;
    }
    if (gate.type == GateType::kInput) {
      std::copy_n(good.v2.begin() + g * W, W, faulty.begin() + g * W);
      continue;
    }
    for (std::size_t w = 0; w < W; ++w) {
      std::vector<Word> ins;
      ins.reserve(gate.fanin.size());
      for (std::size_t k = 0; k < gate.fanin.size(); ++k) {
        const auto ov =
            override_pin.find({g, static_cast<std::int16_t>(k)});
        ins.push_back(ov != override_pin.end()
                          ? ov->second[w]
                          : faulty[gate.fanin[k] * W + w]);
      }
      faulty[g * W + w] = eval_word_ref(gate.type, ins);
    }
  }

  std::vector<Word> diff(nl.num_outputs() * W, 0);
  for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
    const GateId g = nl.outputs()[o];
    for (std::size_t w = 0; w < W; ++w) {
      Word d = faulty[g * W + w] ^ good.v2[g * W + w];
      if (w + 1 == W) d &= tail;
      diff[o * W + w] = d;
    }
  }
  return diff;
}

/// FNV-1a over a diff buffer: the golden-equivalence tests compare digests so
/// a mismatch is caught even if an element-wise loop were ever loosened.
std::uint64_t diff_hash(const std::vector<Word>& diff) {
  std::uint64_t h = 1469598103934665603ull;
  for (Word w : diff) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr FaultPolarity kPolarityCycle[] = {
    FaultPolarity::kSlowToRise, FaultPolarity::kSlowToFall,
    FaultPolarity::kSlow, FaultPolarity::kStuckAt0, FaultPolarity::kStuckAt1};

/// Seed x pattern-count sweep; pattern counts cover the single-bit word
/// (1), both sides of every word boundary (63/65, 127), interior partial
/// tails (70, 96) and the exact multi-word boundary (128).
class GoldenEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(GoldenEquivalence, AllPolaritiesSingleFault) {
  const auto [seed, patterns] = GetParam();
  FaultSimFixture fx(seed, patterns);
  Rng rng(seed + 50);
  std::vector<Word> diff;
  for (int trial = 0; trial < 30; ++trial) {
    const auto site =
        static_cast<netlist::SiteId>(rng.next_below(fx.sites.size()));
    const InjectedFault f{site, kPolarityCycle[trial % 5]};
    const bool detected = fx.fsim.observed_diff(f, diff);
    const auto ref = reference_diff_multi(fx.nl, fx.sites, fx.good,
                                          std::span(&f, 1));
    ASSERT_EQ(diff_hash(diff), diff_hash(ref))
        << "site " << site << " polarity " << polarity_name(f.polarity);
    ASSERT_EQ(diff, ref);
    const bool ref_detected =
        std::any_of(ref.begin(), ref.end(), [](Word w) { return w != 0; });
    EXPECT_EQ(detected, ref_detected);
  }
}

TEST_P(GoldenEquivalence, MultiFaultSeeds) {
  const auto [seed, patterns] = GetParam();
  FaultSimFixture fx(seed + 500, patterns);
  Rng rng(seed + 60);
  std::vector<Word> diff;
  for (int trial = 0; trial < 15; ++trial) {
    // 2-3 faults at distinct gates (the engine seeds per-gate state, so
    // same-gate fault pairs are order-dependent and not part of the
    // contract); mixed polarities, stem and branch sites.
    const std::size_t k = 2 + trial % 2;
    std::vector<InjectedFault> faults;
    int guard = 0;
    while (faults.size() < k && guard++ < 300) {
      const auto site =
          static_cast<netlist::SiteId>(rng.next_below(fx.sites.size()));
      const GateId gate = fx.sites.site(site).gate;
      const bool dup = std::any_of(
          faults.begin(), faults.end(), [&](const InjectedFault& f) {
            return fx.sites.site(f.site).gate == gate;
          });
      if (dup) continue;
      faults.push_back(
          {site, kPolarityCycle[rng.next_below(5)]});
    }
    ASSERT_EQ(faults.size(), k);
    const bool detected = fx.fsim.observed_diff(faults, diff);
    const auto ref =
        reference_diff_multi(fx.nl, fx.sites, fx.good, faults);
    ASSERT_EQ(diff_hash(diff), diff_hash(ref)) << "trial " << trial;
    ASSERT_EQ(diff, ref);
    const bool ref_detected =
        std::any_of(ref.begin(), ref.end(), [](Word w) { return w != 0; });
    EXPECT_EQ(detected, ref_detected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTails, GoldenEquivalence,
    ::testing::Combine(
        ::testing::Values<std::uint64_t>(41, 42, 43),
        ::testing::Values<std::size_t>(1, 63, 65, 70, 96, 127, 128)));

TEST(SimStats, ClonesStartAtZeroAndTakeStatsFlushes) {
  FaultSimFixture fx(77);
  std::vector<Word> diff;
  fx.fsim.observed_diff({0, FaultPolarity::kSlow}, diff);
  ASSERT_GT(fx.fsim.sim_stats().observed_diff_calls, 0u);

  // A shard's clone must not inherit the source's counters — flushing the
  // clone's stats after a shard would otherwise re-report (double-count)
  // work the source already did.
  const auto clone = fx.fsim.clone();
  EXPECT_EQ(clone->sim_stats().observed_diff_calls, 0u);
  EXPECT_EQ(clone->sim_stats().events_processed, 0u);
  EXPECT_EQ(clone->sim_stats().words_evaluated, 0u);

  // The clone simulates exactly what its prototype does.
  EXPECT_EQ(clone->num_patterns(), fx.fsim.num_patterns());
  EXPECT_EQ(clone->num_words(), fx.fsim.num_words());
  std::vector<Word> got;
  EXPECT_EQ(clone->observed_diff({0, FaultPolarity::kSlow}, got),
            fx.fsim.observed_diff({0, FaultPolarity::kSlow}, diff));
  EXPECT_EQ(got, diff);
  const FaultSimulator::SimStats first = clone->take_stats();
  EXPECT_EQ(first.observed_diff_calls, 1u);
  // take_stats() consumed the counters: a second flush reports nothing.
  const FaultSimulator::SimStats second = clone->take_stats();
  EXPECT_EQ(second.observed_diff_calls, 0u);
  EXPECT_EQ(second.events_processed, 0u);

  // The source's counters are untouched by its clones.
  EXPECT_GT(fx.fsim.sim_stats().observed_diff_calls, 0u);
}

// Every simulator is a workspace over a shared SimCore: clones and
// simulators built from the core read the same object, and a workspace
// re-bound to another core of the same arena (the ATPG top-off binds one
// per pattern block) simulates that core's patterns exactly, then the
// first core's again once re-bound back.
TEST(FaultSimulator, WorkspacesShareTheCoreAndRebindExactly) {
  FaultSimFixture fx(78);
  const std::shared_ptr<const SimCore> first = fx.fsim.shared_core();
  EXPECT_EQ(&fx.fsim.clone()->core(), first.get());
  EXPECT_EQ(&FaultSimulator(first).core(), first.get());

  Rng rng(79);
  const PatternSet w1 = PatternSet::random(fx.nl.num_inputs(), 130, rng);
  const PatternSet w2 = PatternSet::random(fx.nl.num_inputs(), 130, rng);
  const TwoVectorResult other_good = simulate_two_vector(fx.nl, w1, w2);
  const auto other =
      std::make_shared<const SimCore>(first->shared_arena(), other_good);
  // A stem site, a branch site and a multi-fault machine at distinct gates.
  netlist::SiteId stem = 0, branch = 0;
  while (!fx.sites.site(stem).is_stem()) ++stem;
  while (fx.sites.site(branch).is_stem() ||
         fx.sites.site(branch).gate == fx.sites.site(stem).gate) {
    ++branch;
  }
  const std::vector<std::vector<InjectedFault>> machines = {
      {{stem, FaultPolarity::kSlowToRise}},
      {{branch, FaultPolarity::kSlowToFall}},
      {{stem, FaultPolarity::kSlow}, {branch, FaultPolarity::kStuckAt1}}};
  std::vector<Word> diff;
  using Binding = std::pair<std::shared_ptr<const SimCore>,
                            const TwoVectorResult*>;
  for (const auto& [core, good] :
       {Binding{other, &other_good}, Binding{first, &fx.good}}) {
    fx.fsim.bind(core);
    ASSERT_EQ(&fx.fsim.core(), core.get());
    for (const auto& faults : machines) {
      fx.fsim.observed_diff(faults, diff);
      EXPECT_EQ(diff, reference_diff_multi(fx.nl, fx.sites, *good, faults))
          << core->num_patterns() << " patterns, " << faults.size()
          << " fault(s)";
    }
  }
}

TEST(FaultSimulator, TouchedOutputsDuplicateFreeAndComplete) {
  FaultSimFixture fx(34);
  std::vector<Word> diff;
  std::vector<std::uint32_t> touched;
  const std::size_t W = fx.fsim.num_words();
  for (netlist::SiteId s = 0; s < fx.sites.size(); s += 7) {
    for (FaultPolarity pol : kPolarityCycle) {
      fx.fsim.observed_diff({s, pol}, diff, &touched);
      std::vector<std::uint32_t> sorted = touched;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end())
          << "duplicate touched output, site " << s;
      // Every nonzero diff row is listed; unlisted rows are all-zero.
      for (std::size_t o = 0; o < fx.nl.num_outputs(); ++o) {
        const bool listed =
            std::binary_search(sorted.begin(), sorted.end(), o);
        if (listed) continue;
        for (std::size_t w = 0; w < W; ++w) {
          ASSERT_EQ(diff[o * W + w], Word{0})
              << "untouched output " << o << " has a nonzero diff";
        }
      }
    }
  }
}

TEST(FaultSimulator, DetectsAgreesWithObservedDiff) {
  FaultSimFixture fx(36);
  Rng rng(37);
  std::vector<Word> diff;
  for (int trial = 0; trial < 60; ++trial) {
    const auto site =
        static_cast<netlist::SiteId>(rng.next_below(fx.sites.size()));
    const InjectedFault f{site, kPolarityCycle[trial % 5]};
    // detects() runs first so a workspace leak from its early exit would
    // corrupt the full simulation that follows.
    const bool fast = fx.fsim.detects(f);
    const bool full = fx.fsim.observed_diff(f, diff);
    ASSERT_EQ(fast, full) << "site " << site << " polarity "
                          << polarity_name(f.polarity);
    // Compare against the engine-independent reference: an engine-vs-engine
    // check alone would miss residue that corrupts both calls identically.
    const auto ref = reference_diff_multi(fx.nl, fx.sites, fx.good,
                                          std::span(&f, 1));
    ASSERT_EQ(diff, ref) << "workspace residue after detects(), site "
                         << site;
  }
}

TEST(FaultSimulator, ObservabilityMaskMatchesBruteForceReachability) {
  FaultSimFixture fx(38);
  // Forward reachability to any observation point, computed independently.
  std::vector<std::uint8_t> reaches(fx.nl.num_gates(), 0);
  for (const GateId out : fx.nl.outputs()) reaches[out] = 1;
  const auto& topo = fx.nl.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    for (const GateId fo : fx.nl.gate(*it).fanout) {
      if (reaches[fo]) reaches[*it] = 1;
    }
  }
  for (GateId g = 0; g < fx.nl.num_gates(); ++g) {
    EXPECT_EQ(fx.fsim.gate_observable(g), reaches[g] != 0) << "gate " << g;
  }
  for (netlist::SiteId s = 0; s < fx.sites.size(); ++s) {
    EXPECT_EQ(fx.fsim.site_observable(s),
              reaches[fx.sites.site(s).gate] != 0);
  }
  // An unobservable site never produces a diff (and is counted as a skip).
  std::vector<Word> diff;
  for (netlist::SiteId s = 0; s < fx.sites.size(); ++s) {
    if (fx.fsim.site_observable(s)) continue;
    const auto before = fx.fsim.sim_stats().cone_skips;
    EXPECT_FALSE(fx.fsim.observed_diff({s, FaultPolarity::kSlow}, diff));
    EXPECT_GT(fx.fsim.sim_stats().cone_skips, before);
  }
}

TEST(FaultSimulator, SteadyStateIsAllocationFree) {
  FaultSimFixture fx(39);
  std::vector<Word> diff;
  std::vector<std::uint32_t> touched;
  // Mixed workload touching every engine path: full diffs with touched
  // tracking, multi-fault seeds (stem + branch), and early-exit detects.
  auto workload = [&] {
    for (netlist::SiteId s = 0; s < fx.sites.size(); s += 5) {
      fx.fsim.observed_diff({s, kPolarityCycle[s % 5]}, diff, &touched);
      fx.fsim.detects({s, FaultPolarity::kSlow});
      const InjectedFault pair[] = {
          {s, FaultPolarity::kSlowToRise},
          {static_cast<netlist::SiteId>((s + fx.sites.size() / 2) %
                                        fx.sites.size()),
           FaultPolarity::kStuckAt0}};
      fx.fsim.observed_diff(pair, diff, &touched);
    }
  };
  workload();  // Warm-up: sizes the caller buffers and any lazy pools.
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  workload();
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "fault simulation allocated in steady state";
}

TEST(FaultSimulator, WorkspaceRestoredBetweenCalls) {
  FaultSimFixture fx(31);
  std::vector<Word> d1, d2, d3;
  const InjectedFault a{fx.sites.stem_of(20), FaultPolarity::kSlow};
  const InjectedFault b{fx.sites.stem_of(40), FaultPolarity::kSlow};
  fx.fsim.observed_diff(a, d1);
  fx.fsim.observed_diff(b, d2);
  fx.fsim.observed_diff(a, d3);
  EXPECT_EQ(d1, d3);  // No state leaks from simulating b.
}

TEST(FaultSimulator, SlowCoversBothPolarities) {
  FaultSimFixture fx(32);
  std::vector<Word> both, rise, fall;
  for (netlist::SiteId s = 0; s < fx.sites.size(); s += 17) {
    fx.fsim.observed_diff({s, FaultPolarity::kSlow}, both);
    fx.fsim.observed_diff({s, FaultPolarity::kSlowToRise}, rise);
    fx.fsim.observed_diff({s, FaultPolarity::kSlowToFall}, fall);
    // Activation of kSlow is the union of the polarities, so any pattern
    // failing under a single polarity must also fail under kSlow at the
    // same observation point... unless downstream interaction cancels it;
    // at minimum the activation masks satisfy the union property.
    const auto am_both = fx.fsim.activation_mask({s, FaultPolarity::kSlow});
    const auto am_rise =
        fx.fsim.activation_mask({s, FaultPolarity::kSlowToRise});
    const auto am_fall =
        fx.fsim.activation_mask({s, FaultPolarity::kSlowToFall});
    for (std::size_t w = 0; w < am_both.size(); ++w) {
      EXPECT_EQ(am_both[w], am_rise[w] | am_fall[w]);
      EXPECT_EQ(am_rise[w] & am_fall[w], Word{0});
    }
  }
}

// The kSlow machine equals the active TDF polarity's machine pattern by
// pattern (STR and STF activate on disjoint patterns, kSlow on their union,
// all with the late V1 value), so each polarity's diff is the kSlow diff
// restricted to that polarity's activation patterns. Diagnosis scores both
// polarities from one kSlow simulation on this identity.
TEST(FaultSimulator, SlowDiffSplitsExactlyByActivation) {
  FaultSimFixture fx(34);
  const std::size_t W = fx.fsim.num_words();
  std::vector<Word> both, single;
  for (netlist::SiteId s = 0; s < fx.sites.size(); s += 3) {
    fx.fsim.observed_diff({s, FaultPolarity::kSlow}, both);
    for (FaultPolarity p :
         {FaultPolarity::kSlowToRise, FaultPolarity::kSlowToFall}) {
      fx.fsim.observed_diff({s, p}, single);
      const auto act = fx.fsim.activation_mask({s, p});
      for (std::size_t i = 0; i < both.size(); ++i) {
        ASSERT_EQ(single[i], both[i] & act[i % W])
            << "site " << s << " " << sim::polarity_name(p);
      }
    }
  }
}

// The pattern-restricted sparse observed_diff() is the full diff on the
// allowed patterns (patterns are simulated independently), packed to the
// observation points where it is nonzero.
TEST(FaultSimulator, PatternMaskedDiffIsFullDiffOnThosePatterns) {
  FaultSimFixture fx(35);
  const std::size_t W = fx.fsim.num_words();
  Rng rng(36);
  std::vector<Word> mask(W), full, packed;
  std::vector<std::uint32_t> touched;
  int nonempty = 0;
  for (netlist::SiteId s = 0; s < fx.sites.size(); s += 5) {
    for (Word& m : mask) m = rng.next();
    for (FaultPolarity p : sim::kAllPolarities) {
      for (bool complement : {false, true}) {
        std::vector<Word> allowed = mask;
        if (complement) {
          for (Word& m : allowed) m = ~m;
        }
        const InjectedFault f{s, p};
        fx.fsim.observed_diff(f, full);
        const bool any = fx.fsim.observed_diff(f, allowed, packed, touched);
        ASSERT_EQ(packed.size(), touched.size() * W);
        std::vector<Word> want(full.size(), 0);
        for (std::size_t i = 0; i < full.size(); ++i) {
          want[i] = full[i] & allowed[i % W];
        }
        std::vector<Word> got(full.size(), 0);
        for (std::size_t k = 0; k < touched.size(); ++k) {
          Word row = 0;
          for (std::size_t w = 0; w < W; ++w) {
            got[touched[k] * W + w] = packed[k * W + w];
            row |= packed[k * W + w];
          }
          EXPECT_NE(row, Word{0}) << "all-zero row packed";
        }
        EXPECT_EQ(got, want) << "site " << s << " " << sim::polarity_name(p);
        EXPECT_EQ(any, !touched.empty());
        nonempty += any;
      }
    }
  }
  EXPECT_GT(nonempty, 20);
}

TEST(FaultSimulator, MultipleFaultsProduceUnionOfCones) {
  FaultSimFixture fx(33);
  std::vector<Word> da, db, dab;
  const InjectedFault a{fx.sites.stem_of(10), FaultPolarity::kSlow};
  const InjectedFault b{fx.sites.stem_of(90), FaultPolarity::kSlow};
  const bool fa = fx.fsim.observed_diff(a, da);
  const bool fb = fx.fsim.observed_diff(b, db);
  const InjectedFault faults[] = {a, b};
  const bool fab = fx.fsim.observed_diff(faults, dab);
  if (fa || fb) {
    EXPECT_TRUE(fab || !(fa && fb));
  }
  // Any output untouched by either fault alone stays clean.
  for (std::size_t i = 0; i < dab.size(); ++i) {
    if (da[i] == 0 && db[i] == 0) {
      // Interaction can only occur where at least one fault reaches.
      // (With disjoint cones this is exact.)
      continue;
    }
  }
}

// --- Failure log ---------------------------------------------------------------

TEST(FailureLog, FromDiffListsEverySetBit) {
  std::vector<Word> diff(2 * 2, 0);  // 2 outputs, 2 words.
  diff[0] = 0b101;              // output 0: patterns 0, 2.
  diff[2 * 1 + 1] = 0b1;        // output 1: pattern 64.
  const FailureLog log = failure_log_from_diff(diff, 2, 100);
  ASSERT_EQ(log.fails.size(), 3u);
  EXPECT_EQ(log.fails[0].pattern, 0u);
  EXPECT_EQ(log.fails[0].output, 0u);
  EXPECT_EQ(log.fails[1].pattern, 2u);
  EXPECT_EQ(log.fails[2].pattern, 64u);
  EXPECT_EQ(log.fails[2].output, 1u);
  EXPECT_EQ(log.num_failing_patterns(), 3u);
}

TEST(FailureLog, IgnoresBitsBeyondPatternCount) {
  std::vector<Word> diff(1, ~Word{0});
  const FailureLog log = failure_log_from_diff(diff, 1, 10);
  EXPECT_EQ(log.fails.size(), 10u);
}

TEST(FailureLog, EmptyDetection) {
  FailureLog log;
  EXPECT_TRUE(log.empty());
  log.fails.push_back({0, 0});
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(log.size(), 1u);
}

}  // namespace
}  // namespace m3dfl::sim
