// Tests of the bit-parallel fault-simulation backend: arena invariants,
// SIMD-tier dispatch, golden equivalence against the event-driven engine
// (all five polarities, stem/branch sites, multi-fault machines, partial
// tail words, batch-size boundaries), and campaign-level parity of the
// dictionary build and dataset generation under --sim-backend=bitpar.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "diagnosis/dictionary.h"
#include "eval/benchmarks.h"
#include "eval/datagen.h"
#include "netlist/generators.h"
#include "sim/backend.h"
#include "sim/bitpar/arena.h"
#include "sim/bitpar/bitpar_sim.h"
#include "sim/bitpar/dispatch.h"
#include "sim/failure_log.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"

namespace m3dfl::sim {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::SiteTable;
using bitpar::BitParallelSimulator;
using bitpar::NetlistArena;
using bitpar::SimdTier;

constexpr FaultPolarity kPolarityCycle[] = {
    FaultPolarity::kSlowToRise, FaultPolarity::kSlowToFall,
    FaultPolarity::kSlow, FaultPolarity::kStuckAt0, FaultPolarity::kStuckAt1};

/// Generated netlist + bound event simulator + bit-parallel simulator
/// over the event simulator's core (same recipe as sim_test's
/// FaultSimFixture, so the two suites exercise comparable designs).
struct BitParFixture {
  Netlist nl;
  SiteTable sites;
  FaultSimulator fsim;
  std::optional<BitParallelSimulator> bp;
  PatternSet v1, v2;

  explicit BitParFixture(std::uint64_t seed, std::size_t patterns = 96,
                         SimdTier tier = bitpar::resolve_tier())
      : nl(make(seed)), sites(nl), fsim(nl, sites) {
    Rng rng(seed + 100);
    v1 = PatternSet::random(nl.num_inputs(), patterns, rng);
    v2 = PatternSet::random(nl.num_inputs(), patterns, rng);
    fsim.bind(v1, v2);
    bp.emplace(fsim.core(), tier);
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

// --- Arena -------------------------------------------------------------------

TEST(NetlistArena, RenumberingRoundTripsAndIsTopological) {
  const Netlist nl = BitParFixture::make(11);
  const SiteTable sites(nl);
  const NetlistArena arena(nl, sites);

  ASSERT_EQ(arena.num_gates(), nl.num_gates());
  ASSERT_EQ(arena.num_outputs(), nl.num_outputs());
  for (std::uint32_t u = 0; u < arena.num_gates(); ++u) {
    EXPECT_EQ(arena.arena_of(arena.orig_of(u)), u);
    EXPECT_EQ(arena.type(u), nl.gate(arena.orig_of(u)).type);
    // Ascending arena id is a valid evaluation order.
    for (std::uint32_t f : arena.fanin(u)) ASSERT_LT(f, u);
    // Fanin lists preserve pin order.
    const auto& orig = nl.gate(arena.orig_of(u));
    ASSERT_EQ(arena.fanin(u).size(), orig.fanin.size());
    for (std::size_t k = 0; k < orig.fanin.size(); ++k) {
      EXPECT_EQ(arena.orig_of(arena.fanin(u)[k]), orig.fanin[k]);
    }
  }
}

TEST(NetlistArena, LevelsPartitionTheGateRange) {
  const Netlist nl = BitParFixture::make(12);
  const SiteTable sites(nl);
  const NetlistArena arena(nl, sites);
  std::uint32_t covered = 0;
  for (std::uint32_t l = 0; l < arena.num_levels(); ++l) {
    ASSERT_EQ(arena.level_begin(l), covered);
    ASSERT_LE(arena.level_begin(l), arena.level_end(l));
    for (std::uint32_t u = arena.level_begin(l); u < arena.level_end(l);
         ++u) {
      EXPECT_EQ(arena.level(u), l);
    }
    covered = arena.level_end(l);
  }
  EXPECT_EQ(covered, arena.num_gates());
}

TEST(NetlistArena, SitesAndOutputsAreRebased) {
  const Netlist nl = BitParFixture::make(13);
  const SiteTable sites(nl);
  const NetlistArena arena(nl, sites);
  ASSERT_EQ(arena.num_sites(), sites.size());
  for (netlist::SiteId s = 0; s < sites.size(); ++s) {
    const auto& orig = sites.site(s);
    const auto& ref = arena.site(s);
    EXPECT_EQ(arena.orig_of(ref.gate), orig.gate);
    EXPECT_EQ(arena.orig_of(ref.driver), orig.driver);
    EXPECT_EQ(ref.pin, orig.pin);
    EXPECT_EQ(ref.is_stem(), orig.is_stem());
  }
  // Every observed gate carries its observation-point indices, and every
  // output gate is trivially observable.
  std::size_t taps = 0;
  for (std::uint32_t u = 0; u < arena.num_gates(); ++u) {
    for (std::uint32_t o : arena.outputs_of(u)) {
      EXPECT_EQ(arena.arena_of(nl.outputs()[o]), u);
      EXPECT_TRUE(arena.observable(u));
      ++taps;
    }
  }
  EXPECT_EQ(taps, nl.num_outputs());
}

// --- Dispatch ----------------------------------------------------------------

TEST(Dispatch, TierNamesRoundTrip) {
  for (SimdTier t :
       {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2}) {
    const auto parsed = bitpar::parse_tier(bitpar::tier_name(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(bitpar::parse_tier("avx512").has_value());
  EXPECT_FALSE(bitpar::parse_tier("").has_value());
}

TEST(Dispatch, ScalarIsAlwaysAvailableAndBestIsAvailable) {
  EXPECT_TRUE(bitpar::tier_available(SimdTier::kScalar));
  EXPECT_TRUE(bitpar::tier_available(bitpar::best_tier()));
}

TEST(Dispatch, ForceOverridesEnvAndFallsBackWhenUnavailable) {
  bitpar::force_tier(SimdTier::kScalar);
  EXPECT_EQ(bitpar::resolve_tier(), SimdTier::kScalar);
  bitpar::force_tier(std::nullopt);

  setenv("M3DFL_SIMD", "scalar", 1);
  EXPECT_EQ(bitpar::resolve_tier(), SimdTier::kScalar);
  // The forced tier wins over the environment.
  bitpar::force_tier(bitpar::best_tier());
  EXPECT_EQ(bitpar::resolve_tier(), bitpar::best_tier());
  bitpar::force_tier(std::nullopt);
  // Unknown env values fall back to the best tier (with a notice).
  setenv("M3DFL_SIMD", "quantum", 1);
  EXPECT_EQ(bitpar::resolve_tier(), bitpar::best_tier());
  unsetenv("M3DFL_SIMD");
}

TEST(Dispatch, BackendNamesParse) {
  EXPECT_EQ(parse_backend("event"), SimBackend::kEvent);
  EXPECT_EQ(parse_backend("bitpar"), SimBackend::kBitParallel);
  EXPECT_EQ(parse_backend("bit-parallel"), SimBackend::kBitParallel);
  EXPECT_FALSE(parse_backend("gpu").has_value());
  EXPECT_STREQ(backend_name(SimBackend::kEvent), "event");
  EXPECT_STREQ(backend_name(SimBackend::kBitParallel), "bitpar");
}

// --- Golden equivalence vs the event-driven engine ---------------------------

/// Compares every lane of `res` against an event-engine observed_diff of
/// the same machine: detection flag, dense diff, sorted keys, and the
/// uncompacted failure log.
void expect_lanes_match_event(
    BitParFixture& fx, std::span<const std::vector<InjectedFault>> machines,
    const BitParallelSimulator::BatchResult& res, const char* what) {
  const std::size_t W = fx.fsim.num_words();
  std::vector<Word> ev_diff, bp_diff;
  std::vector<std::uint64_t> keys;
  for (std::size_t j = 0; j < machines.size(); ++j) {
    const bool ev_detected = fx.fsim.observed_diff(machines[j], ev_diff);
    ASSERT_EQ(res.detected_lane(j), ev_detected)
        << what << " lane " << j;
    ASSERT_EQ(res.diff_of(j, bp_diff), ev_detected) << what << " lane " << j;
    ASSERT_EQ(bp_diff, ev_diff) << what << " lane " << j;

    // keys_of must equal the sorted (output << 32 | pattern) bits of the
    // event diff — the dictionary signature contract.
    res.keys_of(j, keys);
    std::vector<std::uint64_t> ev_keys;
    for (std::size_t o = 0; o < fx.nl.num_outputs(); ++o) {
      for (std::size_t w = 0; w < W; ++w) {
        for (Word m = ev_diff[o * W + w]; m; m &= m - 1) {
          const std::size_t p =
              w * kWordBits +
              static_cast<std::size_t>(std::countr_zero(m));
          if (p < fx.fsim.num_patterns()) {
            ev_keys.push_back((static_cast<std::uint64_t>(o) << 32) | p);
          }
        }
      }
    }
    std::sort(ev_keys.begin(), ev_keys.end());
    ASSERT_EQ(keys, ev_keys) << what << " lane " << j;

    const FailureLog ev_log = failure_log_from_diff(
        ev_diff, fx.nl.num_outputs(), fx.fsim.num_patterns());
    const FailureLog bp_log = res.failure_log_of(j);
    ASSERT_EQ(bp_log.compacted, ev_log.compacted);
    ASSERT_EQ(bp_log.fails, ev_log.fails) << what << " lane " << j;
  }
}

/// Seed x pattern-count sweep; counts cover a single pattern, both sides
/// of every word boundary, interior partial tails, and full words.
class BitParGolden
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(BitParGolden, EverySiteEveryPolarityMatchesEventEngine) {
  const auto [seed, patterns] = GetParam();
  BitParFixture fx(seed, patterns);

  // All (site, polarity) jobs, packed kMaxLanes per batch — stem and
  // branch sites, every polarity, including never-activated faults.
  std::vector<InjectedFault> jobs;
  for (netlist::SiteId s = 0; s < fx.sites.size(); ++s) {
    for (FaultPolarity pol : kPolarityCycle) jobs.push_back({s, pol});
  }
  BitParallelSimulator::Workspace ws;
  BitParallelSimulator::BatchResult res;
  std::vector<std::vector<InjectedFault>> machines;
  for (std::size_t base = 0; base < jobs.size();
       base += bitpar::kMaxLanes) {
    const std::size_t count =
        std::min(bitpar::kMaxLanes, jobs.size() - base);
    fx.bp->run(std::span<const InjectedFault>(jobs).subspan(base, count), ws,
               res);
    machines.clear();
    for (std::size_t j = 0; j < count; ++j) {
      machines.push_back({jobs[base + j]});
    }
    expect_lanes_match_event(fx, machines, res, "single-fault");
  }
  EXPECT_GT(ws.stats.faults, 0u);
}

TEST_P(BitParGolden, MultiFaultMachinesMatchEventEngine) {
  const auto [seed, patterns] = GetParam();
  BitParFixture fx(seed + 500, patterns);
  Rng rng(seed + 60);

  // 100 machines of 2-3 faults at distinct gates (same contract as the
  // event engine's multi-fault tests), mixed polarities, plus a sprinkle
  // of empty machines, swept as one batch.
  std::vector<std::vector<InjectedFault>> machines;
  for (int m = 0; m < 100; ++m) {
    std::vector<InjectedFault> faults;
    if (m % 17 == 0) {
      machines.push_back(faults);  // Empty machine: must stay silent.
      continue;
    }
    const std::size_t k = 2 + m % 2;
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
      faults.push_back({site, kPolarityCycle[rng.next_below(5)]});
    }
    ASSERT_EQ(faults.size(), k);
    machines.push_back(std::move(faults));
  }
  std::vector<std::span<const InjectedFault>> spans;
  for (const auto& m : machines) spans.push_back({m.data(), m.size()});

  BitParallelSimulator::Workspace ws;
  BitParallelSimulator::BatchResult res;
  fx.bp->run_machines(spans, ws, res);
  expect_lanes_match_event(fx, machines, res, "multi-fault");
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTails, BitParGolden,
    ::testing::Combine(
        ::testing::Values<std::uint64_t>(41, 42),
        ::testing::Values<std::size_t>(1, 63, 65, 70, 96, 127, 128)));

TEST(BitParallelSimulator, LaneResultsAreIndependentOfBatchSize) {
  BitParFixture fx(47, 96);
  // The same fault must produce identical results whether it rides in a
  // batch of 1, shares a partial tail word (63/65), or fills the machine
  // (512 lanes, cycling the site list).
  BitParallelSimulator::Workspace ws;
  BitParallelSimulator::BatchResult res;
  std::vector<Word> solo_diff, batched_diff;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65},
                                  std::size_t{512}}) {
    std::vector<InjectedFault> jobs;
    for (std::size_t j = 0; j < batch; ++j) {
      const auto site = static_cast<netlist::SiteId>(
          (j * 7) % fx.sites.size());
      jobs.push_back({site, kPolarityCycle[j % 5]});
    }
    fx.bp->run(jobs, ws, res);
    ASSERT_EQ(res.num_machines, batch);
    for (std::size_t j = 0; j < batch; ++j) {
      BitParallelSimulator::BatchResult solo;
      fx.bp->run(std::span<const InjectedFault>(&jobs[j], 1), ws, solo);
      ASSERT_EQ(solo.detected_lane(0), res.detected_lane(j))
          << "batch " << batch << " lane " << j;
      solo.diff_of(0, solo_diff);
      res.diff_of(j, batched_diff);
      ASSERT_EQ(batched_diff, solo_diff)
          << "batch " << batch << " lane " << j;
    }
  }
}

/// Forced-tier equivalence: each compiled-in SIMD tier must reproduce the
/// event engine bit-for-bit. Skips (with a notice) tiers the host cannot
/// run — the CI dispatch matrix forces each tier on capable runners.
class BitParTier : public ::testing::TestWithParam<SimdTier> {};

TEST_P(BitParTier, MatchesEventEngineOnPartialTailWords) {
  const SimdTier tier = GetParam();
  if (!bitpar::tier_available(tier)) {
    GTEST_SKIP() << "SIMD tier " << bitpar::tier_name(tier)
                 << " not available on this host";
  }
  for (const std::size_t patterns : {std::size_t{70}, std::size_t{128}}) {
    BitParFixture fx(53, patterns, tier);
    ASSERT_EQ(fx.bp->tier(), tier);
    std::vector<InjectedFault> jobs;
    for (netlist::SiteId s = 0; s < fx.sites.size(); ++s) {
      jobs.push_back({s, kPolarityCycle[s % 5]});
    }
    BitParallelSimulator::Workspace ws;
    BitParallelSimulator::BatchResult res;
    std::vector<std::vector<InjectedFault>> machines;
    for (std::size_t base = 0; base < jobs.size();
         base += bitpar::kMaxLanes) {
      const std::size_t count =
          std::min(bitpar::kMaxLanes, jobs.size() - base);
      fx.bp->run(std::span<const InjectedFault>(jobs).subspan(base, count),
                 ws, res);
      machines.clear();
      for (std::size_t j = 0; j < count; ++j) {
        machines.push_back({jobs[base + j]});
      }
      expect_lanes_match_event(fx, machines, res,
                               bitpar::tier_name(tier));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, BitParTier,
                         ::testing::Values(SimdTier::kScalar,
                                           SimdTier::kSse2,
                                           SimdTier::kAvx2),
                         [](const auto& info) {
                           return bitpar::tier_name(info.param);
                         });

// --- Campaign parity ---------------------------------------------------------

TEST(DictionaryBackend, FingerprintMatchesEventAtEveryThreadCount) {
  const Netlist nl = BitParFixture::make(61);
  const SiteTable sites(nl);
  FaultSimulator fsim(nl, sites);
  Rng rng(161);
  const PatternSet v1 = PatternSet::random(nl.num_inputs(), 96, rng);
  const PatternSet v2 = PatternSet::random(nl.num_inputs(), 96, rng);
  fsim.bind(v1, v2);

  diag::FaultDictionaryOptions ev_opts;
  ev_opts.num_threads = 1;
  const diag::FaultDictionary event_dict(nl, sites, fsim, ev_opts);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    diag::FaultDictionaryOptions bp_opts;
    bp_opts.backend = SimBackend::kBitParallel;
    bp_opts.num_threads = threads;
    const diag::FaultDictionary bp_dict(nl, sites, fsim, bp_opts);
    EXPECT_EQ(bp_dict.num_entries(), event_dict.num_entries())
        << "threads " << threads;
    EXPECT_EQ(bp_dict.fingerprint(), event_dict.fingerprint())
        << "threads " << threads;
    EXPECT_EQ(bp_dict.signature_bytes(), event_dict.signature_bytes());
  }
}

void expect_datasets_equal(const eval::Dataset& a, const eval::Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const eval::Sample& x = a.samples[i];
    const eval::Sample& y = b.samples[i];
    ASSERT_EQ(x.faults, y.faults) << "sample " << i;
    ASSERT_EQ(x.truth_sites, y.truth_sites) << "sample " << i;
    ASSERT_EQ(x.fault_tier, y.fault_tier) << "sample " << i;
    ASSERT_EQ(x.truth_is_miv, y.truth_is_miv) << "sample " << i;
    ASSERT_EQ(x.log.compacted, y.log.compacted) << "sample " << i;
    ASSERT_EQ(x.log.fails, y.log.fails) << "sample " << i;
    ASSERT_EQ(x.log.cfails, y.log.cfails) << "sample " << i;
    ASSERT_EQ(x.sub.nodes, y.sub.nodes) << "sample " << i;
  }
}

TEST(DatagenBackend, BitParDatasetIsBitIdenticalToEvent) {
  const eval::Design& d =
      eval::cached_design(eval::tiny_spec(), eval::Config::kSyn1);
  for (const bool compacted : {false, true}) {
    eval::DatagenOptions o;
    o.num_samples = 40;
    o.seed = 9;
    o.compacted = compacted;
    o.num_threads = 1;
    const eval::Dataset event_ds = eval::generate_dataset(d, o);
    ASSERT_GT(event_ds.size(), 0u);

    o.backend = SimBackend::kBitParallel;
    const eval::Dataset bp_ds = eval::generate_dataset(d, o);
    expect_datasets_equal(event_ds, bp_ds);

    // Thread count is a pure speed knob for the bitpar path too.
    o.num_threads = 3;
    const eval::Dataset bp_mt = eval::generate_dataset(d, o);
    expect_datasets_equal(event_ds, bp_mt);
  }
}

TEST(DatagenBackend, MultiFaultModeMatchesEvent) {
  const eval::Design& d =
      eval::cached_design(eval::tiny_spec(), eval::Config::kSyn1);
  eval::DatagenOptions o;
  o.num_samples = 25;
  o.seed = 17;
  o.mode = eval::FaultMode::kMultiSameTier;
  o.num_threads = 1;
  const eval::Dataset event_ds = eval::generate_dataset(d, o);
  ASSERT_GT(event_ds.size(), 0u);
  o.backend = SimBackend::kBitParallel;
  const eval::Dataset bp_ds = eval::generate_dataset(d, o);
  expect_datasets_equal(event_ds, bp_ds);
}

}  // namespace
}  // namespace m3dfl::sim
