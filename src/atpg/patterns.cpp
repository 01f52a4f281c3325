#include "atpg/patterns.h"

#include <algorithm>

#include "atpg/coverage.h"
#include "atpg/podem.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "sim/fault_sim.h"

namespace m3dfl::atpg {

using sim::PatternSet;

sim::PatternSet generate_tdf_patterns(const netlist::Netlist& nl,
                                      const PatternGenOptions& opts) {
  Rng rng(opts.seed);
  sim::PatternSet ps(nl.num_inputs(), opts.num_patterns);
  // Weighted-random: each input gets a weight in {1/(L+1) .. L/(L+1)} per
  // pattern *block*, re-drawn every word to vary the bias over time.
  const int L = opts.weight_levels;
  for (std::size_t i = 0; i < ps.num_inputs(); ++i) {
    for (std::size_t w = 0; w < ps.num_words(); ++w) {
      const double p =
          static_cast<double>(rng.uniform_int(1, L)) / static_cast<double>(L + 1);
      sim::Word word = 0;
      for (std::size_t b = 0; b < sim::kWordBits; ++b) {
        if (rng.bernoulli(p)) word |= sim::Word{1} << b;
      }
      ps.word(i, w) = word & ps.valid_mask(w);
    }
  }
  return ps;
}

namespace {

/// Copies `src` into the first src.num_patterns() slots of a larger set.
PatternSet grow(const PatternSet& src, std::size_t new_count) {
  PatternSet out(src.num_inputs(), new_count);
  for (std::size_t i = 0; i < src.num_inputs(); ++i) {
    for (std::size_t p = 0; p < src.num_patterns(); ++p) {
      out.set_bit(i, p, src.bit(i, p));
    }
  }
  return out;
}

void fill_pattern(PatternSet& ps, std::size_t slot,
                  const std::vector<V3>& assign, Rng& rng) {
  for (std::size_t i = 0; i < ps.num_inputs(); ++i) {
    const V3 v = assign[i];
    const bool bit = v == V3::kX ? rng.bernoulli(0.5) : v == V3::k1;
    ps.set_bit(i, slot, bit);
  }
}

}  // namespace

TdfPatternPair generate_tdf_patterns_with_topoff(
    std::shared_ptr<const sim::bitpar::NetlistArena> arena,
    const netlist::SiteTable& sites, const PatternGenOptions& opts,
    std::size_t max_topoff, std::size_t num_threads) {
  const netlist::Netlist& nl = arena->netlist();
  TdfPatternPair pair;
  pair.num_random = opts.num_patterns;

  PatternGenOptions v2_opts = opts;
  v2_opts.seed = derive_seed(opts.seed, 0x5eed);
  PatternSet v1 = generate_tdf_patterns(nl, opts);
  PatternSet v2 = generate_tdf_patterns(nl, v2_opts);

  // Fault-dropping pass over the random base. One workspace serves every
  // pass; each pass binds a core of its own patterns over the one arena,
  // and detect_faults() shards the pass over clones of the workspace.
  auto core_of = [&](const PatternSet& a, const PatternSet& b) {
    return std::make_shared<const sim::SimCore>(
        arena, sim::simulate_two_vector(nl, a, b));
  };
  std::shared_ptr<const sim::SimCore> base_core = core_of(v1, v2);
  sim::FaultSimulator fsim(base_core);
  // Faults not yet detected, in fault-list order, and whether PODEM has
  // already targeted each.
  std::vector<sim::InjectedFault> pending = enumerate_tdf_faults(sites);
  std::vector<std::uint8_t> targeted(pending.size(), 0);
  const std::size_t total_faults = pending.size();
  std::size_t detected = 0;
  // Drops every pending fault the bound patterns detect, keeping the
  // survivors in order, so the result is the same at any thread count.
  auto drop_detected = [&] {
    const std::vector<std::uint8_t> hit =
        detect_faults(fsim, pending, num_threads);
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (hit[i]) continue;
      pending[keep] = pending[i];
      targeted[keep] = targeted[i];
      ++keep;
    }
    detected += pending.size() - keep;
    pending.resize(keep);
    targeted.resize(keep);
  };
  {
    M3DFL_OBS_SPAN(drop_span, "design.fault_drop");
    drop_detected();
  }

  // Deterministic top-off, in blocks of up to 64 patterns so fortuitous
  // detection by the random X-fill drops faults cheaply.
  Podem podem(nl, sites);
  Rng fill_rng(derive_seed(opts.seed, 0xf111));
  std::size_t added = 0;
  while (added < max_topoff) {
    const std::size_t block = std::min<std::size_t>(64, max_topoff - added);
    PatternSet bv1(nl.num_inputs(), block);
    PatternSet bv2(nl.num_inputs(), block);
    std::size_t produced = 0;
    for (std::size_t i = 0; i < pending.size() && produced < block; ++i) {
      if (targeted[i]) continue;
      targeted[i] = 1;
      const Podem::Result r = podem.generate(pending[i]);
      if (r.untestable) ++pair.num_untestable;
      if (!r.success) continue;
      fill_pattern(bv1, produced, r.v1_inputs, fill_rng);
      fill_pattern(bv2, produced, r.v2_inputs, fill_rng);
      ++produced;
    }
    if (produced == 0) break;  // Every remaining target failed PODEM.
    added += produced;

    // Append the produced block to the full pattern pair.
    const std::size_t old_count = v1.num_patterns();
    PatternSet nv1 = grow(v1, old_count + produced);
    PatternSet nv2 = grow(v2, old_count + produced);
    for (std::size_t p = 0; p < produced; ++p) {
      for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
        nv1.set_bit(i, old_count + p, bv1.bit(i, p));
        nv2.set_bit(i, old_count + p, bv2.bit(i, p));
      }
    }
    v1 = std::move(nv1);
    v2 = std::move(nv2);

    // Drop everything the new block detects (detection is monotone in the
    // pattern set, so simulating just the block is sufficient).
    PatternSet sv1(nl.num_inputs(), produced);
    PatternSet sv2(nl.num_inputs(), produced);
    for (std::size_t p = 0; p < produced; ++p) {
      for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
        sv1.set_bit(i, p, bv1.bit(i, p));
        sv2.set_bit(i, p, bv2.bit(i, p));
      }
    }
    fsim.bind(core_of(sv1, sv2));
    drop_detected();
  }

  pair.core = added == 0 ? std::move(base_core) : core_of(v1, v2);
  pair.v1 = std::move(v1);
  pair.v2 = std::move(v2);
  pair.num_topoff = added;
  pair.coverage =
      total_faults ? static_cast<double>(detected) / total_faults : 0.0;
  const std::size_t testable = total_faults - pair.num_untestable;
  pair.test_coverage =
      testable ? static_cast<double>(detected) / testable : 0.0;
  return pair;
}

}  // namespace m3dfl::atpg
