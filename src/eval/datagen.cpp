#include "eval/datagen.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <optional>
#include <span>

#include "common/executor.h"
#include "common/rng.h"
#include "compress/compactor.h"
#include "obs/metrics.h"
#include "obs/prof/counters.h"
#include "obs/trace.h"
#include "sim/bitpar/bitpar_sim.h"

namespace m3dfl::eval {

using netlist::SiteId;
using netlist::Tier;
using sim::FaultPolarity;
using sim::InjectedFault;

namespace {

FaultPolarity random_polarity(Rng& rng) {
  return rng.bernoulli(0.5) ? FaultPolarity::kSlowToRise
                            : FaultPolarity::kSlowToFall;
}

/// Draws the fault set for one sample according to the mode.
std::vector<InjectedFault> draw_faults(const Design& d, FaultMode mode,
                                       Rng& rng) {
  std::vector<InjectedFault> faults;
  switch (mode) {
    case FaultMode::kSingleSite: {
      const auto site =
          static_cast<SiteId>(rng.next_below(d.sites.size()));
      faults.push_back({site, random_polarity(rng)});
      break;
    }
    case FaultMode::kSingleMiv: {
      const std::vector<SiteId> mivs = d.sites.miv_sites(d.nl);
      if (mivs.empty()) break;
      faults.push_back({mivs[rng.pick_index(mivs)], random_polarity(rng)});
      break;
    }
    case FaultMode::kMultiSameTier: {
      const Tier tier = rng.bernoulli(0.5) ? Tier::kTop : Tier::kBottom;
      const int k = static_cast<int>(rng.uniform_int(2, 5));
      // Rejection-sample sites from the chosen tier (non-MIV, so the
      // defects are unambiguously tier-resident).
      int guard = 0;
      while (static_cast<int>(faults.size()) < k && guard < 2000) {
        ++guard;
        const auto site =
            static_cast<SiteId>(rng.next_below(d.sites.size()));
        if (d.sites.tier_of(site, d.nl) != tier) continue;
        if (d.sites.is_miv_site(site, d.nl)) continue;
        const bool dup = std::any_of(
            faults.begin(), faults.end(),
            [site](const InjectedFault& f) { return f.site == site; });
        if (dup) continue;
        faults.push_back({site, random_polarity(rng)});
      }
      break;
    }
  }
  return faults;
}

/// Post-acceptance labeling shared by both backends: truth sites, tier
/// label, MIV flag, and the back-traced sub-graph with labels filled.
void finalize_sample(const Design& design, Sample& sample) {
  sample.truth_sites.clear();
  for (const InjectedFault& f : sample.faults) {
    sample.truth_sites.push_back(f.site);
  }
  sample.fault_tier = static_cast<int>(
      design.sites.tier_of(sample.faults.front().site, design.nl));
  sample.truth_is_miv =
      design.sites.is_miv_site(sample.faults.front().site, design.nl);

  // Back-trace and label the sub-graph.
  sample.sub =
      graphx::backtrace_subgraph(*design.graph, sample.log, design.scan);
  sample.sub.label_tier = sample.fault_tier;
  sample.sub.truth_in_nodes = std::any_of(
      sample.truth_sites.begin(), sample.truth_sites.end(),
      [&sample](SiteId s) { return sample.sub.local_of(s) >= 0; });
  for (std::size_t k = 0; k < sample.sub.miv_local.size(); ++k) {
    const SiteId site = sample.sub.nodes[sample.sub.miv_local[k]];
    const bool faulty = std::find(sample.truth_sites.begin(),
                                  sample.truth_sites.end(),
                                  site) != sample.truth_sites.end();
    sample.sub.miv_label[k] = faulty ? 1.0f : 0.0f;
  }
}

/// Runs the Fig.-4 flow for sample `index` on its own RNG stream
/// (derive_seed(opts.seed, index)), making the result a pure function of
/// (design, opts, index) — the property every parallel shard and the
/// sequential loop share. Undetected draws and fully aliased compacted
/// responses both charge opts.max_retries; returns false when the budget
/// is exhausted (or the mode has nothing to draw).
bool generate_sample(const Design& design, const DatagenOptions& opts,
                     sim::FaultSimulator& fsim,
                     const compress::ResponseCompactor& compactor,
                     std::vector<sim::Word>& diff, std::size_t index,
                     Sample& sample) {
  Rng rng(derive_seed(opts.seed, index));
  bool ok = false;
  for (int attempt = 0; attempt < opts.max_retries && !ok; ++attempt) {
    sample.faults = draw_faults(design, opts.mode, rng);
    if (sample.faults.empty()) return false;  // Nothing to draw (no MIVs).
    if (!fsim.observed_diff(sample.faults, diff)) continue;  // Undetected.
    if (opts.compacted) {
      sample.log = compactor.failure_log_from_diff(diff, fsim.num_words(),
                                                   fsim.num_patterns());
      // XOR aliasing can cancel every miscompare; such a chip would pass
      // the compacted test. Retry within the same budget — a
      // pathologically aliasing design must not hang datagen.
      if (sample.log.empty()) continue;
    } else {
      sample.log = sim::failure_log_from_diff(diff, design.nl.num_outputs(),
                                              fsim.num_patterns());
    }
    ok = true;
  }
  if (!ok) return false;  // Retry budget exhausted; skip the sample.
  finalize_sample(design, sample);
  return true;
}

}  // namespace

Dataset generate_dataset(const Design& design, const DatagenOptions& opts) {
  M3DFL_OBS_SPAN(gen_span, "datagen.generate");
  const std::size_t n = opts.num_samples;
  const compress::ResponseCompactor compactor(design.scan);

  // Samples land in index-order slots; skipped indices are compacted out
  // at the end, so the merge is identical no matter which shard ran what.
  std::vector<Sample> slots(n);
  std::vector<std::uint8_t> present(n, 0);

  // Registry entries are process-lifetime stable, so hot loops may cache
  // references once instead of paying a map lookup per sample.
  auto& reg = obs::MetricsRegistry::instance();
  static obs::LatencyHistogram& sample_hist = reg.histogram("datagen.sample");
  static obs::Counter& samples_ctr = reg.counter("datagen.samples");
  static obs::Counter& skipped_ctr = reg.counter("datagen.skipped");
  static obs::Counter& sim_calls_ctr = reg.counter("sim.observed_diff_calls");
  static obs::Counter& sim_det_ctr = reg.counter("sim.detected");
  static obs::Counter& sim_events_ctr = reg.counter("sim.events_processed");
  static obs::Counter& sim_words_ctr = reg.counter("sim.words_evaluated");
  static obs::Counter& sim_cone_ctr = reg.counter("sim.cone_skips");
  static obs::Counter& sim_early_ctr = reg.counter("sim.early_exits");

  reg.gauge("sim.backend").set(static_cast<double>(opts.backend));

  auto run_range = [&](sim::FaultSimulator& fsim, std::size_t lo,
                       std::size_t hi) {
    M3DFL_OBS_SPAN(shard_span, "datagen.shard");
    M3DFL_OBS_COUNTERS(shard_ctrs, "datagen.shard");
    std::vector<sim::Word> diff;
    for (std::size_t i = lo; i < hi; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      present[i] = generate_sample(design, opts, fsim, compactor, diff, i,
                                   slots[i]);
      sample_hist.record(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
      (present[i] ? samples_ctr : skipped_ctr).add(1);
    }
    // take_stats() snapshots-and-resets, so a shard's simulator reused for
    // its next unit never re-flushes counts this unit already reported.
    const sim::FaultSimulator::SimStats d = fsim.take_stats();
    sim_calls_ctr.add(d.observed_diff_calls);
    sim_det_ctr.add(d.detected);
    sim_events_ctr.add(d.events_processed);
    sim_words_ctr.add(d.words_evaluated);
    sim_cone_ctr.add(d.cone_skips);
    sim_early_ctr.add(d.early_exits);
  };

  // Bit-parallel shard: windows of up to kMaxLanes sample indices run as
  // simulation waves. Each round draws one attempt for every still-active
  // sample in the window, sweeps them as one multi-fault batch (one lane
  // per sample), and judges each lane exactly as generate_sample judges
  // one observed_diff call. Per-sample RNG streams and retry budgets pass
  // through untouched, so the Dataset is bit-identical to the event
  // backend.
  const bool bitpar = opts.backend == sim::SimBackend::kBitParallel;
  std::optional<sim::bitpar::BitParallelSimulator> bp;
  if (bitpar) {
    bp.emplace(*design.core);
    reg.gauge("sim.simd_tier").set(static_cast<double>(bp->tier()));
  }
  using Workspace = sim::bitpar::BitParallelSimulator::Workspace;
  auto run_range_bp = [&](Workspace& ws, std::size_t lo, std::size_t hi) {
    M3DFL_OBS_SPAN(shard_span, "datagen.shard");
    M3DFL_OBS_COUNTERS(shard_ctrs, "datagen.shard");
    sim::bitpar::BitParallelSimulator::BatchResult res;
    std::vector<sim::Word> diff;
    struct Active {
      std::size_t index;
      Rng rng;
      int attempt = 0;
    };
    std::vector<Active> active;
    std::vector<std::span<const InjectedFault>> machines;
    for (std::size_t w0 = lo; w0 < hi; w0 += sim::bitpar::kMaxLanes) {
      const std::size_t w1 = std::min(hi, w0 + sim::bitpar::kMaxLanes);
      const auto t0 = std::chrono::steady_clock::now();
      active.clear();
      for (std::size_t i = w0; i < w1; ++i) {
        active.push_back({i, Rng(derive_seed(opts.seed, i))});
      }
      while (!active.empty()) {
        machines.clear();
        std::size_t keep = 0;
        for (std::size_t a = 0; a < active.size(); ++a) {
          Active st = std::move(active[a]);
          Sample& sample = slots[st.index];
          sample.faults = draw_faults(design, opts.mode, st.rng);
          if (sample.faults.empty()) {
            // Nothing to draw (no MIVs) — generate_sample fails such a
            // sample immediately, outside the retry budget.
            skipped_ctr.add(1);
            continue;
          }
          machines.push_back(
              {sample.faults.data(), sample.faults.size()});
          active[keep++] = std::move(st);
        }
        active.resize(keep);
        if (active.empty()) break;
        bp->run_machines(machines, ws, res);
        keep = 0;
        for (std::size_t j = 0; j < active.size(); ++j) {
          Active st = std::move(active[j]);
          Sample& sample = slots[st.index];
          ++st.attempt;
          bool ok = false;
          if (res.detected_lane(j)) {
            if (opts.compacted) {
              res.diff_of(j, diff);
              sample.log = compactor.failure_log_from_diff(
                  diff, design.fsim->num_words(),
                  design.fsim->num_patterns());
              // XOR aliasing can cancel every miscompare; retry within
              // the same budget (mirrors generate_sample).
              ok = !sample.log.empty();
            } else {
              sample.log = res.failure_log_of(j);
              ok = true;
            }
          }
          if (ok) {
            finalize_sample(design, sample);
            present[st.index] = 1;
            samples_ctr.add(1);
          } else if (st.attempt >= opts.max_retries) {
            skipped_ctr.add(1);
          } else {
            active[keep++] = std::move(st);
          }
        }
        active.resize(keep);
      }
      // The wave sweeps every lane at once, so individual sample timings
      // don't exist — record the window's wall time amortized per sample.
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      for (std::size_t i = w0; i < w1; ++i) {
        sample_hist.record(elapsed / static_cast<double>(w1 - w0));
      }
    }
    sim::bitpar::flush_bitpar_metrics(ws.stats);
  };

  // Work units are contiguous sample ranges: the whole set when one shard
  // runs, else about four per shard. Every unit is one bit-parallel sweep
  // span, so the lane packing follows from the thread count alone, never
  // from which shard claimed what. Per-shard state is made on the shard's
  // own worker at its first unit: event shard 0 runs on the design's
  // simulator and every other shard clones a workspace (clone() only reads
  // the shared core); bit-parallel shards share the one immutable simulator
  // and own a Workspace each. The netlist's lazy topo/level caches are
  // unsynchronized, so they are warmed before the fan-out.
  const std::size_t shards = std::min(resolve_num_threads(opts.num_threads),
                                      std::max<std::size_t>(n, 1));
  const std::size_t units = shards > 1 ? std::min(n, shards * 4) : 1;
  const std::size_t span = std::max<std::size_t>(1, (n + units - 1) / units);
  if (shards > 1) {
    design.nl.topo_order();
    design.nl.levels();
    design.nl.depth();
  }
  std::vector<std::unique_ptr<sim::FaultSimulator>> clones(shards);
  std::vector<std::unique_ptr<Workspace>> workspaces(shards);
  auto run_units = [&](std::size_t shard, std::size_t u0, std::size_t u1) {
    for (std::size_t u = u0; u < u1; ++u) {
      const std::size_t lo = u * span, hi = std::min(n, lo + span);
      if (bitpar) {
        std::unique_ptr<Workspace>& ws = workspaces[shard];
        if (!ws) ws = std::make_unique<Workspace>();
        run_range_bp(*ws, lo, hi);
      } else {
        std::unique_ptr<sim::FaultSimulator>& own = clones[shard];
        if (shard > 0 && !own) own = design.fsim->clone();
        run_range(shard == 0 ? *design.fsim : *own, lo, hi);
      }
    }
  };
  for_each_chunk(shards, (n + span - 1) / span, 1, "datagen", run_units);

  Dataset ds;
  ds.samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (present[i]) ds.samples.push_back(std::move(slots[i]));
  }
  return ds;
}

std::vector<gnn::LabeledGraph> tier_labeled(const Dataset& ds) {
  std::vector<gnn::LabeledGraph> out;
  out.reserve(ds.samples.size());
  for (const Sample& s : ds.samples) {
    if (s.sub.num_nodes() == 0) continue;
    out.push_back({&s.sub, s.fault_tier});
  }
  return out;
}

std::vector<const graphx::SubGraph*> graphs_of(const Dataset& ds) {
  std::vector<const graphx::SubGraph*> out;
  out.reserve(ds.samples.size());
  for (const Sample& s : ds.samples) {
    if (s.sub.num_nodes() == 0) continue;
    out.push_back(&s.sub);
  }
  return out;
}

}  // namespace m3dfl::eval
