#include "diagnosis/dictionary.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <iterator>
#include <memory>
#include <optional>
#include <queue>

#include "common/executor.h"
#include "obs/metrics.h"
#include "obs/prof/counters.h"
#include "obs/trace.h"
#include "sim/bitpar/bitpar_sim.h"

namespace m3dfl::diag {

namespace {

std::vector<std::uint64_t> keys_from_diff(
    std::span<const sim::Word> diff,
    std::span<const std::uint32_t> touched_outputs, std::size_t W,
    std::size_t num_patterns) {
  std::vector<std::uint64_t> keys;
  // Only the touched rows can hold miscompares (duplicate-free by the
  // simulator's epoch tracking); every other diff row is guaranteed zero,
  // so the scan skips the untouched bulk of the response space.
  for (std::uint32_t o : touched_outputs) {
    for (std::size_t w = 0; w < W; ++w) {
      sim::Word m = diff[static_cast<std::size_t>(o) * W + w];
      while (m) {
        const int bit = std::countr_zero(m);
        m &= m - 1;
        const std::size_t p = w * sim::kWordBits + static_cast<std::size_t>(bit);
        if (p < num_patterns) {
          keys.push_back((static_cast<std::uint64_t>(o) << 32) | p);
        }
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Count-only sorted intersection (no materialized output).
std::size_t intersection_size(const std::vector<std::uint64_t>& a,
                              const std::vector<std::uint64_t>& b) {
  std::size_t n = 0, i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

}  // namespace

std::uint64_t FaultDictionary::hash_keys(
    const std::vector<std::uint64_t>& keys) {
  // FNV-1a over the sorted key stream.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t k : keys) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (k >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

const std::vector<std::uint64_t>& FaultDictionary::keys_of(
    const Entry& e, std::vector<std::uint64_t>& scratch) const {
  if (store_ == nullptr) return e.keys;
  store_->decode(e.ref, scratch);
  return scratch;
}

FaultDictionary::FaultDictionary(const netlist::Netlist& nl,
                                 const netlist::SiteTable& sites,
                                 sim::FaultSimulator& fsim,
                                 FaultDictionaryOptions options)
    : nl_(&nl), sites_(&sites), options_(options) {
  M3DFL_OBS_SPAN(build_span, "dictionary.build");
  M3DFL_OBS_COUNTERS(build_ctrs, "dictionary.build");
  const std::size_t W = fsim.num_words();
  const std::size_t num_sites = sites.size();

  auto& reg = obs::MetricsRegistry::instance();
  static obs::LatencyHistogram& shard_hist = reg.histogram("dictionary.shard");
  static obs::Counter& sim_calls_ctr = reg.counter("sim.observed_diff_calls");
  static obs::Counter& sim_det_ctr = reg.counter("sim.detected");
  static obs::Counter& sim_events_ctr = reg.counter("sim.events_processed");
  static obs::Counter& sim_words_ctr = reg.counter("sim.words_evaluated");
  static obs::Counter& sim_cone_ctr = reg.counter("sim.cone_skips");
  static obs::Counter& sim_early_ctr = reg.counter("sim.early_exits");

  reg.gauge("sim.backend").set(static_cast<double>(options.backend));

  if (!options.spill_path.empty()) {
    store_ = std::make_unique<compress::SignatureStore>(options.spill_path);
  }

  // Completes an entry whose keys were just simulated: hash + count always;
  // in spill mode the keys move to the store and only the ref stays
  // resident, so a shard's memory high-water mark is one signature.
  auto finish_entry = [this](Entry& e) {
    e.hash = hash_keys(e.keys);
    e.count = static_cast<std::uint32_t>(e.keys.size());
    if (store_ != nullptr) {
      e.ref = store_->append(e.keys);
      e.keys = {};
    }
  };

  // Simulates the given sites (ascending within the list) into `out`,
  // preserving the site-then-polarity entry order the sequential campaign
  // produces.
  auto build_sites = [&](sim::FaultSimulator& sim_,
                         std::span<const netlist::SiteId> site_list,
                         std::vector<Entry>& out) {
    M3DFL_OBS_SPAN(shard_span, "dictionary.shard");
    M3DFL_OBS_COUNTERS(shard_ctrs, "dictionary.shard");
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<sim::Word> diff;
    std::vector<std::uint32_t> touched;
    for (netlist::SiteId s : site_list) {
      for (sim::FaultPolarity pol : options.polarities) {
        if (!sim_.observed_diff({s, pol}, diff, &touched)) continue;
        Entry e;
        e.site = s;
        e.polarity = pol;
        e.keys = keys_from_diff(diff, touched, W, sim_.num_patterns());
        finish_entry(e);
        out.push_back(std::move(e));
      }
    }
    // take_stats() snapshots-and-resets, so a shard's simulator reused for
    // its next unit never re-flushes counts this unit already reported.
    const sim::FaultSimulator::SimStats d = sim_.take_stats();
    sim_calls_ctr.add(d.observed_diff_calls);
    sim_det_ctr.add(d.detected);
    sim_events_ctr.add(d.events_processed);
    sim_words_ctr.add(d.words_evaluated);
    sim_cone_ctr.add(d.cone_skips);
    sim_early_ctr.add(d.early_exits);
    shard_hist.record(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  };

  // Bit-parallel variant of build_sites: packs the shard's (site, polarity)
  // jobs up to kMaxLanes per sweep, in site-major order, so the entry
  // sequence (and thus fingerprint()) matches the event campaign exactly.
  // It simulates over fsim's core.
  const bool bitpar = options.backend == sim::SimBackend::kBitParallel;
  std::optional<sim::bitpar::BitParallelSimulator> bp;
  if (bitpar) {
    bp.emplace(fsim.core());
    reg.gauge("sim.simd_tier").set(static_cast<double>(bp->tier()));
  }
  using Workspace = sim::bitpar::BitParallelSimulator::Workspace;
  auto build_sites_bp = [&](Workspace& ws,
                            std::span<const netlist::SiteId> site_list,
                            std::vector<Entry>& out) {
    M3DFL_OBS_SPAN(shard_span, "dictionary.shard");
    M3DFL_OBS_COUNTERS(shard_ctrs, "dictionary.shard");
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<sim::InjectedFault> jobs;
    jobs.reserve(site_list.size() * 2);
    for (netlist::SiteId s : site_list) {
      for (sim::FaultPolarity pol : options.polarities) {
        jobs.push_back({s, pol});
      }
    }
    sim::bitpar::BitParallelSimulator::BatchResult res;
    std::vector<std::uint64_t> keys;
    for (std::size_t base = 0; base < jobs.size();
         base += sim::bitpar::kMaxLanes) {
      const std::size_t count =
          std::min(sim::bitpar::kMaxLanes, jobs.size() - base);
      bp->run(std::span<const sim::InjectedFault>(jobs).subspan(base, count),
              ws, res);
      for (std::size_t j = 0; j < count; ++j) {
        res.keys_of(j, keys);
        if (keys.empty()) continue;
        Entry e;
        e.site = jobs[base + j].site;
        e.polarity = jobs[base + j].polarity;
        e.keys = keys;
        finish_entry(e);
        out.push_back(std::move(e));
      }
    }
    sim::bitpar::flush_bitpar_metrics(ws.stats);
    shard_hist.record(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  };

  // Work units: either cone-closed hierarchical regions (paper-scale mode)
  // or contiguous site ranges, the whole table when one shard runs, else
  // about four per shard. Both are lists of ascending site ids. Each unit's
  // entries land in its own slot and are concatenated in unit order, which
  // reproduces the sequential entry sequence of contiguous ranges exactly;
  // the region lists are non-contiguous across units, so that mode re-sorts
  // the merged entries back into canonical (site, polarity) order below.
  const std::size_t shards = std::min(resolve_num_threads(options.num_threads),
                                      std::max<std::size_t>(num_sites, 1));
  std::optional<part::HierPartition> hp;
  std::vector<netlist::SiteId> all_sites;
  std::vector<std::span<const netlist::SiteId>> unit_sites;
  const bool partitioned = options.partition_max_gates > 0;
  if (partitioned) {
    hp.emplace(nl, sites,
               part::HierPartitionOptions{options.partition_max_gates});
    unit_sites.reserve(hp->num_regions());
    for (const part::Region& r : hp->regions()) {
      if (!r.sites.empty()) unit_sites.push_back(r.sites);
    }
    reg.gauge("dictionary.partition_regions")
        .set(static_cast<double>(hp->num_regions()));
  } else {
    all_sites.resize(num_sites);
    for (netlist::SiteId s = 0; s < num_sites; ++s) all_sites[s] = s;
    const std::size_t units = shards > 1 ? std::min(num_sites, shards * 4) : 1;
    const std::size_t chunk =
        std::max<std::size_t>(1, (num_sites + units - 1) / units);
    for (std::size_t lo = 0; lo < num_sites; lo += chunk) {
      unit_sites.push_back(std::span<const netlist::SiteId>(all_sites).subspan(
          lo, std::min(chunk, num_sites - lo)));
    }
  }

  // Per-shard state is made on the shard's own worker at its first unit, as
  // in datagen: event shard 0 runs on `fsim`, every other shard on a clone
  // of it; bit-parallel shards own a Workspace each. The netlist's lazy
  // topo/level caches are unsynchronized, so they are warmed first.
  if (shards > 1) {
    nl.topo_order();
    nl.levels();
    nl.depth();
  }
  std::vector<std::unique_ptr<sim::FaultSimulator>> clones(shards);
  std::vector<std::unique_ptr<Workspace>> workspaces(shards);
  std::vector<std::vector<Entry>> outs(unit_sites.size());
  auto build_units = [&](std::size_t shard, std::size_t u0, std::size_t u1) {
    for (std::size_t u = u0; u < u1; ++u) {
      if (bitpar) {
        std::unique_ptr<Workspace>& ws = workspaces[shard];
        if (!ws) ws = std::make_unique<Workspace>();
        build_sites_bp(*ws, unit_sites[u], outs[u]);
      } else {
        std::unique_ptr<sim::FaultSimulator>& own = clones[shard];
        if (shard > 0 && !own) own = fsim.clone();
        build_sites(shard == 0 ? fsim : *own, unit_sites[u], outs[u]);
      }
    }
  };
  for_each_chunk(shards, unit_sites.size(), 1, "dictionary", build_units);
  std::size_t total = 0;
  for (const std::vector<Entry>& out : outs) total += out.size();
  for (std::vector<Entry>& out : outs) {
    if (entries_.empty()) {
      entries_ = std::move(out);  // One unit (the serial case) moves whole.
      entries_.reserve(total);
    } else {
      std::move(out.begin(), out.end(), std::back_inserter(entries_));
    }
  }

  if (partitioned) {
    // Region shards are disjoint but interleaved in site id; restore the
    // canonical (site, polarity-rank) order so fingerprint() is
    // bit-identical to an unpartitioned build. Keys stay wherever they are
    // (heap or spill file) — only the entry index moves.
    auto pol_rank = [&](sim::FaultPolarity p) {
      return p == options_.polarities[0] ? 0 : 1;
    };
    std::sort(entries_.begin(), entries_.end(),
              [&](const Entry& a, const Entry& b) {
                if (a.site != b.site) return a.site < b.site;
                return pol_rank(a.polarity) < pol_rank(b.polarity);
              });
  }

  if (store_ != nullptr) store_->seal();

  reg.counter("dictionary.entries").add(entries_.size());
  const SignatureFootprint fp = footprint();
  reg.gauge("dictionary.signature_resident_bytes")
      .set(static_cast<double>(fp.resident_bytes));
  reg.gauge("dictionary.signature_disk_bytes")
      .set(static_cast<double>(fp.disk_bytes));
  reg.gauge("dictionary.signature_logical_bytes")
      .set(static_cast<double>(fp.logical_bytes));
  reg.gauge("process.peak_rss_bytes")
      .set(static_cast<double>(obs::peak_rss_bytes()));

  by_hash_.reserve(entries_.size());
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    by_hash_[entries_[i].hash].push_back(i);
  }
}

std::uint64_t FaultDictionary::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  std::vector<std::uint64_t> scratch;
  for (const Entry& e : entries_) {
    mix(e.site);
    mix(static_cast<std::uint64_t>(e.polarity));
    mix(e.count);
    for (std::uint64_t k : keys_of(e, scratch)) mix(k);
  }
  return h;
}

std::size_t FaultDictionary::signature_bytes() const {
  std::size_t total = 0;
  for (const Entry& e : entries_) {
    total += e.keys.size() * sizeof(std::uint64_t);
  }
  return total;
}

FaultDictionary::SignatureFootprint FaultDictionary::footprint() const {
  SignatureFootprint fp;
  fp.resident_bytes = signature_bytes();
  fp.disk_bytes = store_ != nullptr
                      ? static_cast<std::size_t>(store_->bytes_on_disk())
                      : 0;
  for (const Entry& e : entries_) {
    fp.logical_bytes += static_cast<std::size_t>(e.count) *
                        sizeof(std::uint64_t);
  }
  return fp;
}

DiagnosisReport FaultDictionary::diagnose(const sim::FailureLog& log) const {
  DiagnosisReport report;
  if (log.compacted || log.empty()) return report;

  std::vector<std::uint64_t> keys;
  keys.reserve(log.fails.size());
  for (const sim::FailureLog::Obs& f : log.fails) {
    keys.push_back((static_cast<std::uint64_t>(f.output) << 32) | f.pattern);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  auto make_candidate = [this](const Entry& e, double score) {
    Candidate c;
    c.site = e.site;
    c.polarity = e.polarity;
    c.tier = sites_->tier_of(e.site, *nl_);
    c.is_miv = sites_->is_miv_site(e.site, *nl_);
    c.score = score;
    return c;
  };

  std::vector<std::uint64_t> scratch;

  // Exact matches first: hash bucket + full verification.
  const std::uint64_t h = hash_keys(keys);
  const auto bucket = by_hash_.find(h);
  if (bucket != by_hash_.end()) {
    for (std::uint32_t idx : bucket->second) {
      const Entry& e = entries_[idx];
      if (e.count == keys.size() && keys_of(e, scratch) == keys) {
        Candidate c = make_candidate(e, 1.0);
        c.matched = static_cast<std::uint32_t>(keys.size());
        report.candidates.push_back(c);
      }
    }
  }
  if (!report.candidates.empty()) {
    std::sort(report.candidates.begin(), report.candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.site < b.site;
              });
    return report;
  }

  // Nearest-signature fallback: bounded top-K Jaccard instead of the old
  // score-everything-then-sort scan. A bounded worst-on-top heap keeps the
  // current best max_candidates, and the Jaccard upper bound
  // min(|q|,|e|)/max(|q|,|e|) — reached only when one signature contains
  // the other — lets most entries skip the set intersection (and, in spill
  // mode, the decode) entirely once the heap is full. Selection and order
  // are identical to the full scan: replace only on a strictly better
  // score, so ties keep the lowest entry index, exactly like the old
  // (score desc, idx asc) sort.
  struct Scored {
    double score;
    std::uint32_t idx;
  };
  auto better = [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.idx < b.idx;
  };
  std::priority_queue<Scored, std::vector<Scored>, decltype(better)> heap(
      better);  // top() = worst kept candidate.
  const std::size_t cap = std::max<std::size_t>(options_.max_candidates, 1);
  const double nq = static_cast<double>(keys.size());
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double ne = static_cast<double>(e.count);
    const double upper = std::min(nq, ne) / std::max(nq, ne);
    if (heap.size() == cap && upper <= heap.top().score) continue;
    const std::size_t inter = intersection_size(keys, keys_of(e, scratch));
    if (inter == 0) continue;
    const double score =
        static_cast<double>(inter) / (nq + ne - static_cast<double>(inter));
    if (heap.size() < cap) {
      heap.push({score, i});
    } else if (score > heap.top().score) {
      heap.pop();
      heap.push({score, i});
    }
  }
  std::vector<Scored> scored;
  scored.reserve(heap.size());
  while (!heap.empty()) {
    scored.push_back(heap.top());
    heap.pop();
  }
  std::sort(scored.begin(), scored.end(), better);
  for (const Scored& s : scored) {
    report.candidates.push_back(make_candidate(entries_[s.idx], s.score));
  }
  return report;
}

}  // namespace m3dfl::diag
