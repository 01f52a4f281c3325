// Paper-scale integration tests (the paper's benchmarks span 98K-338K
// gates): generator smoke at 100K gates with rent-style fanout, partitioned
// fault-dictionary campaigns bit-identical to unpartitioned ones across
// backends and thread counts, out-of-core (spilled) lookups identical to
// in-memory ones, the datagen + parallel-diagnosis flow end-to-end, the
// per-worker memory footprints of the Diagnoser and the fault simulator, the
// bytes the heterogeneous graph retains, and the threaded design build.
//
// Everything heavier than the generator runs against one process-cached
// m3d100k design, so the binary stays within the suite's slowest-test
// budget (~30s).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <malloc.h>
#include <memory>
#include <new>
#include <vector>

#include "atpg/patterns.h"
#include "common/rng.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/dictionary.h"
#include "eval/benchmarks.h"
#include "eval/datagen.h"
#include "graphx/hetero_graph.h"
#include "obs/metrics.h"
#include "partition/hier.h"

// paper_scale_test is its own binary, so replacing the global allocator here
// is safe. The byte counter lets the footprint tests measure what a
// Diagnoser or a simulator workspace allocates instead of trusting layouts.
// g_live_bytes follows what is still allocated (malloc_usable_size of each
// block, added on allocation and subtracted on release), so a test can also
// measure what a structure retains after its constructor's temporaries are
// gone.
namespace {
std::atomic<std::size_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_live_bytes{0};

void* counted_alloc(std::size_t size) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size ? size : 1);
  if (!p) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (!p) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

// GCC pairs these malloc-backed replacements against allocation sites it
// believes used the default allocator and warns spuriously; new and delete
// are replaced together here, so the pairing is in fact consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
#pragma GCC diagnostic pop

namespace m3dfl {
namespace {

eval::Design& design() {
  return eval::cached_design(eval::m3d100k_spec(), eval::Config::kSyn1);
}

struct FanoutStats {
  std::size_t max = 0, ge8 = 0, ge16 = 0;
};

FanoutStats fanout_stats(const netlist::Netlist& nl) {
  FanoutStats s;
  for (netlist::GateId g = 0; g < nl.num_gates(); ++g) {
    const std::size_t f = nl.gate(g).fanout.size();
    s.max = std::max(s.max, f);
    s.ge8 += f >= 8;
    s.ge16 += f >= 16;
  }
  return s;
}

TEST(PaperScale, GeneratorProducesValidRentStyleDesign) {
  const eval::BenchmarkSpec spec = eval::m3d100k_spec();
  ASSERT_GT(spec.gen.rent_exponent, 0.0);
  const netlist::Netlist nl = netlist::generate_netlist(spec.gen);
  EXPECT_GE(nl.num_gates(), 100'000u);
  EXPECT_GE(nl.depth(), 30u);
  EXPECT_TRUE(nl.validate().empty());

  // The rent mechanism must produce a heavier fanout tail than the legacy
  // near-uniform generator on the same parameters.
  const FanoutStats rent = fanout_stats(nl);
  auto legacy_params = spec.gen;
  legacy_params.rent_exponent = 0.0;
  const FanoutStats legacy =
      fanout_stats(netlist::generate_netlist(legacy_params));
  EXPECT_GT(rent.max, legacy.max);
  EXPECT_GE(rent.max, 20u);
  EXPECT_GE(rent.ge16, 10u);
  EXPECT_GT(rent.ge16, 3 * legacy.ge16);
}

TEST(PaperScale, HierPartitionBoundsRegionsAt100K) {
  eval::Design& d = design();
  const part::HierPartition hp(d.nl, d.sites, {4096});
  ASSERT_GE(hp.num_regions(), d.nl.num_gates() / 4096);
  EXPECT_LE(hp.max_region_gates(), 4096u);
  std::size_t covered = 0;
  for (std::size_t r = 0; r < hp.num_regions(); ++r) {
    covered += hp.region(r).gates.size();
  }
  EXPECT_EQ(covered, d.nl.num_gates());
}

// The ISSUE acceptance criterion in one test: a >= 100K-gate design
// completes a full dictionary campaign with partitioned sharding on both
// backends, bit-identical (fingerprint) to the unpartitioned sequential
// build, with signature memory out-of-core — and spilled lookups are
// observationally identical to in-memory ones.
TEST(PaperScale, PartitionedCampaignsBitIdenticalAndOutOfCore) {
  eval::Design& d = design();

  diag::FaultDictionaryOptions base_opts;
  base_opts.num_threads = 1;
  const diag::FaultDictionary base(d.nl, d.sites, *d.fsim, base_opts);
  ASSERT_GT(base.num_entries(), d.sites.size());  // Most TDFs detected.
  const auto base_fp = base.footprint();
  EXPECT_EQ(base_fp.disk_bytes, 0u);
  EXPECT_EQ(base_fp.resident_bytes, base_fp.logical_bytes);

  diag::FaultDictionaryOptions part_opts;
  part_opts.num_threads = 1;
  part_opts.partition_max_gates = 4096;
  const diag::FaultDictionary part_event(d.nl, d.sites, *d.fsim, part_opts);
  EXPECT_EQ(part_event.fingerprint(), base.fingerprint());
  EXPECT_EQ(part_event.num_entries(), base.num_entries());

  diag::FaultDictionaryOptions spill_opts = part_opts;
  spill_opts.num_threads = 8;
  spill_opts.spill_path = "m3d100k_event.sig";
  const diag::FaultDictionary spill_event(d.nl, d.sites, *d.fsim,
                                          spill_opts);
  EXPECT_EQ(spill_event.fingerprint(), base.fingerprint());

  // Out-of-core: nothing resident, compressed spill smaller than the
  // logical 8-bytes-per-key dictionary, and the obs gauges report it.
  const auto fp = spill_event.footprint();
  EXPECT_EQ(fp.resident_bytes, 0u);
  EXPECT_GT(fp.disk_bytes, 0u);
  EXPECT_LT(fp.disk_bytes, fp.logical_bytes);
  EXPECT_EQ(fp.logical_bytes, base_fp.logical_bytes);
  auto& reg = obs::MetricsRegistry::instance();
  EXPECT_EQ(reg.gauge("dictionary.signature_resident_bytes").value(), 0.0);
  EXPECT_EQ(reg.gauge("dictionary.signature_disk_bytes").value(),
            static_cast<double>(fp.disk_bytes));
  EXPECT_GE(reg.gauge("dictionary.partition_regions").value(), 2.0);
  EXPECT_GT(obs::peak_rss_bytes(), 0u);

  diag::FaultDictionaryOptions bp_opts = spill_opts;
  bp_opts.backend = sim::SimBackend::kBitParallel;
  bp_opts.spill_path = "m3d100k_bitpar.sig";
  const diag::FaultDictionary spill_bitpar(d.nl, d.sites, *d.fsim, bp_opts);
  EXPECT_EQ(spill_bitpar.fingerprint(), base.fingerprint());
  EXPECT_EQ(spill_bitpar.num_entries(), base.num_entries());

  // Spilled lookups == in-memory lookups, exact and fallback paths.
  Rng rng(41);
  std::vector<sim::Word> diff;
  int tested = 0;
  while (tested < 4) {
    const auto site =
        static_cast<netlist::SiteId>(rng.next_below(d.sites.size()));
    if (!d.fsim->observed_diff({site, sim::FaultPolarity::kSlow}, diff)) {
      continue;
    }
    auto log = sim::failure_log_from_diff(diff, d.nl.num_outputs(),
                                          d.fsim->num_patterns());
    if (log.fails.size() < 3) continue;
    ++tested;
    for (int corrupt = 0; corrupt < 2; ++corrupt) {
      if (corrupt) log.fails.pop_back();
      const auto a = base.diagnose(log);
      const auto b = spill_event.diagnose(log);
      ASSERT_EQ(a.candidates.size(), b.candidates.size());
      for (std::size_t r = 0; r < a.candidates.size(); ++r) {
        EXPECT_EQ(a.candidates[r].site, b.candidates[r].site);
        EXPECT_EQ(a.candidates[r].polarity, b.candidates[r].polarity);
        EXPECT_DOUBLE_EQ(a.candidates[r].score, b.candidates[r].score);
      }
    }
  }
}

TEST(PaperScale, DatagenAndParallelDiagnosisEndToEnd) {
  eval::Design& d = design();

  eval::DatagenOptions dopts;
  dopts.num_samples = 2;
  dopts.seed = 9;
  dopts.num_threads = 2;
  const eval::Dataset ds = eval::generate_dataset(d, dopts);
  ASSERT_EQ(ds.size(), 2u);
  for (const eval::Sample& s : ds.samples) {
    EXPECT_FALSE(s.log.empty());
    EXPECT_FALSE(s.truth_sites.empty());
    EXPECT_GT(s.sub.num_nodes(), 0u);
  }

  // A Diagnoser bound to a clone of the design's simulator (as every
  // serving worker binds one) reports bit-identically at paper scale to one
  // bound to the design's own.
  diag::Diagnoser own(d.nl, d.sites, d.scan, d.spec.diag);
  own.bind(*d.fsim);
  const std::unique_ptr<sim::FaultSimulator> clone = d.fsim->clone();
  diag::Diagnoser cloned(d.nl, d.sites, d.scan, d.spec.diag);
  cloned.bind(*clone);

  std::size_t nonempty = 0;
  for (const eval::Sample& s : ds.samples) {
    const diag::DiagnosisReport rs = own.diagnose(s.log);
    const diag::DiagnosisReport rp = cloned.diagnose(s.log);
    ASSERT_EQ(rs.candidates.size(), rp.candidates.size());
    for (std::size_t r = 0; r < rs.candidates.size(); ++r) {
      EXPECT_EQ(rs.candidates[r].site, rp.candidates[r].site);
      EXPECT_EQ(rs.candidates[r].polarity, rp.candidates[r].polarity);
      EXPECT_DOUBLE_EQ(rs.candidates[r].score, rp.candidates[r].score);
      EXPECT_EQ(rs.candidates[r].matched, rp.candidates[r].matched);
      EXPECT_EQ(rs.candidates[r].missed, rp.candidates[r].missed);
    }
    nonempty += !rs.candidates.empty();
  }
  EXPECT_GE(nonempty, 1u);
}

// A Diagnoser holds no per-design index: its back-trace walks the netlist's
// own fan-in lists, so building one (once per serving worker) costs at most
// a few bytes of scratch per gate — not a cone bitset per observation point.
TEST(PaperScale, DiagnoserFootprintIsPerGateScratchOnly) {
  eval::Design& d = design();
  const std::size_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  {
    diag::Diagnoser diagnoser(d.nl, d.sites, d.scan, d.spec.diag);
    diagnoser.bind(*d.fsim);
  }
  const std::size_t bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LE(bytes, 8 * d.nl.num_gates())
      << bytes << " bytes for " << d.nl.num_gates() << " gates";
}

// Every FaultSimulator of a design is a workspace over the design's one
// SimCore: building one for a serving worker or a campaign shard, or
// cloning one, copies no good-machine row and no per-gate table fixed
// after bind, so it allocates less than one good-machine row set.
TEST(PaperScale, WorkerCostsOnlyItsWorkspace) {
  eval::Design& d = design();
  const std::size_t row_set =
      3 * d.nl.num_gates() * d.core->num_words() * sizeof(sim::Word);
  std::size_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  const auto built = std::make_unique<sim::FaultSimulator>(d.core);
  const std::size_t built_bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - before;
  before = g_alloc_bytes.load(std::memory_order_relaxed);
  const auto cloned = d.fsim->clone();
  const std::size_t cloned_bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LT(built_bytes, row_set) << "row set " << row_set << " bytes";
  EXPECT_LT(cloned_bytes, row_set) << "row set " << row_set << " bytes";
  EXPECT_EQ(&built->core(), d.core.get());
  EXPECT_EQ(&cloned->core(), &built->core());

  // The workspaces simulate exactly like the design's own simulator.
  std::vector<sim::Word> want, got;
  for (netlist::SiteId s = 0; s < d.sites.size(); s += d.sites.size() / 16) {
    const sim::InjectedFault f{s, sim::FaultPolarity::kSlow};
    d.fsim->observed_diff(f, want);
    built->observed_diff(f, got);
    EXPECT_EQ(got, want) << "site " << s;
    cloned->observed_diff(f, got);
    EXPECT_EQ(got, want) << "site " << s;
  }
}

// The heterogeneous graph keeps only O(V + E) state: its CSR, per-node
// attributes, per-node Topedge sums and Tpat counts. No Topedge or cone list
// is stored per Topnode (at the parent a pool of ~10.7M Topedges made it
// over 200 B per node), and bytes() accounts for what it retains.
TEST(PaperScale, GraphHoldsNoPerTopnodeLists) {
  eval::Design& d = design();
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  auto graph = std::make_unique<graphx::HeteroGraph>(d.nl, d.sites);
  graph->bind_transitions(*d.core);
  const auto retained = static_cast<double>(
      g_live_bytes.load(std::memory_order_relaxed) - before);
  const double per_node = retained / static_cast<double>(graph->num_nodes());
  EXPECT_LT(per_node, 64.0) << retained << " bytes for " << graph->num_nodes()
                            << " nodes";
  const auto accounted = static_cast<double>(graph->bytes());
  EXPECT_NEAR(retained, accounted, 0.05 * accounted)
      << "bytes() " << accounted << " vs retained " << retained;
  // The Topedge count survives as a number: the sum of per-node counts.
  std::size_t topedges = 0;
  for (netlist::SiteId n = 0; n < graph->num_nodes(); ++n) {
    topedges += graph->top_agg(n).count;
  }
  EXPECT_EQ(graph->num_topedges(), topedges);
  EXPECT_GT(topedges, graph->num_nodes());
}

// The threaded design build at paper scale. m3d100k Syn-2's random base
// detects 559,568 of its 847,644 TDF faults (66.0% test coverage) on one
// thread and on four, and the four-shard Topnode sweep equals the serial one
// on every node. The design itself is built with the default thread count.
TEST(PaperScale, ThreadedBuildMatchesSerial) {
  const eval::BenchmarkSpec spec = eval::m3d100k_spec();
  const auto d = eval::build_design(spec, eval::Config::kSyn2);
  const std::size_t faults = 2 * d->sites.size();
  EXPECT_EQ(faults, 847'644u);
  EXPECT_EQ(std::llround(d->atpg_coverage * static_cast<double>(faults)),
            559'568);
  EXPECT_NEAR(d->test_coverage, 0.660, 0.0005);

  atpg::PatternGenOptions pgen;
  pgen.num_patterns = spec.num_patterns;
  pgen.seed = derive_seed(
      spec.seed, 41 + static_cast<std::uint64_t>(eval::Config::kSyn2));
  for (std::size_t threads : {1, 4}) {
    const atpg::TdfPatternPair pair = atpg::generate_tdf_patterns_with_topoff(
        d->core->shared_arena(), d->sites, pgen, spec.max_topoff_patterns,
        threads);
    EXPECT_EQ(pair.coverage, d->atpg_coverage) << threads;
    EXPECT_EQ(pair.test_coverage, d->test_coverage) << threads;
    EXPECT_EQ(pair.num_topoff, 0u) << threads;
    for (std::size_t i = 0; i < d->patterns.num_inputs(); ++i) {
      ASSERT_TRUE(std::ranges::equal(pair.v1.row(i), d->patterns.row(i)));
      ASSERT_TRUE(std::ranges::equal(pair.v2.row(i), d->patterns_v2.row(i)));
    }
  }

  const graphx::HeteroGraph& built = *d->graph;
  const graphx::HeteroGraph serial(d->nl, d->sites, 1);
  const graphx::HeteroGraph sharded(d->nl, d->sites, 4);
  EXPECT_EQ(sharded.num_topedges(), serial.num_topedges());
  EXPECT_EQ(built.num_topedges(), serial.num_topedges());
  std::size_t mismatched = 0;
  for (netlist::SiteId n = 0; n < serial.num_nodes(); ++n) {
    const auto& want = serial.top_agg(n);
    for (const graphx::HeteroGraph* g : {&sharded, &built}) {
      const auto& got = g->top_agg(n);
      mismatched += got.count != want.count || got.sum_d != want.sum_d ||
                    got.sum_d2 != want.sum_d2 || got.sum_m != want.sum_m ||
                    got.sum_m2 != want.sum_m2;
    }
  }
  EXPECT_EQ(mismatched, 0u);
}

}  // namespace
}  // namespace m3dfl
