// Integration tests of the evaluation harness: design building, dataset
// generation, framework training, and every experiment driver at tiny
// scale. These are the end-to-end guarantees behind the bench binaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "atpg/patterns.h"
#include "common/rng.h"
#include "eval/experiments.h"
#include "graphx/hetero_graph.h"
#include "obs/metrics.h"
#include "sim/sim_core.h"

namespace m3dfl::eval {
namespace {

const RunScale& tiny() {
  static const RunScale s = RunScale::tiny();
  return s;
}

// --- Design building ----------------------------------------------------------

TEST(Design, BuildsEveryConfiguration) {
  const BenchmarkSpec spec = tiny_spec();
  for (Config config : eval_configs()) {
    const Design& d = cached_design(spec, config);
    EXPECT_TRUE(d.nl.validate().empty());
    EXPECT_GT(d.nl.num_mivs(), 0u);
    EXPECT_GT(d.patterns.num_patterns(), 0u);
    EXPECT_GT(d.graph->num_nodes(), 0u);
    EXPECT_TRUE(d.graph->has_transitions());
    EXPECT_GT(d.atpg_coverage, 0.7) << config_name(config);
    EXPECT_GE(d.test_coverage, d.atpg_coverage);
  }
}

/// True if two cores over one arena hold the same good-machine rows.
bool same_rows(const sim::SimCore& a, const sim::SimCore& b) {
  if (a.num_patterns() != b.num_patterns() ||
      a.arena().num_gates() != b.arena().num_gates()) {
    return false;
  }
  const std::size_t W = a.num_words();
  for (std::uint32_t u = 0; u < a.arena().num_gates(); ++u) {
    if (!std::equal(a.v1(u), a.v1(u) + W, b.v1(u)) ||
        !std::equal(a.v2(u), a.v2(u) + W, b.v2(u)) ||
        !std::equal(a.tr(u), a.tr(u) + W, b.tr(u))) {
      return false;
    }
  }
  return true;
}

// With no top-off pattern (every paper-scale spec), the good machine is
// simulated once per build: ATPG returns the core its fault-dropping pass
// ran on, and the design keeps it.
TEST(Design, NoTopoffBuildKeepsTheAtpgCore) {
  BenchmarkSpec spec = tiny_spec();
  spec.name += "-no-topoff";
  spec.max_topoff_patterns = 0;
  const auto d = build_design(spec, Config::kSyn2);
  ASSERT_TRUE(d->core);
  EXPECT_EQ(d->num_topoff_patterns, 0u);
  EXPECT_EQ(d->core->num_patterns(), spec.num_patterns);
  EXPECT_EQ(&d->fsim->core(), d->core.get());
  const sim::SimCore fresh(
      d->core->shared_arena(),
      sim::simulate_two_vector(d->nl, d->patterns, d->patterns_v2));
  EXPECT_TRUE(same_rows(*d->core, fresh));

  // The pass's core at the ATPG level: over the given arena, of the
  // returned pattern pair, with or without top-off.
  atpg::PatternGenOptions pgen;
  pgen.num_patterns = 48;
  for (std::size_t max_topoff : {0, 64}) {
    const auto pair = atpg::generate_tdf_patterns_with_topoff(
        d->core->shared_arena(), d->sites, pgen, max_topoff);
    ASSERT_TRUE(pair.core) << max_topoff;
    EXPECT_EQ(pair.num_topoff > 0, max_topoff > 0) << max_topoff;
    EXPECT_EQ(&pair.core->arena(), &d->core->arena());
    EXPECT_EQ(pair.core->num_patterns(), pair.v1.num_patterns());
    EXPECT_TRUE(same_rows(
        *pair.core,
        sim::SimCore(d->core->shared_arena(),
                     sim::simulate_two_vector(d->nl, pair.v1, pair.v2))))
        << max_topoff;
  }
}

bool same_patterns(const sim::PatternSet& a, const sim::PatternSet& b) {
  if (a.num_inputs() != b.num_inputs() ||
      a.num_patterns() != b.num_patterns()) {
    return false;
  }
  for (std::size_t i = 0; i < a.num_inputs(); ++i) {
    if (!std::ranges::equal(a.row(i), b.row(i))) return false;
  }
  return true;
}

std::uint64_t executor_tasks(const char* label) {
  return obs::MetricsRegistry::instance()
      .counter(std::string("executor.") + label + ".tasks")
      .value();
}

/// The ATPG options build_design() uses for `spec` in Syn-2.
atpg::PatternGenOptions syn2_pattern_options(const BenchmarkSpec& spec) {
  atpg::PatternGenOptions pgen;
  pgen.num_patterns = spec.num_patterns;
  pgen.seed = derive_seed(spec.seed,
                          41 + static_cast<std::uint64_t>(Config::kSyn2));
  return pgen;
}

// ATPG's fault-dropping passes (the random base and every top-off block)
// are sharded over workspaces; the pattern pair, its figures and its core
// are the same on 1, 2 and 8 threads. Explicit counts take the multi-shard
// path however small the fault list, which the executor's task counter
// proves.
TEST(Design, AtpgIsThreadCountInvariant) {
  for (const BenchmarkSpec& spec : {tiny_spec(), aes_spec()}) {
    const Design& d = cached_design(spec, Config::kSyn2);
    const atpg::PatternGenOptions pgen = syn2_pattern_options(spec);
    const auto arena = d.core->shared_arena();
    const atpg::TdfPatternPair ref = atpg::generate_tdf_patterns_with_topoff(
        arena, d.sites, pgen, spec.max_topoff_patterns, 1);
    ASSERT_GT(ref.num_topoff, 0u) << spec.name;
    EXPECT_TRUE(same_patterns(ref.v1, d.patterns)) << spec.name;
    EXPECT_TRUE(same_patterns(ref.v2, d.patterns_v2)) << spec.name;
    EXPECT_EQ(ref.coverage, d.atpg_coverage) << spec.name;
    for (std::size_t threads : {2, 8}) {
      const std::uint64_t tasks = executor_tasks("fault_drop");
      const atpg::TdfPatternPair pair =
          atpg::generate_tdf_patterns_with_topoff(
              arena, d.sites, pgen, spec.max_topoff_patterns, threads);
      EXPECT_GE(executor_tasks("fault_drop"), tasks + threads)
          << spec.name << " on " << threads;
      EXPECT_TRUE(same_patterns(pair.v1, ref.v1)) << spec.name << threads;
      EXPECT_TRUE(same_patterns(pair.v2, ref.v2)) << spec.name << threads;
      EXPECT_EQ(pair.num_random, ref.num_random) << spec.name << threads;
      EXPECT_EQ(pair.num_topoff, ref.num_topoff) << spec.name << threads;
      EXPECT_EQ(pair.num_untestable, ref.num_untestable)
          << spec.name << threads;
      EXPECT_EQ(pair.coverage, ref.coverage) << spec.name << threads;
      EXPECT_EQ(pair.test_coverage, ref.test_coverage)
          << spec.name << threads;
      EXPECT_TRUE(same_rows(*pair.core, *ref.core)) << spec.name << threads;
    }
  }
}

// The HeteroGraph's Topnode sweep is sharded with per-shard sums added at
// the end; every node's aggregates and the Topedge count are the same on
// 1, 2 and 8 threads, and equal the design's own graph.
TEST(Design, GraphIsThreadCountInvariant) {
  for (const BenchmarkSpec& spec : {tiny_spec(), aes_spec()}) {
    const Design& d = cached_design(spec, Config::kSyn2);
    const graphx::HeteroGraph& built = *d.graph;
    const graphx::HeteroGraph ref(d.nl, d.sites, 1);
    ASSERT_EQ(ref.num_topedges(), built.num_topedges()) << spec.name;
    for (std::size_t threads : {2, 8}) {
      const std::uint64_t tasks = executor_tasks("topnode_sweep");
      const graphx::HeteroGraph g(d.nl, d.sites, threads);
      EXPECT_GE(executor_tasks("topnode_sweep"), tasks + threads)
          << spec.name << " on " << threads;
      EXPECT_EQ(g.num_topedges(), ref.num_topedges()) << spec.name << threads;
      std::size_t mismatched = 0;
      for (netlist::SiteId n = 0; n < ref.num_nodes(); ++n) {
        for (const graphx::HeteroGraph* other : {&g, &built}) {
          const auto& a = other->top_agg(n);
          const auto& b = ref.top_agg(n);
          mismatched += a.count != b.count || a.sum_d != b.sum_d ||
                        a.sum_d2 != b.sum_d2 || a.sum_m != b.sum_m ||
                        a.sum_m2 != b.sum_m2;
        }
      }
      EXPECT_EQ(mismatched, 0u) << spec.name << " on " << threads;
    }
  }
}

TEST(Design, ConfigurationsDifferStructurally) {
  const BenchmarkSpec spec = tiny_spec();
  const Design& syn1 = cached_design(spec, Config::kSyn1);
  const Design& syn2 = cached_design(spec, Config::kSyn2);
  const Design& tpi = cached_design(spec, Config::kTPI);
  EXPECT_NE(syn1.nl.num_gates(), syn2.nl.num_gates());
  EXPECT_GT(tpi.nl.num_outputs(), syn1.nl.num_outputs());
}

TEST(Design, CacheReturnsSameInstance) {
  const BenchmarkSpec spec = tiny_spec();
  const Design& a = cached_design(spec, Config::kSyn1);
  const Design& b = cached_design(spec, Config::kSyn1);
  EXPECT_EQ(&a, &b);
  const Design& r1 = cached_design(spec, Config::kRandomPart, 1);
  const Design& r2 = cached_design(spec, Config::kRandomPart, 2);
  EXPECT_NE(&r1, &r2);
  EXPECT_NE(r1.part.tier_of_gate, r2.part.tier_of_gate);
}

// --- Dataset generation --------------------------------------------------------

class DatagenMode : public ::testing::TestWithParam<FaultMode> {};

TEST_P(DatagenMode, SamplesAreWellFormed) {
  const Design& d = cached_design(tiny_spec(), Config::kSyn1);
  DatagenOptions o;
  o.mode = GetParam();
  o.num_samples = 15;
  o.seed = 555;
  const Dataset ds = generate_dataset(d, o);
  ASSERT_GT(ds.size(), 10u);
  for (const Sample& s : ds.samples) {
    EXPECT_FALSE(s.log.empty());
    EXPECT_FALSE(s.faults.empty());
    EXPECT_EQ(s.truth_sites.size(), s.faults.size());
    EXPECT_GE(s.fault_tier, 0);
    EXPECT_LE(s.fault_tier, 1);
    EXPECT_GT(s.sub.num_nodes(), 0u);
    EXPECT_EQ(s.sub.label_tier, s.fault_tier);
    // Uncompacted single-fault back-tracing always keeps the truth.
    if (GetParam() == FaultMode::kSingleSite) {
      EXPECT_TRUE(s.sub.truth_in_nodes);
    }
    if (GetParam() == FaultMode::kSingleMiv) {
      EXPECT_TRUE(s.truth_is_miv);
      // The faulty MIV is labeled in the sub-graph.
      const float labeled = std::count(s.sub.miv_label.begin(),
                                       s.sub.miv_label.end(), 1.0f);
      EXPECT_GE(labeled, 1.0f);
    }
    if (GetParam() == FaultMode::kMultiSameTier) {
      EXPECT_GE(s.faults.size(), 2u);
      EXPECT_LE(s.faults.size(), 5u);
      for (netlist::SiteId site : s.truth_sites) {
        EXPECT_EQ(static_cast<int>(d.sites.tier_of(site, d.nl)),
                  s.fault_tier);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, DatagenMode,
                         ::testing::Values(FaultMode::kSingleSite,
                                           FaultMode::kSingleMiv,
                                           FaultMode::kMultiSameTier));

TEST(Datagen, CompactedLogsAreCompacted) {
  const Design& d = cached_design(tiny_spec(), Config::kSyn1);
  DatagenOptions o;
  o.compacted = true;
  o.num_samples = 8;
  o.seed = 556;
  const Dataset ds = generate_dataset(d, o);
  for (const Sample& s : ds.samples) {
    EXPECT_TRUE(s.log.compacted);
    EXPECT_FALSE(s.log.cfails.empty());
  }
}

// Regression: a fully XOR-aliased compacted response used to retry
// unboundedly (`--i; continue;`). Aliases now charge max_retries like
// undetected draws — even a budget of 1 must terminate and only produce
// non-empty compacted logs.
TEST(Datagen, AliasRetriesChargeTheBudgetAndTerminate) {
  const Design& d = cached_design(tiny_spec(), Config::kSyn1);
  DatagenOptions o;
  o.compacted = true;
  o.num_samples = 8;
  o.seed = 558;
  o.max_retries = 1;
  const Dataset ds = generate_dataset(d, o);
  EXPECT_LE(ds.size(), o.num_samples);
  for (const Sample& s : ds.samples) {
    EXPECT_TRUE(s.log.compacted);
    EXPECT_FALSE(s.log.cfails.empty());
  }
}

// Sample i draws from derive_seed(seed, i), so a longer run extends a
// shorter one instead of reshuffling it.
TEST(Datagen, PerSampleStreamsMakePrefixesStable) {
  const Design& d = cached_design(tiny_spec(), Config::kSyn1);
  DatagenOptions o;
  o.num_samples = 20;
  o.seed = 559;
  const Dataset big = generate_dataset(d, o);
  o.num_samples = 10;
  const Dataset small = generate_dataset(d, o);
  ASSERT_LE(small.size(), big.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small.samples[i].truth_sites, big.samples[i].truth_sites);
    EXPECT_EQ(small.samples[i].log.fails, big.samples[i].log.fails);
  }
}

TEST(Datagen, DeterministicUnderSeed) {
  const Design& d = cached_design(tiny_spec(), Config::kSyn1);
  DatagenOptions o;
  o.num_samples = 6;
  o.seed = 557;
  const Dataset a = generate_dataset(d, o);
  const Dataset b = generate_dataset(d, o);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.samples[i].truth_sites, b.samples[i].truth_sites);
    EXPECT_EQ(a.samples[i].log.fails, b.samples[i].log.fails);
  }
}

// --- Framework training --------------------------------------------------------

TEST(Framework, TrainsAndExceedsChanceEverywhere) {
  const TrainingBundle bundle =
      build_training_bundle(tiny_spec(), false, tiny());
  const TrainedFramework fw = train_framework(bundle, tiny());
  EXPECT_GT(fw.train_tier_accuracy, 0.6);
  EXPECT_GT(fw.policy.t_p, 0.4);
  EXPECT_LE(fw.policy.t_p, 1.0 + 1e-9);
  EXPECT_GT(fw.gnn_train_seconds, 0.0);

  // The classifier must produce valid probabilities on unseen graphs.
  DatagenOptions o;
  o.num_samples = 5;
  o.seed = 600;
  const Dataset test = generate_dataset(*bundle.syn1, o);
  for (const Sample& s : test.samples) {
    const double p = fw.classifier.prune_probability(s.sub);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

// --- Experiment drivers ---------------------------------------------------------

TEST(Experiments, AtpgQualityRowsCoverAllConfigs) {
  const auto rows = run_atpg_quality(tiny_spec(), false, tiny());
  ASSERT_EQ(rows.size(), 4u);
  std::set<std::string> configs;
  for (const auto& r : rows) {
    configs.insert(r.config);
    EXPECT_GT(r.atpg.accuracy, 0.8);
    EXPECT_GE(r.atpg.mean_res, 1.0);
    EXPECT_GE(r.atpg.mean_fhi, 1.0);
    EXPECT_LE(r.atpg.mean_fhi, r.atpg.mean_res + 1e-9);
  }
  EXPECT_EQ(configs.size(), 4u);
}

TEST(Experiments, EffectivenessInvariants) {
  const auto rows = run_effectiveness(tiny_spec(), false, tiny());
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    // The baseline and GNN never grow the candidate list.
    EXPECT_LE(r.baseline.mean_res, r.atpg.mean_res + 1e-9);
    EXPECT_LE(r.gnn.mean_res, r.atpg.mean_res + 1e-9);
    EXPECT_LE(r.gnn_plus.mean_res, r.gnn.mean_res + 1e-9);
    // Accuracy losses stay bounded (tiny-scale models are noisy, so the
    // bound is loose; the bench scale tightens it).
    EXPECT_GT(r.baseline.accuracy, r.atpg.accuracy - 0.15);
    EXPECT_GT(r.gnn.accuracy, r.atpg.accuracy - 0.15);
    // Tier localization is reported for baseline and GNN.
    EXPECT_GE(r.baseline.tier_loc, 0.0);
    EXPECT_GE(r.gnn.tier_loc, 0.0);
  }
}

TEST(Experiments, EffectivenessCompactedRuns) {
  const auto rows = run_effectiveness(tiny_spec(), true, tiny());
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    EXPECT_GT(r.atpg.accuracy, 0.7);
    EXPECT_LE(r.gnn.mean_res, r.atpg.mean_res + 1e-9);
  }
}

TEST(Experiments, Fig6ComparesDedicatedAndTransferred) {
  const auto rows = run_fig6(tiny_spec(), tiny());
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    EXPECT_GT(r.dedicated_tier, 0.5);
    EXPECT_GT(r.transferred_tier, 0.5);
    EXPECT_GE(r.dedicated_miv, 0.0);
    EXPECT_GE(r.transferred_miv, 0.0);
  }
}

TEST(Experiments, Fig5CloudsOverlap) {
  const auto result = run_fig5(tiny_spec(), tiny());
  EXPECT_GT(result.points.size(), 40u);
  EXPECT_GT(result.explained_variance, 0.3);
  // The transferability claim: configuration centroids sit within the
  // intra-configuration spread.
  EXPECT_LT(result.separation_ratio, 1.5);
}

TEST(Experiments, FeatureSignificanceShape) {
  const auto r = run_feature_significance(tiny_spec(), tiny());
  ASSERT_EQ(r.significance.size(), graphx::kNumSubgraphFeatures);
  ASSERT_EQ(r.perm_importance.size(), graphx::kNumSubgraphFeatures);
  for (double s : r.significance) {
    EXPECT_GT(s, 0.1);
    EXPECT_LT(s, 0.9);
  }
}

TEST(Experiments, DesignMatrixCoversAllBenchmarks) {
  // Uses the full benchmark specs (cached across the process; the heavy
  // part is the one-off ATPG per design).
  const auto rows = run_design_matrix();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].design, "aes");
  EXPECT_EQ(rows[3].design, "leon3mp");
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].gates, rows[i - 1].gates) << "size ordering broken";
  }
  for (const auto& r : rows) {
    EXPECT_GT(r.test_coverage, 0.9) << r.design;
    EXPECT_GT(r.mivs, 100u);
  }
}

TEST(Experiments, MultiFaultRowWellFormed) {
  const auto rows = run_multifault(tiny_spec(), tiny());
  ASSERT_EQ(rows.size(), 1u);
  const auto& r = rows.front();
  EXPECT_GT(r.atpg.mean_res, 0.0);
  EXPECT_GE(r.framework.tier_loc, 0.0);
  EXPECT_LE(r.framework.mean_res, r.atpg.mean_res + 1e-9);
}

TEST(Experiments, AblationHasFourMethods) {
  const auto rows = run_ablation(tiny_spec(), tiny());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].method, "ATPG only");
  // No method may grow the report.
  for (const auto& r : rows) {
    EXPECT_LE(r.cell.mean_res, rows[0].cell.mean_res + 1e-9);
  }
  // MIV-pinpointer standalone never changes the candidate set, only the
  // order — resolution must match ATPG exactly.
  EXPECT_DOUBLE_EQ(rows[2].cell.mean_res, rows[0].cell.mean_res);
  EXPECT_DOUBLE_EQ(rows[2].cell.accuracy, rows[0].cell.accuracy);
}

TEST(Experiments, RuntimeRowsPositive) {
  // run_runtime covers all four full-size benchmarks; at tiny test scale
  // it is still the most expensive driver, so keep the sample count low.
  RunScale s = tiny();
  s.test_samples = 10;
  const auto rows = run_runtime(s);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    EXPECT_GT(r.feature_seconds, 0.0);
    EXPECT_GT(r.train_seconds, 0.0);
    EXPECT_GT(r.t_atpg, 0.0);
    EXPECT_GT(r.t_gnn, 0.0);
    EXPECT_GE(r.t_update, 0.0);
    EXPECT_GT(r.t_atpg, r.t_update) << "update must be cheap vs diagnosis";
  }
}

}  // namespace
}  // namespace m3dfl::eval
