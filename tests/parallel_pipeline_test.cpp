// Determinism guarantees of the parallel offline pipeline: dataset
// generation, the fault-dictionary signature campaign, and graph-classifier
// training must produce bit-identical results at every thread count. These
// are the contracts that make DatagenOptions/TrainOptions num_threads a
// pure throughput knob — CI also runs this binary under TSan to prove the
// shards are race-free, not just accidentally agreeing.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "diagnosis/dictionary.h"
#include "eval/datagen.h"
#include "gnn/trainer.h"
#include "obs/trace.h"

namespace m3dfl::eval {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

// Field-by-field bitwise comparison of two samples, including the float
// feature payload of the back-traced sub-graph.
void expect_samples_identical(const Sample& a, const Sample& b,
                              std::size_t index) {
  SCOPED_TRACE("sample " + std::to_string(index));
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t f = 0; f < a.faults.size(); ++f) {
    EXPECT_EQ(a.faults[f].site, b.faults[f].site);
    EXPECT_EQ(a.faults[f].polarity, b.faults[f].polarity);
  }
  EXPECT_EQ(a.truth_sites, b.truth_sites);
  EXPECT_EQ(a.fault_tier, b.fault_tier);
  EXPECT_EQ(a.truth_is_miv, b.truth_is_miv);
  EXPECT_EQ(a.log.compacted, b.log.compacted);
  EXPECT_EQ(a.log.fails, b.log.fails);
  EXPECT_EQ(a.log.cfails, b.log.cfails);
  EXPECT_EQ(a.sub.nodes, b.sub.nodes);
  EXPECT_EQ(a.sub.row_ptr, b.sub.row_ptr);
  EXPECT_EQ(a.sub.col_idx, b.sub.col_idx);
  EXPECT_EQ(a.sub.miv_local, b.sub.miv_local);
  EXPECT_EQ(a.sub.label_tier, b.sub.label_tier);
  EXPECT_EQ(a.sub.truth_in_nodes, b.sub.truth_in_nodes);
  // Bitwise, not approximate: the parallel flow must not re-derive floats.
  ASSERT_EQ(a.sub.features.size(), b.sub.features.size());
  EXPECT_EQ(std::memcmp(a.sub.features.data(), b.sub.features.data(),
                        a.sub.features.size() * sizeof(float)),
            0);
  ASSERT_EQ(a.sub.miv_label.size(), b.sub.miv_label.size());
  EXPECT_EQ(std::memcmp(a.sub.miv_label.data(), b.sub.miv_label.data(),
                        a.sub.miv_label.size() * sizeof(float)),
            0);
}

void expect_datasets_identical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_samples_identical(a.samples[i], b.samples[i], i);
  }
}

TEST(ParallelDatagen, BitIdenticalAcrossThreadCounts) {
  const Design& d = cached_design(tiny_spec(), Config::kSyn1);
  DatagenOptions o;
  o.num_samples = 24;
  o.seed = 771;
  o.num_threads = 1;
  const Dataset reference = generate_dataset(d, o);
  EXPECT_GT(reference.size(), 0u);
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    o.num_threads = threads;
    expect_datasets_identical(reference, generate_dataset(d, o));
  }
}

// The observability contract: spans and metrics are timing-only observers,
// so running the very same parallel generation with the tracer live must
// still reproduce the untraced output bit for bit at every thread count.
TEST(ParallelDatagen, BitIdenticalWithTracingEnabled) {
  const Design& d = cached_design(tiny_spec(), Config::kSyn1);
  DatagenOptions o;
  o.num_samples = 24;
  o.seed = 771;
  o.num_threads = 1;
  obs::Tracer::instance().set_enabled(false);
  const Dataset reference = generate_dataset(d, o);
  EXPECT_GT(reference.size(), 0u);
  obs::Tracer::instance().set_enabled(true);
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    o.num_threads = threads;
    expect_datasets_identical(reference, generate_dataset(d, o));
  }
  obs::Tracer::instance().set_enabled(false);
}

TEST(ParallelDatagen, BitIdenticalAcrossThreadCountsCompacted) {
  const Design& d = cached_design(tiny_spec(), Config::kSyn1);
  DatagenOptions o;
  o.compacted = true;
  o.num_samples = 16;
  o.seed = 772;
  o.num_threads = 1;
  const Dataset reference = generate_dataset(d, o);
  EXPECT_GT(reference.size(), 0u);
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    o.num_threads = threads;
    expect_datasets_identical(reference, generate_dataset(d, o));
  }
}

TEST(ParallelDictionary, BitIdenticalAcrossThreadCounts) {
  const Design& d = cached_design(tiny_spec(), Config::kSyn1);
  diag::FaultDictionaryOptions o;
  o.num_threads = 1;
  const diag::FaultDictionary reference(d.nl, d.sites, *d.fsim, o);
  EXPECT_GT(reference.num_entries(), 0u);

  // A real failure log so diagnose() equality is exercised end to end.
  DatagenOptions dg;
  dg.num_samples = 4;
  dg.seed = 773;
  dg.num_threads = 1;
  const Dataset probes = generate_dataset(d, dg);
  ASSERT_GT(probes.size(), 0u);

  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    o.num_threads = threads;
    const diag::FaultDictionary dict(d.nl, d.sites, *d.fsim, o);
    EXPECT_EQ(dict.num_entries(), reference.num_entries());
    EXPECT_EQ(dict.signature_bytes(), reference.signature_bytes());
    EXPECT_EQ(dict.fingerprint(), reference.fingerprint());
    for (const Sample& s : probes.samples) {
      const diag::DiagnosisReport got = dict.diagnose(s.log);
      const diag::DiagnosisReport want = reference.diagnose(s.log);
      ASSERT_EQ(got.candidates.size(), want.candidates.size());
      for (std::size_t c = 0; c < got.candidates.size(); ++c) {
        EXPECT_EQ(got.candidates[c].site, want.candidates[c].site);
        EXPECT_EQ(got.candidates[c].polarity, want.candidates[c].polarity);
        EXPECT_EQ(got.candidates[c].score, want.candidates[c].score);
      }
    }
  }
}

TEST(ParallelTrainer, BitIdenticalAcrossThreadCounts) {
  const Design& d = cached_design(tiny_spec(), Config::kSyn1);
  DatagenOptions dg;
  dg.num_samples = 24;
  dg.seed = 774;
  dg.num_threads = 1;
  const Dataset ds = generate_dataset(d, dg);
  const std::vector<gnn::LabeledGraph> data = tier_labeled(ds);
  ASSERT_GT(data.size(), 4u);

  gnn::TrainOptions o;
  o.epochs = 6;
  o.batch_size = 4;
  o.seed = 91;
  o.num_threads = 1;
  gnn::GraphClassifier reference(graphx::kNumSubgraphFeatures, {8, 8}, 2, 5);
  const gnn::TrainStats ref_stats =
      gnn::train_graph_classifier(reference, data, o);
  ASSERT_EQ(ref_stats.epochs_run, o.epochs);

  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    o.num_threads = threads;
    gnn::GraphClassifier model(graphx::kNumSubgraphFeatures, {8, 8}, 2, 5);
    const gnn::TrainStats stats = gnn::train_graph_classifier(model, data, o);
    // Losses compare as exact doubles, weights as exact floats: the slot-
    // ordered gradient merge leaves no room for reduction-order drift.
    EXPECT_EQ(stats.epoch_loss, ref_stats.epoch_loss);
    std::vector<gnn::ParamRef> got = model.params();
    std::vector<gnn::ParamRef> want = reference.params();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
      ASSERT_EQ(got[p].size, want[p].size);
      EXPECT_EQ(std::memcmp(got[p].value, want[p].value,
                            got[p].size * sizeof(float)),
                0)
          << "param " << p;
    }
  }
}

}  // namespace
}  // namespace m3dfl::eval
