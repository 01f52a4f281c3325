// The observability layer (src/obs/): histogram bucket boundaries, the
// metrics registry and its JSON snapshot, the epoch-progress callback, and
// — when tracing is compiled in — span nesting, cross-thread recording,
// ring overflow semantics, the Chrome trace exporter, and the guarantee
// that tracing a parallel pipeline run does not perturb its bit-identity.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "diagnosis/dictionary.h"
#include "eval/datagen.h"
#include "gnn/trainer.h"
#include "graphx/subgraph.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace m3dfl {
namespace {

using obs::LatencyHistogram;

// --- Minimal recursive-descent JSON validator ------------------------------
// Enough of RFC 8259 to prove the exporters emit well-formed JSON (objects,
// arrays, strings with escapes, numbers, literals); no value extraction.

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool valid() {
    skip();
    if (!value()) return false;
    skip();
    return pos_ == s_.size();
  }

 private:
  bool peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  bool expect(char c) {
    if (!peek(c)) return false;
    ++pos_;
    return true;
  }
  void skip() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool lit(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (!expect('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // Skip the escaped character.
      ++pos_;
    }
    return expect('"');
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek('-')) ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start + (s_[start] == '-' ? 1u : 0u);
  }
  bool array() {
    if (!expect('[')) return false;
    skip();
    if (expect(']')) return true;
    for (;;) {
      skip();
      if (!value()) return false;
      skip();
      if (expect(',')) continue;
      return expect(']');
    }
  }
  bool object() {
    if (!expect('{')) return false;
    skip();
    if (expect('}')) return true;
    for (;;) {
      skip();
      if (!string()) return false;
      skip();
      if (!expect(':')) return false;
      skip();
      if (!value()) return false;
      skip();
      if (expect(',')) continue;
      return expect('}');
    }
  }
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool json_valid(const std::string& s) { return JsonValidator(s).valid(); }

TEST(JsonValidatorSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(json_valid(R"({"a": [1, 2.5e-3, "x\"y"], "b": null})"));
  EXPECT_TRUE(json_valid("[]"));
  EXPECT_FALSE(json_valid("{\"a\": }"));
  EXPECT_FALSE(json_valid("{\"a\": 1} trailing"));
}

// --- LatencyHistogram ------------------------------------------------------

TEST(Histogram, ExactBoundaryLandsInItsBucket) {
  // Regression for the log()-rounding jitter: a value exactly on bucket i's
  // upper bound must land in bucket i (half-open-left buckets), for every
  // one of the 48 boundaries — not one bucket high when ceil(log(...))
  // rounds the inexact quotient up.
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const double ub = LatencyHistogram::bucket_upper_seconds(i);
    EXPECT_EQ(LatencyHistogram::bucket_index(ub), i) << "boundary " << i;
  }
}

TEST(Histogram, JustAboveBoundaryLandsInNextBucket) {
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kNumBuckets; ++i) {
    const double ub = LatencyHistogram::bucket_upper_seconds(i);
    const double above = std::nextafter(ub, 1e300);
    EXPECT_EQ(LatencyHistogram::bucket_index(above), i + 1)
        << "boundary " << i;
  }
}

TEST(Histogram, EdgeValues) {
  EXPECT_EQ(LatencyHistogram::bucket_index(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1e-12), 0u);
  // Far beyond the last bound: clamps to the last bucket.
  EXPECT_EQ(LatencyHistogram::bucket_index(1e6),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(Histogram, RecordFillsTheRightBucketAndStats) {
  LatencyHistogram h;
  const double v = LatencyHistogram::bucket_upper_seconds(5);
  h.record(v);
  h.record(v);
  h.record(std::nextafter(v, 1e300));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_count(5), 2u);
  EXPECT_EQ(h.bucket_count(6), 1u);
  EXPECT_GT(h.mean_seconds(), 0.0);
  EXPECT_GE(h.percentile_seconds(99), h.percentile_seconds(50));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(5), 0u);
}

// --- MetricsRegistry -------------------------------------------------------

TEST(Registry, ReferencesAreStableAndResetSurvives) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& c = reg.counter("obs_test.ctr");
  c.add(3);
  EXPECT_EQ(&c, &reg.counter("obs_test.ctr"));
  EXPECT_EQ(reg.counter("obs_test.ctr").value(), 3u);
  reg.reset();
  // The entry (and the cached reference) survives; only the value zeroes.
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  EXPECT_EQ(reg.counter("obs_test.ctr").value(), 1u);
}

TEST(Registry, ToJsonIsValidAndContainsEntries) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("obs_test.json_ctr").add(7);
  reg.gauge("obs_test.json_gauge").set(0.25);
  reg.histogram("obs_test.json_hist").record(1.5e-3);
  const std::string js = reg.to_json();
  EXPECT_TRUE(json_valid(js)) << js;
  EXPECT_NE(js.find("\"obs_test.json_ctr\""), std::string::npos);
  EXPECT_NE(js.find("\"obs_test.json_gauge\""), std::string::npos);
  EXPECT_NE(js.find("\"obs_test.json_hist\""), std::string::npos);
  EXPECT_NE(js.find("\"p95_ms\""), std::string::npos);
}

// --- Epoch callback --------------------------------------------------------

/// Path graph 0-1-...-(n-1) with random features; feature 3 carries the
/// class signal (same recipe as gnn_test.cpp).
graphx::SubGraph path_graph(std::size_t n, Rng& rng, float tier_value) {
  graphx::SubGraph g;
  g.nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.nodes[i] = static_cast<std::uint32_t>(i);
  }
  g.row_ptr.assign(n + 1, 0);
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    adj[i].push_back(static_cast<std::uint32_t>(i + 1));
    adj[i + 1].push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    g.row_ptr[i + 1] = g.row_ptr[i] + adj[i].size();
    for (auto v : adj[i]) g.col_idx.push_back(v);
  }
  g.features.resize(n * graphx::kNumSubgraphFeatures);
  for (auto& f : g.features) f = static_cast<float>(rng.uniform());
  for (std::size_t i = 0; i < n; ++i) g.feature(i, 3) = tier_value;
  return g;
}

TEST(EpochCallback, ObservesEveryEpochWithoutPerturbingTraining) {
  Rng rng(9);
  std::vector<graphx::SubGraph> graphs;
  std::vector<gnn::LabeledGraph> data;
  for (int i = 0; i < 20; ++i) {
    graphs.push_back(path_graph(4 + i % 3, rng, i % 2 ? 1.0f : 0.0f));
  }
  for (int i = 0; i < 20; ++i) data.push_back({&graphs[i], i % 2});

  gnn::TrainOptions o;
  o.epochs = 5;
  o.batch_size = 4;
  o.seed = 31;
  o.num_threads = 2;  // Exercises the grad-merge timing too.

  gnn::GraphClassifier silent(graphx::kNumSubgraphFeatures, {8}, 2, 5);
  const gnn::TrainStats want = gnn::train_graph_classifier(silent, data, o);

  std::vector<gnn::EpochStats> seen;
  o.on_epoch = [&seen](const gnn::EpochStats& es) { seen.push_back(es); };
  gnn::GraphClassifier observed(graphx::kNumSubgraphFeatures, {8}, 2, 5);
  const gnn::TrainStats got = gnn::train_graph_classifier(observed, data, o);

  // The callback fires once per epoch, in order, with the published loss.
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(got.epochs_run));
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].epoch, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(seen[i].loss, got.epoch_loss[i]);
    EXPECT_EQ(seen[i].examples, data.size());
    EXPECT_GE(seen[i].seconds, 0.0);
    EXPECT_GE(seen[i].grad_merge_seconds, 0.0);
    EXPECT_LE(seen[i].grad_merge_seconds, seen[i].seconds);
  }
  // Observing is free: same losses as the un-observed run.
  EXPECT_EQ(got.epoch_loss, want.epoch_loss);
}

TEST(EpochCallback, NodeScorerReportsZeroMergeTime) {
  Rng rng(10);
  std::vector<graphx::SubGraph> graphs;
  for (int i = 0; i < 10; ++i) {
    graphx::SubGraph g = path_graph(6, rng, 0.0f);
    g.miv_local = {1, 3};
    g.miv_label = {1.0f, 0.0f};
    graphs.push_back(std::move(g));
  }
  std::vector<const graphx::SubGraph*> data;
  for (const auto& g : graphs) data.push_back(&g);

  gnn::TrainOptions o;
  o.epochs = 3;
  std::vector<gnn::EpochStats> seen;
  o.on_epoch = [&seen](const gnn::EpochStats& es) { seen.push_back(es); };
  gnn::NodeScorer model(graphx::kNumSubgraphFeatures, {8}, 5);
  const gnn::TrainStats stats = gnn::train_node_scorer(model, data, o);
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(stats.epochs_run));
  for (const gnn::EpochStats& es : seen) {
    EXPECT_EQ(es.grad_merge_seconds, 0.0);  // No clone merge in this path.
  }
}

#if M3DFL_OBS_ENABLED

// --- Tracer ----------------------------------------------------------------

/// Starts every tracer test from a clean, enabled tracer.
void reset_tracer() {
  obs::Tracer& tr = obs::Tracer::instance();
  tr.set_enabled(false);
  tr.clear();
  tr.set_enabled(true);
}

const obs::SpanEvent* find_span(const std::vector<obs::SpanEvent>& events,
                                const char* name) {
  for (const obs::SpanEvent& e : events) {
    if (std::strcmp(e.name, name) == 0) return &e;
  }
  return nullptr;
}

TEST(Tracer, NestedSpansShareAThreadAndStackDepths) {
  reset_tracer();
  {
    obs::ObsSpan outer("obs_test.outer");
    {
      obs::ObsSpan inner("obs_test.inner");
      // A little real work so durations are nonzero on coarse clocks.
      volatile double x = 0;
      for (int i = 0; i < 10000; ++i) x = x + 1.0;
    }
  }
  obs::Tracer::instance().set_enabled(false);
  const std::vector<obs::SpanEvent> events =
      obs::Tracer::instance().snapshot();
  const obs::SpanEvent* outer = find_span(events, "obs_test.outer");
  const obs::SpanEvent* inner = find_span(events, "obs_test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_EQ(inner->depth, outer->depth + 1);
  // Containment: the inner span opens and closes within the outer one.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns,
            outer->start_ns + outer->dur_ns);
}

TEST(Tracer, SpansRecordAcrossExecutorThreads) {
  reset_tracer();
  {
    Executor exec(4);
    // A barrier inside the tasks forces all four workers to hold one task
    // simultaneously, so four distinct threads record spans.
    std::atomic<int> arrived{0};
    std::vector<std::future<void>> done;
    for (int i = 0; i < 4; ++i) {
      done.push_back(exec.submit([&arrived] {
        obs::ObsSpan span("obs_test.parallel");
        arrived.fetch_add(1);
        while (arrived.load() < 4) std::this_thread::yield();
      }));
    }
    for (auto& f : done) f.get();
  }
  obs::Tracer::instance().set_enabled(false);
  std::set<std::uint32_t> tids;
  for (const obs::SpanEvent& e : obs::Tracer::instance().snapshot()) {
    if (std::strcmp(e.name, "obs_test.parallel") == 0) tids.insert(e.tid);
  }
  EXPECT_EQ(tids.size(), 4u);
}

TEST(Tracer, RingOverflowDropsOldestWithoutCorruption) {
  reset_tracer();
  obs::Tracer& tr = obs::Tracer::instance();
  for (int i = 0; i < 500; ++i) tr.record("obs_test.old", "t", 1, 1, 0);
  for (std::size_t i = 0; i < obs::Tracer::kRingCapacity; ++i) {
    tr.record("obs_test.new", "t", 2, 1, 0);
  }
  tr.set_enabled(false);
  std::size_t olds = 0, news = 0;
  for (const obs::SpanEvent& e : tr.snapshot()) {
    if (std::strcmp(e.name, "obs_test.old") == 0) ++olds;
    if (std::strcmp(e.name, "obs_test.new") == 0) ++news;
    // No torn slots: every surviving event is one of the two we wrote.
    EXPECT_TRUE(std::strcmp(e.name, "obs_test.old") == 0 ||
                std::strcmp(e.name, "obs_test.new") == 0)
        << e.name;
  }
  EXPECT_EQ(olds, 0u);  // All 500 older spans were overwritten.
  EXPECT_EQ(news, obs::Tracer::kRingCapacity);
  EXPECT_GE(tr.dropped(), 500u);
}

TEST(Tracer, ChromeTraceExportIsValidJson) {
  reset_tracer();
  {
    obs::ObsSpan a("obs_test.export");
    obs::ObsSpan b("obs_test.export_inner");
  }
  obs::Tracer::instance().set_enabled(false);
  std::ostringstream os;
  obs::Tracer::instance().write_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_TRUE(json_valid(trace)) << trace.substr(0, 400);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("obs_test.export"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
}

// --- Traced pipeline: coverage + bit-identity ------------------------------

// A design build explains itself: its span has one child per build stage,
// in flow order, each inside the build on the same thread, and ATPG's
// fault-dropping pass nests inside its stage.
TEST(Tracer, DesignBuildSplitsIntoStageSpans) {
  reset_tracer();
  const auto d = eval::build_design(eval::tiny_spec(), eval::Config::kSyn2);
  obs::Tracer::instance().set_enabled(false);
  const std::vector<obs::SpanEvent> events =
      obs::Tracer::instance().snapshot();
  const obs::SpanEvent* build = find_span(events, "design.build");
  ASSERT_NE(build, nullptr);
  std::uint64_t previous_end = build->start_ns;
  for (const char* stage : {"design.netlist", "design.partition",
                            "design.atpg", "design.core", "design.graph"}) {
    const obs::SpanEvent* e = find_span(events, stage);
    ASSERT_NE(e, nullptr) << stage;
    EXPECT_EQ(e->tid, build->tid) << stage;
    EXPECT_EQ(e->depth, build->depth + 1) << stage;
    EXPECT_GE(e->start_ns, previous_end) << stage;
    previous_end = e->start_ns + e->dur_ns;
  }
  EXPECT_LE(previous_end, build->start_ns + build->dur_ns);

  // ATPG's random-base fault-dropping pass is a span of its own, inside
  // design.atpg.
  const obs::SpanEvent* atpg = find_span(events, "design.atpg");
  const obs::SpanEvent* drop = find_span(events, "design.fault_drop");
  ASSERT_NE(drop, nullptr);
  EXPECT_EQ(drop->tid, atpg->tid);
  EXPECT_EQ(drop->depth, atpg->depth + 1);
  EXPECT_GE(drop->start_ns, atpg->start_ns);
  EXPECT_LE(drop->start_ns + drop->dur_ns, atpg->start_ns + atpg->dur_ns);
}

TEST(TracedPipeline, CoversStagesAcrossThreadsWithoutPerturbingResults) {
  using namespace eval;
  const Design& d = cached_design(tiny_spec(), Config::kSyn1);

  // Untraced reference.
  obs::Tracer::instance().set_enabled(false);
  DatagenOptions o;
  o.num_samples = 16;
  o.seed = 991;
  o.num_threads = 2;
  const Dataset reference = generate_dataset(d, o);
  ASSERT_GT(reference.size(), 0u);

  // Same run, traced, plus the rest of the pipeline for span coverage.
  reset_tracer();
  const Dataset traced = generate_dataset(d, o);
  diag::FaultDictionaryOptions fo;
  fo.num_threads = 2;
  const diag::FaultDictionary dict(d.nl, d.sites, *d.fsim, fo);
  const std::vector<gnn::LabeledGraph> data = tier_labeled(traced);
  ASSERT_GT(data.size(), 0u);
  gnn::TrainOptions to;
  to.epochs = 2;
  to.batch_size = 4;
  to.num_threads = 2;
  gnn::GraphClassifier model(graphx::kNumSubgraphFeatures, {8}, 2, 5);
  gnn::train_graph_classifier(model, data, to);
  diag::Diagnoser diagnoser = d.make_diagnoser();
  diagnoser.diagnose(reference.samples.front().log);
  obs::Tracer::instance().set_enabled(false);

  // Tracing observed but did not perturb: bit-identical dataset.
  ASSERT_EQ(traced.size(), reference.size());
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Sample& a = reference.samples[i];
    const Sample& b = traced.samples[i];
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (std::size_t f = 0; f < a.faults.size(); ++f) {
      EXPECT_EQ(a.faults[f].site, b.faults[f].site);
      EXPECT_EQ(a.faults[f].polarity, b.faults[f].polarity);
    }
    EXPECT_EQ(a.log.fails, b.log.fails);
    ASSERT_EQ(a.sub.features.size(), b.sub.features.size());
    EXPECT_EQ(std::memcmp(a.sub.features.data(), b.sub.features.data(),
                          a.sub.features.size() * sizeof(float)),
              0);
  }

  // Coverage: distinct pipeline stages on multiple threads.
  std::set<std::string> names;
  std::set<std::uint32_t> tids;
  for (const obs::SpanEvent& e : obs::Tracer::instance().snapshot()) {
    names.insert(e.name);
    tids.insert(e.tid);
  }
  EXPECT_GE(names.size(), 6u);
  EXPECT_GE(tids.size(), 2u);
  for (const char* expected :
       {"datagen.generate", "datagen.shard", "dictionary.build",
        "dictionary.shard", "train.epoch", "diag.backtrace", "diag.score",
        "diag.rank", "executor.task"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
  }

  // Metrics side: the instrumented stages fed the registry.
  auto& reg = obs::MetricsRegistry::instance();
  EXPECT_GT(reg.counter("datagen.samples").value(), 0u);
  EXPECT_GT(reg.counter("sim.observed_diff_calls").value(), 0u);
  EXPECT_GT(reg.histogram("datagen.sample").count(), 0u);
  EXPECT_GT(reg.histogram("dictionary.shard").count(), 0u);
  EXPECT_GT(reg.histogram("train.epoch").count(), 0u);
  EXPECT_GT(reg.histogram("diag.backtrace").count(), 0u);
}

#endif  // M3DFL_OBS_ENABLED

}  // namespace
}  // namespace m3dfl
