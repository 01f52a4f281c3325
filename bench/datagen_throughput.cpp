// Offline-pipeline throughput: the deterministically parallel datagen ->
// dictionary -> training flow versus the same flow pinned to one thread.
// Each stage's parallel output is bit-identical to its sequential output
// (per-sample RNG streams, site-ordered dictionary merge, slot-ordered
// gradient merge — tests/parallel_pipeline_test.cpp asserts it), so this
// bench also cross-checks the determinism contract before timing. Emits
// BENCH_datagen_throughput.json (google-benchmark JSON schema) so CI trend
// tooling can ingest the record.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/table_common.h"
#include "common/executor.h"
#include "diagnosis/dictionary.h"
#include "eval/datagen.h"
#include "gnn/trainer.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace m3dfl;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Run {
  std::string name;
  std::size_t items = 0;
  double wall_seconds = 0.0;
  // Tracer-clock window of the run, for attributing spans to it.
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;

  double per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(items) / wall_seconds
                              : 0.0;
  }
};

/// Spans whose start falls inside the run's window, aggregated by name —
/// the per-stage breakdown the obs layer adds to each benchmark record.
std::vector<obs::SpanSummary> stage_breakdown(
    const std::vector<obs::SpanEvent>& events, const Run& r) {
  std::vector<obs::SpanEvent> window;
  for (const obs::SpanEvent& e : events) {
    if (e.start_ns >= r.t0_ns && e.start_ns < r.t1_ns) window.push_back(e);
  }
  return obs::summarize_spans(window);
}

void json_run(std::ofstream& os, const Run& r,
              const std::vector<obs::SpanEvent>& events, bool last) {
  os << "    {\n"
     << "      \"name\": \"" << r.name << "\",\n"
     << "      \"run_type\": \"iteration\",\n"
     << "      \"iterations\": " << r.items << ",\n"
     << "      \"real_time\": " << r.wall_seconds * 1e3 << ",\n"
     << "      \"time_unit\": \"ms\",\n"
     << "      \"items_per_second\": " << r.per_second() << ",\n"
     << "      \"stages\": [";
  const std::vector<obs::SpanSummary> stages = stage_breakdown(events, r);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": \"" << stages[i].name
       << "\", \"count\": " << stages[i].count
       << ", \"total_ms\": " << stages[i].total_ms
       << ", \"threads\": " << stages[i].threads << "}";
  }
  os << "]\n"
     << "    }" << (last ? "\n" : ",\n");
}

bool same_dataset(const eval::Dataset& a, const eval::Dataset& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const eval::Sample& x = a.samples[i];
    const eval::Sample& y = b.samples[i];
    if (x.faults.size() != y.faults.size()) return false;
    for (std::size_t f = 0; f < x.faults.size(); ++f) {
      if (x.faults[f].site != y.faults[f].site ||
          x.faults[f].polarity != y.faults[f].polarity) {
        return false;
      }
    }
    if (x.log.fails.size() != y.log.fails.size()) return false;
    if (x.sub.nodes != y.sub.nodes || x.sub.features != y.sub.features) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  std::puts("Offline-pipeline throughput: parallel vs single-thread");
  std::puts("(outputs are bit-identical at every thread count — the point");
  std::puts(" of the (seed, index) RNG streams and ordered merges)\n");

  const bool fast = std::getenv("M3DFL_FAST") != nullptr;
  const std::size_t num_samples = fast ? 24 : 200;
  // The parallel rows run at a fixed thread count, so their names (which
  // the gated baseline matches) are the same on every host.
  constexpr std::size_t kThreads = 4;
  const std::size_t hw = resolve_num_threads(0);
  std::printf("hardware threads: %zu, parallel rows: %zu threads\n\n", hw,
              kThreads);

  // Trace the whole bench; each run keeps its tracer-clock window so its
  // spans can be attributed back to it in the JSON record.
  obs::MetricsRegistry::instance().reset();
  obs::Tracer::instance().set_enabled(true);

  const eval::BenchmarkSpec spec = eval::tiny_spec();
  const eval::Design& design = eval::cached_design(spec, eval::Config::kSyn1);

  std::vector<Run> runs;

  // Stage 1: dataset generation.
  eval::DatagenOptions dopts;
  dopts.num_samples = num_samples;
  dopts.seed = 2026;
  dopts.num_threads = 1;
  Run dg_seq{"datagen/1thread", num_samples, 0.0};
  dg_seq.t0_ns = obs::Tracer::now_ns();
  auto t0 = Clock::now();
  const eval::Dataset ds_seq = eval::generate_dataset(design, dopts);
  dg_seq.wall_seconds = seconds_since(t0);
  dg_seq.t1_ns = obs::Tracer::now_ns();
  runs.push_back(dg_seq);

  dopts.num_threads = kThreads;
  Run dg_par{"datagen/" + std::to_string(kThreads) + "threads", num_samples,
             0.0};
  dg_par.t0_ns = obs::Tracer::now_ns();
  t0 = Clock::now();
  const eval::Dataset ds_par = eval::generate_dataset(design, dopts);
  dg_par.wall_seconds = seconds_since(t0);
  dg_par.t1_ns = obs::Tracer::now_ns();
  runs.push_back(dg_par);

  if (!same_dataset(ds_seq, ds_par)) {
    std::puts("FATAL: parallel datagen diverged from sequential");
    return 1;
  }

  // Stage 2: fault-dictionary signature campaign.
  diag::FaultDictionaryOptions fopts;
  fopts.num_threads = 1;
  Run di_seq{"dictionary/1thread", design.sites.size(), 0.0};
  di_seq.t0_ns = obs::Tracer::now_ns();
  t0 = Clock::now();
  const diag::FaultDictionary dict_seq(design.nl, design.sites, *design.fsim,
                                       fopts);
  di_seq.wall_seconds = seconds_since(t0);
  di_seq.t1_ns = obs::Tracer::now_ns();
  runs.push_back(di_seq);

  fopts.num_threads = kThreads;
  Run di_par{"dictionary/" + std::to_string(kThreads) + "threads",
             design.sites.size(), 0.0};
  di_par.t0_ns = obs::Tracer::now_ns();
  t0 = Clock::now();
  const diag::FaultDictionary dict_par(design.nl, design.sites, *design.fsim,
                                       fopts);
  di_par.wall_seconds = seconds_since(t0);
  di_par.t1_ns = obs::Tracer::now_ns();
  runs.push_back(di_par);

  if (dict_seq.fingerprint() != dict_par.fingerprint()) {
    std::puts("FATAL: parallel dictionary diverged from sequential");
    return 1;
  }

  // Stage 3: graph-classifier training epochs.
  const std::vector<gnn::LabeledGraph> labeled = eval::tier_labeled(ds_seq);
  gnn::TrainOptions topts;
  topts.epochs = fast ? 4 : 12;
  topts.num_threads = 1;
  gnn::GraphClassifier m_seq(13, {16, 16}, 2, 7);
  Run tr_seq{"train/1thread", labeled.size(), 0.0};
  tr_seq.t0_ns = obs::Tracer::now_ns();
  t0 = Clock::now();
  const gnn::TrainStats s_seq = gnn::train_graph_classifier(m_seq, labeled,
                                                            topts);
  tr_seq.wall_seconds = seconds_since(t0);
  tr_seq.t1_ns = obs::Tracer::now_ns();
  runs.push_back(tr_seq);

  topts.num_threads = kThreads;
  gnn::GraphClassifier m_par(13, {16, 16}, 2, 7);
  Run tr_par{"train/" + std::to_string(kThreads) + "threads", labeled.size(),
             0.0};
  tr_par.t0_ns = obs::Tracer::now_ns();
  t0 = Clock::now();
  const gnn::TrainStats s_par = gnn::train_graph_classifier(m_par, labeled,
                                                            topts);
  tr_par.wall_seconds = seconds_since(t0);
  tr_par.t1_ns = obs::Tracer::now_ns();
  runs.push_back(tr_par);

  if (s_seq.epoch_loss != s_par.epoch_loss) {
    std::puts("FATAL: parallel training diverged from sequential");
    return 1;
  }

  TablePrinter t;
  t.set_header({"Stage", "Items", "Wall (s)", "Items/s"});
  for (const Run& r : runs) {
    t.add_row({r.name, std::to_string(r.items), fmt(r.wall_seconds, 3),
               fmt(r.per_second(), 1)});
  }
  t.print();
  std::printf(
      "\nSpeedup at %zu threads: datagen %.2fx, dictionary %.2fx, "
      "train %.2fx\n",
      kThreads,
      runs[1].wall_seconds > 0 ? runs[0].wall_seconds / runs[1].wall_seconds
                               : 0.0,
      runs[3].wall_seconds > 0 ? runs[2].wall_seconds / runs[3].wall_seconds
                               : 0.0,
      runs[5].wall_seconds > 0 ? runs[4].wall_seconds / runs[5].wall_seconds
                               : 0.0);
  std::puts("(speedups are per-machine; a 1-core host reports ~1.0x)");

  obs::Tracer::instance().set_enabled(false);
  const std::vector<obs::SpanEvent> events = obs::Tracer::instance().snapshot();

  std::ofstream os("BENCH_datagen_throughput.json");
  os << "{\n  \"context\": {\n"
     << "    \"executable\": \"bench_datagen_throughput\",\n"
     << "    \"build\": " << obs::build_info_json() << ",\n"
     << "    \"num_samples\": " << num_samples << ",\n"
     << "    \"hardware_threads\": " << hw << ",\n"
     << "    \"parallel_threads\": " << kThreads << "\n  },\n"
     << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    json_run(os, runs[i], events, i + 1 == runs.size());
  }
  os << "  ],\n"
     << "  \"metrics\": " << obs::MetricsRegistry::instance().to_json()
     << "\n}\n";
  std::puts("\nwrote BENCH_datagen_throughput.json");
  return 0;
}
