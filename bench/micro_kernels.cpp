// google-benchmark micro-kernels for the library's hot paths: bit-parallel
// logic simulation, event-driven fault simulation, heterogeneous-graph
// construction, back-tracing, per-log diagnosis, PODEM, and GNN inference.

#include <benchmark/benchmark.h>

#include "atpg/patterns.h"
#include "atpg/podem.h"
#include "core/tier_predictor.h"
#include "eval/benchmarks.h"
#include "eval/datagen.h"
#include "gnn/qkernels.h"
#include "gnn/quant.h"
#include "graphx/backtrace.h"
#include "obs/prof/counters.h"

namespace m3dfl {
namespace {

#if M3DFL_OBS_ENABLED
/// Attaches hardware-counter rates to a kernel's report: reads the calling
/// thread's counter group at construction and, at destruction (after the
/// timing loop, before the runner collects state.counters), publishes
/// "ipc" / "llc_misses_per_kinstr" / "branch_misses_per_kinstr". Publishes
/// nothing when the machine's rung has no hardware counters, so the JSON
/// only gains keys where they are real — bench_compare treats them as
/// additive either way.
class HwCounters {
 public:
  explicit HwCounters(benchmark::State& state) : state_(state) {
    valid_ = obs::prof::read_thread_counters(&start_);
  }
  ~HwCounters() {
    obs::prof::CounterValues end;
    if (!valid_ || !obs::prof::read_thread_counters(&end) ||
        !start_.hw_valid || !end.hw_valid ||
        end.instructions <= start_.instructions) {
      return;
    }
    const double instr =
        static_cast<double>(end.instructions - start_.instructions);
    const double cycles = static_cast<double>(end.cycles - start_.cycles);
    state_.counters["ipc"] = cycles > 0.0 ? instr / cycles : 0.0;
    state_.counters["llc_misses_per_kinstr"] =
        1e3 * static_cast<double>(end.llc_misses - start_.llc_misses) / instr;
    state_.counters["branch_misses_per_kinstr"] =
        1e3 * static_cast<double>(end.branch_misses - start_.branch_misses) /
        instr;
  }
  HwCounters(const HwCounters&) = delete;
  HwCounters& operator=(const HwCounters&) = delete;

 private:
  benchmark::State& state_;
  bool valid_ = false;
  obs::prof::CounterValues start_;
};
#else
struct HwCounters {
  explicit HwCounters(benchmark::State&) {}
};
#endif

const eval::Design& fixture() {
  static const eval::Design& d =
      eval::cached_design(eval::tiny_spec(), eval::Config::kSyn1);
  return d;
}

void BM_LogicSimulation(benchmark::State& state) {
  const eval::Design& d = fixture();
  const HwCounters hw(state);
  sim::LogicSimulator simulator(d.nl);
  std::vector<sim::Word> out(d.nl.num_gates() * d.patterns.num_words());
  for (auto _ : state) {
    simulator.run_into(d.patterns, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(d.nl.num_gates()) *
                          static_cast<std::int64_t>(d.patterns.num_patterns()));
}
BENCHMARK(BM_LogicSimulation);

// Sweeps all five fault polarities (TDF rise/fall/gross plus both stuck-at
// values) so the conditional and forced-constant injection paths are both
// measured. Items = fault-pattern evaluations.
void BM_FaultSimulation(benchmark::State& state) {
  const eval::Design& d = fixture();
  const HwCounters hw(state);
  std::vector<sim::Word> diff;
  netlist::SiteId site = 0;
  std::size_t pol = 0;
  for (auto _ : state) {
    site = (site + 37) % d.sites.size();
    d.fsim->observed_diff({site, sim::kAllPolarities[pol]}, diff);
    pol = (pol + 1) % std::size(sim::kAllPolarities);
    benchmark::DoNotOptimize(diff.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(d.fsim->num_patterns()));
}
BENCHMARK(BM_FaultSimulation);

// Same sweep through the detect-only fast path: propagation stops at the
// first failing observation point and no diff is materialized.
void BM_FaultSimulation_EarlyExit(benchmark::State& state) {
  const eval::Design& d = fixture();
  const HwCounters hw(state);
  netlist::SiteId site = 0;
  std::size_t pol = 0;
  for (auto _ : state) {
    site = (site + 37) % d.sites.size();
    bool det = d.fsim->detects({site, sim::kAllPolarities[pol]});
    pol = (pol + 1) % std::size(sim::kAllPolarities);
    benchmark::DoNotOptimize(det);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(d.fsim->num_patterns()));
}
BENCHMARK(BM_FaultSimulation_EarlyExit);

void BM_HeteroGraphConstruction(benchmark::State& state) {
  const eval::Design& d = fixture();
  for (auto _ : state) {
    graphx::HeteroGraph graph(d.nl, d.sites);
    benchmark::DoNotOptimize(graph.num_topedges());
  }
}
BENCHMARK(BM_HeteroGraphConstruction);

void BM_BacktraceSubgraph(benchmark::State& state) {
  const eval::Design& d = fixture();
  const HwCounters hw(state);
  eval::DatagenOptions opts;
  opts.num_samples = 1;
  opts.seed = 99;
  const eval::Dataset ds = eval::generate_dataset(d, opts);
  if (ds.samples.empty()) {
    state.SkipWithError("no detectable fault");
    return;
  }
  const sim::FailureLog& log = ds.samples.front().log;
  for (auto _ : state) {
    const graphx::SubGraph sg =
        graphx::backtrace_subgraph(*d.graph, log, d.scan);
    benchmark::DoNotOptimize(sg.num_nodes());
  }
}
BENCHMARK(BM_BacktraceSubgraph);

// One effect-cause diagnosis (cone back-trace, two-phase candidate scoring,
// ranking) of a fixed aes Syn-2 failure log: bypass (compacted:0) and
// through the XOR compactor (compacted:1).
void BM_DiagnoseLog(benchmark::State& state) {
  static const eval::Design& d =
      eval::cached_design(eval::aes_spec(), eval::Config::kSyn2);
  eval::DatagenOptions opts;
  opts.num_samples = 1;
  opts.seed = 7;
  opts.compacted = state.range(0) != 0;
  const eval::Dataset ds = eval::generate_dataset(d, opts);
  if (ds.samples.empty()) {
    state.SkipWithError("no detectable fault");
    return;
  }
  const sim::FailureLog& log = ds.samples.front().log;
  diag::Diagnoser diagnoser = d.make_diagnoser();
  const HwCounters hw(state);
  for (auto _ : state) {
    const diag::DiagnosisReport report = diagnoser.diagnose(log);
    benchmark::DoNotOptimize(report.candidates.data());
  }
}
BENCHMARK(BM_DiagnoseLog)->ArgName("compacted")->Arg(0)->Arg(1);

void BM_PodemGenerate(benchmark::State& state) {
  const eval::Design& d = fixture();
  atpg::Podem podem(d.nl, d.sites);
  netlist::SiteId site = 1;
  for (auto _ : state) {
    site = (site + 53) % d.sites.size();
    const auto r =
        podem.generate({site, sim::FaultPolarity::kSlowToRise});
    benchmark::DoNotOptimize(r.success);
  }
}
BENCHMARK(BM_PodemGenerate);

// fp32 vs int8 GEMM at inference-relevant shapes: (m x k) activations
// against a (k x n) layer. Args = {m, k, n}; items = multiply-accumulates,
// so items/s is directly comparable between the two kernels.
void BM_GemmFp32(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(7);
  const gnn::Matrix a = gnn::Matrix::xavier(m, k, rng);
  const gnn::Matrix b = gnn::Matrix::xavier(k, n, rng);
  const HwCounters hw(state);
  for (auto _ : state) {
    const gnn::Matrix c = gnn::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m * n * k));
}
BENCHMARK(BM_GemmFp32)
    ->Args({32, 13, 32})
    ->Args({64, 32, 32})
    ->Args({128, 64, 64})
    ->Args({256, 64, 64});

void BM_QGemmInt8(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(7);
  gnn::QMatrix a(m, k), bt(n, k);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < k; ++j)
      a.at(i, j) = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j)
      bt.at(i, j) = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  const gnn::QGemmFn kernel = gnn::active_qgemm();
  std::vector<std::int32_t> c(m * n);
  const HwCounters hw(state);
  for (auto _ : state) {
    kernel(a.data(), bt.data(), c.data(), m, n, a.stride());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m * n * k));
}
BENCHMARK(BM_QGemmInt8)
    ->Args({32, 13, 32})
    ->Args({64, 32, 32})
    ->Args({128, 64, 64})
    ->Args({256, 64, 64});

// Whole quantized layer: quantize activations, int8 GEMM, dequant + bias —
// what QuantizedGcnLayer/heads actually pay per forward.
void BM_QuantLinearForward(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(7);
  const gnn::Matrix w = gnn::Matrix::xavier(k, n, rng);
  const std::vector<float> bias(n, 0.1f);
  gnn::Matrix x(m, k);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  const gnn::QuantizedLinear ql = gnn::quantize_linear(w, bias, 1.0f);
  const HwCounters hw(state);
  for (auto _ : state) {
    const gnn::Matrix y = ql.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m * n * k));
}
BENCHMARK(BM_QuantLinearForward)
    ->Args({64, 32, 32})
    ->Args({256, 64, 64});

void BM_TierPredictorInference(benchmark::State& state) {
  const eval::Design& d = fixture();
  const HwCounters hw(state);
  eval::DatagenOptions opts;
  opts.num_samples = 1;
  opts.seed = 123;
  const eval::Dataset ds = eval::generate_dataset(d, opts);
  if (ds.samples.empty()) {
    state.SkipWithError("no detectable fault");
    return;
  }
  core::TierPredictor tier(7);
  for (auto _ : state) {
    const auto pred = tier.predict(ds.samples.front().sub);
    benchmark::DoNotOptimize(pred.p_top);
  }
}
BENCHMARK(BM_TierPredictorInference);

// The same end-to-end graph forward through the calibrated int8 twin —
// the serve hot loop's model path under --inference int8.
void BM_QuantizedTierInference(benchmark::State& state) {
  const eval::Design& d = fixture();
  const HwCounters hw(state);
  eval::DatagenOptions opts;
  opts.num_samples = 1;
  opts.seed = 123;
  const eval::Dataset ds = eval::generate_dataset(d, opts);
  if (ds.samples.empty()) {
    state.SkipWithError("no detectable fault");
    return;
  }
  const core::TierPredictor tier(7);
  const graphx::SubGraph* calib[] = {&ds.samples.front().sub};
  const gnn::QuantizedGraphClassifier q =
      gnn::quantize_graph_classifier(tier.model(), calib);
  for (auto _ : state) {
    const std::vector<float> p = q.predict_probs(ds.samples.front().sub);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_QuantizedTierInference);

}  // namespace
}  // namespace m3dfl

BENCHMARK_MAIN();
