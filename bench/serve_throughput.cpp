// Throughput comparison of the two deployment shapes of the diagnosis
// flow: single-request sequential diagnosis (the `m3dfl diagnose` path,
// one failure log at a time) versus the concurrent serving subsystem
// (src/serve/: bounded admission + thread-pool executor + sub-graph LRU
// cache). Prints requests/sec and latency percentiles for both, and
// emits BENCH_serve_throughput.json (google-benchmark JSON schema) so CI
// trend tooling can ingest the record.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "bench/table_common.h"
#include "eval/datagen.h"
#include "eval/quantize.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/prof/counters.h"
#include "obs/prof/profiler.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace m3dfl;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

struct Run {
  const char* name = "";
  std::size_t requests = 0;
  double wall_seconds = 0.0;
  std::vector<double> latencies;  ///< Per-request seconds.

  double rps() const {
    return wall_seconds > 0.0 ? static_cast<double>(requests) / wall_seconds
                              : 0.0;
  }
};

void add_run_row(TablePrinter& t, const Run& r) {
  t.add_row({r.name, std::to_string(r.requests), fmt(r.wall_seconds, 3),
             fmt(r.rps(), 1), fmt(percentile(r.latencies, 50) * 1e3, 2),
             fmt(percentile(r.latencies, 95) * 1e3, 2),
             fmt(percentile(r.latencies, 99) * 1e3, 2)});
}

void json_run(std::ofstream& os, const Run& r, const std::string& extra,
              bool last) {
  os << "    {\n"
     << "      \"name\": \"" << r.name << "\",\n"
     << "      \"run_type\": \"iteration\",\n"
     << "      \"iterations\": " << r.requests << ",\n"
     << "      \"real_time\": " << r.wall_seconds * 1e3 << ",\n"
     << "      \"time_unit\": \"ms\",\n"
     << "      \"requests_per_second\": " << r.rps() << ",\n"
     << "      \"p50_ms\": " << percentile(r.latencies, 50) * 1e3 << ",\n"
     << "      \"p95_ms\": " << percentile(r.latencies, 95) * 1e3 << ",\n"
     << "      \"p99_ms\": " << percentile(r.latencies, 99) * 1e3 << extra
     << "\n    }" << (last ? "\n" : ",\n");
}

#if M3DFL_OBS_ENABLED
/// Per-run hardware-counter fields ("ipc", "llc_misses_per_kinstr", ...)
/// for the named counter scope — additive keys the bench_compare gate
/// lists in a NOTE and never gates on. Empty when the run recorded no
/// instructions (rusage rung, or counters disabled).
std::string hw_json_fields(const char* scope_name) {
  for (const auto& [name, totals] :
       m3dfl::obs::prof::CounterRegistry::instance().snapshot()) {
    if (name != scope_name || totals.instructions == 0) continue;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\n      \"ipc\": %.3f"
                  ",\n      \"llc_misses_per_kinstr\": %.3f"
                  ",\n      \"branch_misses_per_kinstr\": %.3f",
                  totals.ipc(), totals.llc_misses_per_kinstr(),
                  totals.branch_misses_per_kinstr());
    return buf;
  }
  return {};
}
#endif

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--profile out.folded] [--counters] "
               "[--inference fp32|int8] [--inference-spec tiny|m3d100k]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string profile_path;
  bool want_counters = false;
  eval::InferenceMode serve_mode = eval::InferenceMode::kFp32;
  std::string inference_spec = "tiny";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--profile" && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (arg == "--counters") {
      want_counters = true;
    } else if (arg == "--inference" && i + 1 < argc) {
      if (!eval::parse_inference_mode(argv[++i], serve_mode)) {
        return usage(argv[0]);
      }
    } else if (arg == "--inference-spec" && i + 1 < argc) {
      inference_spec = argv[++i];
      if (inference_spec != "tiny" && inference_spec != "m3d100k") {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }
#if !M3DFL_OBS_ENABLED
  if (!profile_path.empty() || want_counters) {
    std::fputs("note: built with -DM3DFL_OBS=OFF; "
               "--profile/--counters are inert\n", stderr);
  }
#endif
  std::puts("Serve throughput: sequential diagnosis vs concurrent serving");
  std::puts("(same failure logs, same trained framework; served results are");
  std::puts(" bit-identical to sequential — tests/serve_test.cpp asserts it)\n");

  obs::MetricsRegistry::instance().reset();
  obs::Tracer::instance().set_enabled(true);
#if M3DFL_OBS_ENABLED
  if (want_counters) {
    obs::prof::CounterRegistry::instance().set_enabled(true);
    const obs::prof::CounterAvailability& av =
        obs::prof::counter_availability();
    std::printf("counters: %s (%s)\n", obs::prof::counter_mode_name(av.mode),
                av.detail.c_str());
  }
  if (!profile_path.empty()) {
    std::string error;
    if (!obs::prof::CpuProfiler::instance().start(obs::prof::ProfilerOptions{},
                                                  &error)) {
      std::fprintf(stderr, "cannot start profiler: %s\n", error.c_str());
      return 1;
    }
  }
#endif

  const eval::RunScale scale = bench::bench_scale();
  const bool fast = std::getenv("M3DFL_FAST") != nullptr;
  const std::size_t num_logs = fast ? 8 : 24;
  const int repeat = fast ? 2 : 4;

  const eval::BenchmarkSpec spec = eval::tiny_spec();
  eval::TrainedFramework fw = eval::train_framework(
      eval::build_training_bundle(spec, false, scale), scale);
  const eval::Design& design = eval::cached_design(spec, eval::Config::kSyn2);

  eval::DatagenOptions dopts;
  dopts.num_samples = num_logs;
  dopts.seed = 2026;
  const eval::Dataset ds = eval::generate_dataset(design, dopts);

  // Calibrate the int8 twin on the benchmark's own logs so the serve and
  // inference-path sections below can exercise both modes; the report's
  // AUPRC delta contextualizes the speedup (fast is worthless if wrong).
  const eval::QuantReport quant_report = eval::quantize_framework(
      fw, eval::graphs_of(ds), eval::tier_labeled(ds), {});
  std::printf("quantized twin: %zu calibration graphs, AUPRC delta %+.4f, "
              "max |score delta| %.4f\n\n",
              quant_report.calib_graphs, quant_report.auprc_delta(),
              quant_report.max_abs_score_delta);

  // Sequential: one request at a time, the plain `m3dfl diagnose` path.
  Run seq;
  seq.name = "sequential";
  {
    M3DFL_OBS_COUNTERS(ctrs, "bench.sequential");
    const auto t0 = Clock::now();
    for (int r = 0; r < repeat; ++r) {
      for (const eval::Sample& s : ds.samples) {
        const auto t1 = Clock::now();
        const auto resp =
            serve::DiagnosisService::diagnose_direct(design, fw, s.log);
        seq.latencies.push_back(seconds_since(t1));
        seq.requests += resp.ok;
      }
    }
    seq.wall_seconds = seconds_since(t0);
  }

  // Served: all requests in flight at once through the concurrent service.
  Run served;
  served.name = serve_mode == eval::InferenceMode::kInt8
                    ? "served (4 threads, int8)"
                    : "served (4 threads)";
  std::string service_metrics_json;
  {
    serve::ModelRegistry registry;
    registry.publish("default", fw, "bench");
    serve::ServiceOptions opts;
    opts.num_threads = 4;
    opts.inference = serve_mode;
    serve::DiagnosisService service(registry, opts);
    service.register_design(design);

    // The served run's cycles burn on the executor workers, which the
    // "serve.process" CounterScope inside the service already attributes;
    // this scope only measures the submit/collect shell on the main thread.
    M3DFL_OBS_COUNTERS(ctrs, "bench.served");
    const auto t0 = Clock::now();
    std::vector<std::future<serve::DiagnosisResponse>> futures;
    futures.reserve(ds.samples.size() * static_cast<std::size_t>(repeat));
    for (int r = 0; r < repeat; ++r) {
      for (const eval::Sample& s : ds.samples) {
        futures.push_back(service.submit(design, s.log));
      }
    }
    for (auto& f : futures) {
      const serve::DiagnosisResponse resp = f.get();
      served.latencies.push_back(resp.seconds);
      served.requests += resp.ok;
    }
    served.wall_seconds = seconds_since(t0);

    const serve::MetricsSnapshot m = service.metrics().snapshot();
    std::printf("service: %llu requests, %llu rejected, cache hit rate "
                "%.1f%%\n\n",
                static_cast<unsigned long long>(m.requests),
                static_cast<unsigned long long>(m.rejected),
                m.cache_hit_rate * 100.0);
    service_metrics_json = service.metrics().to_json();
  }

  // Inference path in isolation: single-threaded model forwards (tier
  // probabilities) through the fp32 and int8 paths on the same sub-graphs.
  // This is the quantization acceptance measurement — diagnosis requests
  // amortize ATPG + back-trace over the forward, so the kernel win only
  // shows undiluted here. --inference-spec m3d100k runs it on the
  // paper-scale netlist's sub-graphs instead of tiny's.
  Run inf_fp32, inf_int8;
  inf_fp32.name = "inference_fp32";
  inf_int8.name = "inference_int8";
  {
    std::vector<const graphx::SubGraph*> subs;
    eval::Dataset inf_ds;
    if (inference_spec == "m3d100k") {
      const eval::Design& big =
          eval::cached_design(eval::m3d100k_spec(), eval::Config::kSyn2);
      eval::DatagenOptions iopts;
      iopts.num_samples = fast ? 2 : 4;
      iopts.seed = 2027;
      iopts.backend = sim::SimBackend::kBitParallel;
      inf_ds = eval::generate_dataset(big, iopts);
      subs = eval::graphs_of(inf_ds);
    } else {
      subs = eval::graphs_of(ds);
    }
    // Enough rounds that each measurement runs for tens of milliseconds
    // (fast) to ~half a second (full): per-forward cost is single-digit
    // microseconds, and a sub-millisecond measurement window would be
    // mostly scheduler noise. Latencies are sampled 1-in-16 so the clock
    // reads around each forward do not dilute the throughput itself.
    const int rounds = fast ? 2000 : 4000;
    std::size_t total_nodes = 0;
    for (const graphx::SubGraph* g : subs) total_nodes += g->num_nodes();
    std::printf("inference graphs: %zu from %s (mean %.1f nodes)\n",
                subs.size(), inference_spec.c_str(),
                subs.empty() ? 0.0
                             : static_cast<double>(total_nodes) /
                                   static_cast<double>(subs.size()));
    const auto& fp32_model = fw.tier.model();
    const auto& int8_model = fw.quant->tier;
    {
      M3DFL_OBS_COUNTERS(ctrs, "bench.inference_fp32");
      for (const graphx::SubGraph* g : subs) fp32_model.predict_probs(*g);
      const auto t0 = Clock::now();
      for (int r = 0; r < rounds; ++r) {
        for (const graphx::SubGraph* g : subs) {
          if (r % 16 == 0) {
            const auto t1 = Clock::now();
            const std::vector<float> p = fp32_model.predict_probs(*g);
            inf_fp32.latencies.push_back(seconds_since(t1));
            inf_fp32.requests += !p.empty();
          } else {
            inf_fp32.requests += !fp32_model.predict_probs(*g).empty();
          }
        }
      }
      inf_fp32.wall_seconds = seconds_since(t0);
    }
    {
      M3DFL_OBS_COUNTERS(ctrs, "bench.inference_int8");
      for (const graphx::SubGraph* g : subs) int8_model.predict_probs(*g);
      const auto t0 = Clock::now();
      for (int r = 0; r < rounds; ++r) {
        for (const graphx::SubGraph* g : subs) {
          if (r % 16 == 0) {
            const auto t1 = Clock::now();
            const std::vector<float> p = int8_model.predict_probs(*g);
            inf_int8.latencies.push_back(seconds_since(t1));
            inf_int8.requests += !p.empty();
          } else {
            inf_int8.requests += !int8_model.predict_probs(*g).empty();
          }
        }
      }
      inf_int8.wall_seconds = seconds_since(t0);
    }
  }

  TablePrinter t;
  t.set_header({"Mode", "Requests", "Wall (s)", "Req/s", "p50 (ms)",
                "p95 (ms)", "p99 (ms)"});
  add_run_row(t, seq);
  add_run_row(t, served);
  add_run_row(t, inf_fp32);
  add_run_row(t, inf_int8);
  t.print();
  std::printf("\nThroughput: served = %.2fx sequential\n",
              seq.rps() > 0.0 ? served.rps() / seq.rps() : 0.0);
  std::puts("(served per-request latency includes executor queueing)");
  std::printf("Inference (%s, single thread): int8 = %.2fx fp32\n",
              inference_spec.c_str(),
              inf_fp32.rps() > 0.0 ? inf_int8.rps() / inf_fp32.rps() : 0.0);

  obs::Tracer::instance().set_enabled(false);

  std::string seq_extra, served_extra, inf_fp32_extra, inf_int8_extra,
      hw_counters_json;
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\n      \"speedup_vs_fp32\": %.3f",
                  inf_fp32.rps() > 0.0 ? inf_int8.rps() / inf_fp32.rps()
                                       : 0.0);
    inf_int8_extra = buf;
  }
#if M3DFL_OBS_ENABLED
  if (!profile_path.empty()) {
    auto& prof = obs::prof::CpuProfiler::instance();
    prof.stop();
    std::ofstream folded(profile_path);
    prof.write_folded(folded);
    std::printf("\nwrote %s (%llu samples, %llu dropped)\n",
                profile_path.c_str(),
                static_cast<unsigned long long>(prof.samples()),
                static_cast<unsigned long long>(prof.dropped()));
  }
  if (want_counters) {
    seq_extra = hw_json_fields("bench.sequential");
    // The served run's work happens on the executor workers under the
    // service's own "serve.process" scope — that is the row's IPC.
    served_extra = hw_json_fields("serve.process");
    inf_fp32_extra = hw_json_fields("bench.inference_fp32");
    inf_int8_extra += hw_json_fields("bench.inference_int8");
    hw_counters_json = obs::prof::CounterRegistry::instance().to_json();
  }
#endif

  std::ofstream os("BENCH_serve_throughput.json");
  os << "{\n  \"context\": {\n"
     << "    \"executable\": \"bench_serve_throughput\",\n"
     << "    \"build\": " << obs::build_info_json() << ",\n"
     << "    \"num_logs\": " << num_logs << ",\n"
     << "    \"repeat\": " << repeat << ",\n"
     << "    \"inference_spec\": \"" << inference_spec << "\",\n"
     << "    \"quant_calib_graphs\": " << quant_report.calib_graphs << ",\n"
     << "    \"quant_auprc_delta\": " << quant_report.auprc_delta()
     << "\n  },\n"
     << "  \"benchmarks\": [\n";
  json_run(os, seq, seq_extra, false);
  json_run(os, served, served_extra, false);
  json_run(os, inf_fp32, inf_fp32_extra, false);
  json_run(os, inf_int8, inf_int8_extra, true);
  os << "  ],\n";
  // Additive when --counters is on: the committed baseline predates this
  // key, and bench_compare's additive-key rule keeps it non-gating.
  if (!hw_counters_json.empty()) {
    os << "  \"hw_counters\": " << hw_counters_json << ",\n";
  }
  os << "  \"service_metrics\": " << service_metrics_json << ",\n"
     << "  \"stage_metrics\": " << obs::MetricsRegistry::instance().to_json()
     << "\n}\n";
  std::puts("\nwrote BENCH_serve_throughput.json");
  return 0;
}
