// Serving stage: loads the onboarded framework file, sets the service up
// several times (setup_s is the median), then serves a fixed pool of Syn-2
// failure logs in two timed phases — an open loop of seeded Poisson
// arrivals (latency) and a backlog submitted in bursts (throughput), the
// two alternating in segments — and checks served responses against the
// sequential reference path.
#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "eval/framework_io.h"
#include "graphx/backtrace.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/prof/counters.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/service.h"
#include "sim/bitpar/dispatch.h"
#include "stages.h"

namespace e2e {

namespace m = m3dfl;
using m::serve::DiagnosisResponse;

namespace {

constexpr const char* kModelName = "default";
/// Seed of the logs each set-up uses to warm every worker context.
constexpr std::uint64_t kWarmSeed = 0x3a3a0001ull;
/// How long after its phase ends a request may still be pending before it
/// counts as failed.
constexpr double kPendingGraceSeconds = 60.0;

/// One set-up of the serving process: framework file -> registry, Syn-2
/// design, service with every worker context warm. Members are declared so
/// that the service goes first on destruction.
struct Setup {
  m::eval::TrainedFramework fw;
  std::unique_ptr<m::serve::ModelRegistry> registry;
  std::unique_ptr<m::eval::Design> design;
  std::unique_ptr<m::serve::DiagnosisService> service;
  double build_design_s = 0.0;
  double register_s = 0.0;
};

bool same_candidates(const std::vector<m::diag::Candidate>& a,
                     const std::vector<m::diag::Candidate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const m::diag::Candidate& x = a[i];
    const m::diag::Candidate& y = b[i];
    if (x.site != y.site || x.polarity != y.polarity || x.tier != y.tier ||
        x.is_miv != y.is_miv || x.score != y.score || x.matched != y.matched ||
        x.mispredicted != y.mispredicted || x.missed != y.missed) {
      return false;
    }
  }
  return true;
}

/// Served-vs-reference equality of everything a response reports except
/// its timings.
bool same_response(const DiagnosisResponse& a, const DiagnosisResponse& b) {
  const m::core::PolicyOutcome& x = a.outcome;
  const m::core::PolicyOutcome& y = b.outcome;
  return a.ok == b.ok &&
         same_candidates(a.atpg_report.candidates, b.atpg_report.candidates) &&
         same_candidates(x.report.candidates, y.report.candidates) &&
         same_candidates(x.backup, y.backup) && x.pruned == y.pruned &&
         x.high_confidence == y.high_confidence &&
         x.predicted_tier == y.predicted_tier && x.confidence == y.confidence &&
         x.predicted_mivs == y.predicted_mivs;
}

/// Starts a service on the set-up's design and registry, registers the
/// design, and warms every worker context: one request per worker,
/// submitted together, so every context exists before the first timed
/// request.
void start_service(const Workload& w, Setup& s, StageResult& res) {
  s.service.reset();
  m::serve::ServiceOptions so;
  so.num_threads = kComputeThreads;
  so.model_name = kModelName;
  so.inference = w.inference;
  s.service = std::make_unique<m::serve::DiagnosisService>(*s.registry, so);
  s.service->register_design(*s.design);
  const m::eval::Dataset warm =
      generate_logs(*s.design, kComputeThreads, kWarmSeed);
  std::vector<std::future<DiagnosisResponse>> futures;
  for (const m::eval::Sample& smp : warm.samples) {
    futures.push_back(s.service->submit(*s.design, smp.log));
  }
  std::uint64_t failed = 0;
  for (auto& f : futures) failed += f.get().ok ? 0 : 1;
  res.count("warmup", futures.size(), failed);
}

std::unique_ptr<Setup> set_up(const Workload& w, const StageOptions& opt,
                              StageResult& res) {
  auto s = std::make_unique<Setup>();
  std::string error;
  if (!m::eval::load_framework_file(s->fw, opt.framework_path, &error)) {
    res.mismatches.push_back("cannot load framework: " + error);
    return nullptr;
  }
  s->registry = std::make_unique<m::serve::ModelRegistry>();
  s->registry->publish(kModelName, s->fw, opt.framework_path);

  const Clock::time_point t_build = Clock::now();
  s->design = m::eval::build_design(w.spec, m::eval::Config::kSyn2);
  s->build_design_s = seconds_since(t_build);

  const Clock::time_point t_reg = Clock::now();
  start_service(w, *s, res);
  s->register_s = seconds_since(t_reg);
  return s;
}

/// Seeded request stream: which pool log each request carries.
std::vector<std::size_t> request_order(std::size_t first, std::size_t count,
                                       std::size_t hot_pool,
                                       std::mt19937_64& rng) {
  std::vector<std::size_t> out;
  if (hot_pool == 0) {
    out.resize(count);
    std::iota(out.begin(), out.end(), first);
    std::shuffle(out.begin(), out.end(), rng);
    return out;
  }
  // Shuffled passes over the hot pool: every log recurs once per pass.
  std::vector<std::size_t> pass(hot_pool);
  std::iota(pass.begin(), pass.end(), 0);
  while (out.size() < count) {
    std::shuffle(pass.begin(), pass.end(), rng);
    for (std::size_t i : pass) {
      if (out.size() == count) break;
      out.push_back(i);
    }
  }
  return out;
}

struct Inflight {
  std::size_t pool_idx = 0;
  double late_s = 0.0;  ///< Submit call minus due time.
  std::future<DiagnosisResponse> future;
};

/// Per-phase outcome of serving a stream of requests.
struct PhaseStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;  ///< Due time -> response ready.
  std::vector<double> queue_ms, service_ms, late_ms;
  double makespan_s = 0.0;  ///< Backlog only: summed over its bursts.

  void merge(const PhaseStats& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (auto [to, from] : {std::pair{&latency_ms, &o.latency_ms},
                            std::pair{&queue_ms, &o.queue_ms},
                            std::pair{&service_ms, &o.service_ms},
                            std::pair{&late_ms, &o.late_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    makespan_s += o.makespan_s;
  }
};

class Server {
 public:
  Server(Setup& s, const std::vector<PoolLog>& pool, StageResult& res)
      : s_(s), pool_(pool), res_(res), first_(pool.size()) {}

  /// Open loop over requests [begin, end): request i is submitted at
  /// due[i] - due[begin] seconds after the start.
  PhaseStats open_loop(const std::vector<std::size_t>& order,
                       const std::vector<double>& due, std::size_t begin,
                       std::size_t end) {
    PhaseStats st;
    std::deque<Inflight> inflight;
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = begin; i < end; ++i) {
      const Clock::time_point t_due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due[i] - due[begin]));
      std::this_thread::sleep_until(t_due);
      const Clock::time_point t_sub = Clock::now();
      Inflight f;
      f.pool_idx = order[i];
      f.late_s = std::chrono::duration<double>(t_sub - t_due).count();
      f.future = s_.service->submit(*s_.design, pool_[order[i]].log);
      inflight.push_back(std::move(f));
      while (!inflight.empty() &&
             inflight.front().future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        consume(inflight.front(), st);
        inflight.pop_front();
      }
    }
    collect(inflight, st);
    return st;
  }

  /// Backlog burst over requests [begin, end): all submitted at once;
  /// makespan until the last response is ready.
  PhaseStats backlog(const std::vector<std::size_t>& order, std::size_t begin,
                     std::size_t end) {
    PhaseStats st;
    std::deque<Inflight> inflight;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      Inflight f;
      f.pool_idx = order[i];
      f.future = s_.service->submit(*s_.design, pool_[order[i]].log);
      inflight.push_back(std::move(f));
    }
    collect(inflight, st);
    st.makespan_s = seconds_since(t0);
    return st;
  }

  /// First response served for each pool log (empty when never served).
  const std::vector<std::unique_ptr<DiagnosisResponse>>& first() const {
    return first_;
  }

 private:
  void collect(std::deque<Inflight>& inflight, PhaseStats& st) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kPendingGraceSeconds));
    for (Inflight& f : inflight) {
      if (f.future.wait_until(deadline) != std::future_status::ready) {
        ++st.attempted;
        ++st.failed;
        res_.mismatches.push_back("request still pending at the end");
        continue;
      }
      consume(f, st);
    }
    inflight.clear();
  }

  void consume(Inflight& f, PhaseStats& st) {
    DiagnosisResponse r = f.future.get();
    ++st.attempted;
    if (!r.ok) {
      ++st.failed;
      res_.mismatches.push_back("served request failed: " + r.error);
      return;
    }
    std::unique_ptr<DiagnosisResponse>& first = first_[f.pool_idx];
    if (!first) {
      first = std::make_unique<DiagnosisResponse>(r);
    } else if (!same_response(*first, r)) {
      ++st.failed;
      res_.mismatches.push_back("responses for one log differ");
      return;
    }
    st.latency_ms.push_back(1e3 * (f.late_s + r.seconds));
    st.queue_ms.push_back(1e3 * r.queue_seconds);
    st.service_ms.push_back(1e3 * r.service_seconds);
    st.late_ms.push_back(1e3 * f.late_s);
  }

  Setup& s_;
  const std::vector<PoolLog>& pool_;
  StageResult& res_;
  std::vector<std::unique_ptr<DiagnosisResponse>> first_;
};

/// Exponential inter-arrival gaps at `rate`, cumulated into due times.
std::vector<double> poisson_due(std::size_t n, double rate,
                                std::mt19937_64& rng) {
  std::vector<double> due(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate;
    due[i] = t;
  }
  return due;
}

/// latency_tail_ms: the kTailPercentile of each consecutive window of
/// kTailWindow requests (in arrival order; the whole phase when it is
/// shorter), median over the windows. A host stall that spans a minority of
/// the windows does not move it; a slower service moves every window.
double windowed_tail(const std::vector<double>& latency_ms) {
  const std::size_t windows =
      std::max<std::size_t>(1, latency_ms.size() / kTailWindow);
  const auto len = static_cast<std::ptrdiff_t>(latency_ms.size() / windows);
  std::vector<double> tails;
  for (std::size_t k = 0; k < windows; ++k) {
    const auto first =
        latency_ms.begin() + static_cast<std::ptrdiff_t>(k) * len;
    tails.push_back(percentile({first, first + len}, kTailPercentile));
  }
  return median(tails);
}

/// Timings of the sequential reference path for one log, layer by layer.
struct Replay {
  DiagnosisResponse ref;
  double diagnose_ms = 0.0, backtrace_ms = 0.0, policy_ms = 0.0;
  std::size_t subgraph_nodes = 0;
};

Replay replay(m::diag::Diagnoser& diagnoser, const Setup& s,
              const m::sim::FailureLog& log, m::eval::InferenceMode mode) {
  Replay out;
  Clock::time_point t0 = Clock::now();
  {
    M3DFL_OBS_SPAN(span, "e2e.replay.diagnose");
    out.ref.atpg_report = diagnoser.diagnose(log);
  }
  out.diagnose_ms = 1e3 * seconds_since(t0);
  t0 = Clock::now();
  m::graphx::SubGraph sub;
  {
    M3DFL_OBS_SPAN(span, "e2e.replay.backtrace_subgraph");
    sub = m::graphx::backtrace_subgraph(*s.design->graph, log, s.design->scan);
  }
  out.backtrace_ms = 1e3 * seconds_since(t0);
  out.subgraph_nodes = sub.num_nodes();
  // int8 without a quantized twin runs fp32, as the service does.
  if (mode == m::eval::InferenceMode::kInt8 && !s.fw.quant) {
    mode = m::eval::InferenceMode::kFp32;
  }
  t0 = Clock::now();
  {
    M3DFL_OBS_SPAN(span, "e2e.replay.apply_policy");
    out.ref.outcome = m::core::apply_policy(out.ref.atpg_report, sub,
                                            s.fw.models(mode),
                                            s.fw.policy_for(mode));
  }
  out.policy_ms = 1e3 * seconds_since(t0);
  out.ref.ok = true;
  return out;
}

double histogram_mean_ms(const char* name) {
  return 1e3 *
         m::obs::MetricsRegistry::instance().histogram(name).mean_seconds();
}

std::uint64_t counter(const char* name) {
  return m::obs::MetricsRegistry::instance().counter(name).value();
}

/// Hands the memory the earlier set-ups freed back to the OS and restarts
/// the process's peak-RSS mark (Linux clear_refs), so peak_rss_mb covers
/// the timed phases, not the allocator's luck across the benchmark's
/// repeated set-ups. False when the mark cannot be restarted.
bool restart_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream os("/proc/self/clear_refs");
  os << "5" << std::flush;
  return static_cast<bool>(os);
}

void environment_notes(StageResult& res) {
  res.notes["simd_tier"] =
      m::sim::bitpar::tier_name(m::sim::bitpar::resolve_tier());
  res.notes["perf_counters"] = m::obs::prof::counter_mode_name(
      m::obs::prof::counter_availability().mode);
  res.notes["build_type"] = m::obs::build_info().build_type;
  res.notes["git_hash"] = m::obs::build_info().git_hash;
  res.notes["compiler"] = m::obs::build_info().compiler;
}

}  // namespace

int run_serve(const Workload& w, const StageOptions& opt) {
  StageResult res;
  environment_notes(res);
  auto& reg = m::obs::MetricsRegistry::instance();
  set_tracing(false);

  // -- Set-up, repeated; the last one serves. -------------------------------
  std::unique_ptr<Setup> s;
  std::vector<double> setup_s, build_s, register_s;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = set_up(w, opt, res);
    if (!s) return finish_stage(res, opt);
    setup_s.push_back(seconds_since(t0));
    build_s.push_back(s->build_design_s);
    register_s.push_back(s->register_s);
  }
  res.set("setup_s", median(setup_s), "s");
  res.set("eval.build_design_s", median(build_s), "s");
  res.set("serve.register_s", median(register_s), "s");

  // -- The log pool, read from the pool stage's file (outside every timed
  //    window). --------------------------------------------------------------
  const std::size_t n_open = w.open_requests(opt.seconds);
  const std::size_t n_back = w.backlog_requests(opt.seconds);
  std::vector<PoolLog> pool;
  {
    std::string error;
    if (!read_pool(opt.pool_path, pool, error) ||
        pool.size() != w.pool_logs(opt.seconds)) {
      res.mismatches.push_back("cannot use the log pool: " + error);
      res.count("pool", 1, 1);
      return finish_stage(res, opt);
    }
  }

  std::mt19937_64 arrivals(m::derive_seed(kPoolSeed, 0xa771));
  const std::vector<std::size_t> open_order =
      request_order(0, n_open, w.hot_pool, arrivals);
  const std::vector<double> due = poisson_due(n_open, w.rate_rps, arrivals);
  std::mt19937_64 rng(m::derive_seed(opt.seed, 0xa771));
  const std::vector<std::size_t> back_order =
      request_order(n_open, n_back, w.hot_pool, rng);
  res.notes["latency_tail_percentile"] = std::to_string(kTailPercentile);
  res.notes["latency_tail_window"] = std::to_string(kTailWindow);
  res.notes["open_loop_requests"] = std::to_string(n_open);
  res.notes["backlog_requests"] = std::to_string(n_back);

  Server server(*s, pool, res);
  // The tracing overhead compares the first half of the open loop (its
  // first two segments), untraced and traced.
  const std::size_t n_ref = kBacklogBursts / 2 * n_open / kBacklogBursts;
  double untraced_p50 = 0.0;
  if (opt.trace) {
    // Untraced reference for the tracing overhead, then a fresh service
    // (empty sub-graph cache) for the traced phases.
    const PhaseStats base = server.open_loop(open_order, due, 0, n_ref);
    res.count("open_loop_untraced", base.attempted, base.failed);
    untraced_p50 = median(base.latency_ms);
    start_service(w, *s, res);
    reg.reset();
    set_tracing(true);
  }
  res.notes["peak_rss_scope"] =
      restart_peak_rss() ? "timed phases" : "whole process";
  const m::serve::MetricsSnapshot snap0 = s->service->metrics().snapshot();

  // -- Timed phases: open-loop segments alternating with backlog bursts, so
  //    each phase samples the whole serving window (the host's speed drifts
  //    by 10% and more within seconds on a shared machine). ----------------
  PhaseStats open, back;
  std::size_t ref_latencies = 0;  // Of the first n_ref requests.
  for (std::size_t k = 0; k < kBacklogBursts; ++k) {
    open.merge(server.open_loop(open_order, due, k * n_open / kBacklogBursts,
                                (k + 1) * n_open / kBacklogBursts));
    if (k + 1 == kBacklogBursts / 2) ref_latencies = open.latency_ms.size();
    back.merge(server.backlog(back_order, k * n_back / kBacklogBursts,
                              (k + 1) * n_back / kBacklogBursts));
  }
  const double peak_rss_mb =
      static_cast<double>(m::obs::peak_rss_bytes()) / 1048576.0;
  const m::serve::MetricsSnapshot snap1 = s->service->metrics().snapshot();
  res.count("open_loop", open.attempted, open.failed);
  res.count("backlog", back.attempted, back.failed);

  const double p50 = median(open.latency_ms);
  res.set("latency_p50_ms", p50, "ms");
  res.set("latency_tail_ms", windowed_tail(open.latency_ms), "ms");
  res.set("throughput_rps", static_cast<double>(n_back) / back.makespan_s,
          "1/s");
  res.set("peak_rss_mb", peak_rss_mb, "MB");
  res.set("serve.backlog_service_ms_mean", mean(back.service_ms), "ms");

  // Paper metrics over the policy-updated reports of every served log.
  m::core::QualityAccumulator quality;
  std::size_t served_logs = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (!server.first()[i]) continue;
    quality.add(server.first()[i]->outcome.report, pool[i].truth);
    ++served_logs;
  }
  const m::core::QualityStats q = quality.stats();
  res.set("diag_accuracy", q.accuracy, "ratio");
  res.set("diag_resolution", q.mean_resolution, "count");
  res.set("diag_fhi", q.mean_fhi, "rank");
  res.notes["served_logs"] = std::to_string(served_logs);

  // -- Serve-layer split (the traced run reports these). --------------------
  res.set("serve.queue_wait_ms_p50", median(open.queue_ms), "ms");
  res.set("serve.queue_wait_ms_mean", mean(open.queue_ms), "ms");
  res.set("serve.service_ms_p50", median(open.service_ms), "ms");
  res.set("serve.service_ms_mean", mean(open.service_ms), "ms");
  res.set("serve.generator_late_ms", mean(open.late_ms), "ms");
  const double batches = static_cast<double>(snap1.batches - snap0.batches);
  const double hits = static_cast<double>(snap1.cache_hits - snap0.cache_hits);
  const double misses =
      static_cast<double>(snap1.cache_misses - snap0.cache_misses);
  if (batches > 0) {
    res.set("serve.batch_size_mean",
            static_cast<double>(snap1.batch_items - snap0.batch_items) /
                batches,
            "count");
    res.set("serve.flush_deadline_ratio",
            static_cast<double>(snap1.flush_deadline - snap0.flush_deadline) /
                batches,
            "ratio");
  }
  res.set("serve.cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  if (opt.trace) {
    const double requests =
        static_cast<double>(open.attempted + back.attempted);
    res.set("diagnosis.score_ms", histogram_mean_ms("diag.score"), "ms");
    res.set("diagnosis.backtrace_ms", histogram_mean_ms("diag.backtrace"),
            "ms");
    res.set("diagnosis.rank_ms", histogram_mean_ms("diag.rank"), "ms");
    res.set("gnn.forwards_per_request",
            static_cast<double>(counter("gnn.inference.fp32_forwards") +
                                counter("gnn.inference.int8_forwards")) /
                requests,
            "count");
    const std::vector<double> traced_ref(
        open.latency_ms.begin(),
        open.latency_ms.begin() +
            static_cast<std::ptrdiff_t>(ref_latencies));
    res.set("obs.tracing_overhead_ratio",
            median(traced_ref) / untraced_p50 - 1.0, "ratio");
  }

  // -- Output check: the sequential reference path (make_diagnoser ->
  //    diagnose -> backtrace_subgraph -> apply_policy) on a seeded subset
  //    of the served logs, or on every served log in a traced run. ----------
  std::vector<std::size_t> checked;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (server.first()[i]) checked.push_back(i);
  }
  if (!opt.trace) {
    std::shuffle(checked.begin(), checked.end(), rng);
    checked.resize(std::min(checked.size(), w.checked_logs));
  }
  const Clock::time_point t_diag = Clock::now();
  m::diag::Diagnoser diagnoser = [&] {
    M3DFL_OBS_SPAN(span, "e2e.replay.make_diagnoser");
    return s->design->make_diagnoser();
  }();
  res.set("diagnosis.diagnoser_build_s", seconds_since(t_diag), "s");
  std::vector<double> diag_ms, bt_ms, pol_ms, nodes, cands;
  std::uint64_t check_failed = 0;
  for (std::size_t i : checked) {
    const Replay r = replay(diagnoser, *s, pool[i].log, w.inference);
    diag_ms.push_back(r.diagnose_ms);
    bt_ms.push_back(r.backtrace_ms);
    pol_ms.push_back(r.policy_ms);
    nodes.push_back(static_cast<double>(r.subgraph_nodes));
    cands.push_back(static_cast<double>(r.ref.atpg_report.resolution()));
    if (!same_response(r.ref, *server.first()[i])) {
      ++check_failed;
      res.mismatches.push_back("served response for pool log " +
                               std::to_string(i) +
                               " differs from the sequential reference");
    }
  }
  res.count("output_check", checked.size(), check_failed);
  set_tracing(false);

  res.set("diagnosis.diagnose_ms_mean", mean(diag_ms), "ms");
  res.set("diagnosis.diagnose_ms_p95", percentile(diag_ms, 95), "ms");
  res.set("diagnosis.report_candidates", mean(cands), "count");
  res.set("graphx.backtrace_ms", mean(bt_ms), "ms");
  res.set("graphx.subgraph_nodes", mean(nodes), "count");
  res.set("core.policy_ms", mean(pol_ms), "ms");
  {
    // Self-time accounting: how much of the served service time the
    // sequentially replayed layers explain. The back-trace runs only on a
    // sub-graph cache miss.
    const double miss_ratio = hits + misses > 0 ? misses / (hits + misses) : 1;
    const double explained =
        mean(diag_ms) + miss_ratio * mean(bt_ms) + mean(pol_ms);
    const double service = mean(open.service_ms);
    res.set("serve.explained_ratio", service > 0 ? explained / service : 0.0,
            "ratio");
  }

  if (opt.trace && !opt.trace_path.empty() && !write_trace(opt.trace_path)) {
    res.mismatches.push_back("cannot write " + opt.trace_path);
  }
  res.notes["trace_spans_dropped"] =
      std::to_string(m::obs::Tracer::instance().dropped());
  return finish_stage(res, opt);
}

}  // namespace e2e
