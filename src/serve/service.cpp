#include "serve/service.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "diagnosis/diagnoser.h"
#include "graphx/backtrace.h"
#include "obs/exemplar.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/prof/counters.h"
#include "obs/trace.h"

namespace m3dfl::serve {

namespace {

/// Resolves the mode a request actually runs under: int8 degrades to fp32
/// when the published framework has no quantized twin. `count` switches the
/// per-path counters on (the served path counts; status probes don't).
eval::InferenceMode resolve_inference_mode(eval::InferenceMode requested,
                                           const eval::TrainedFramework& fw,
                                           bool count) {
  static obs::Counter& int8_requests = obs::MetricsRegistry::instance()
      .counter("serve.inference.int8_requests");
  static obs::Counter& fp32_requests = obs::MetricsRegistry::instance()
      .counter("serve.inference.fp32_requests");
  static obs::Counter& int8_fallbacks = obs::MetricsRegistry::instance()
      .counter("serve.inference.int8_fallbacks");
  eval::InferenceMode mode = requested;
  if (mode == eval::InferenceMode::kInt8 && !fw.quant) {
    if (count) int8_fallbacks.add();
    mode = eval::InferenceMode::kFp32;
  }
  if (count) {
    (mode == eval::InferenceMode::kInt8 ? int8_requests : fp32_requests).add();
  }
  return mode;
}

}  // namespace

std::uint64_t failure_log_fingerprint(const sim::FailureLog& log) {
  static_assert(
      std::has_unique_object_representations_v<sim::FailureLog::Obs> &&
          std::has_unique_object_representations_v<sim::FailureLog::CObs>,
      "failure-log entries must be padding-free to hash raw bytes");
  std::uint64_t h = fnv1a64(&log.compacted, sizeof(log.compacted));
  const std::uint64_t counts[2] = {log.fails.size(), log.cfails.size()};
  h = fnv1a64(counts, sizeof(counts), h);
  if (!log.fails.empty()) {
    h = fnv1a64(log.fails.data(),
                log.fails.size() * sizeof(sim::FailureLog::Obs), h);
  }
  if (!log.cfails.empty()) {
    h = fnv1a64(log.cfails.data(),
                log.cfails.size() * sizeof(sim::FailureLog::CObs), h);
  }
  return h;
}

/// Stateful per-task diagnosis machinery: a simulator workspace over the
/// design's shared SimCore plus the Diagnoser's O(gates) scratch (it keeps
/// no per-design index; the back-trace walks the shared netlist). The
/// Diagnoser mutates that scratch and its FaultSimulator's faulty-machine
/// workspace during diagnose(), so contexts are never shared between
/// concurrent tasks; the design's own simulator (design.fsim) is left
/// untouched by the service.
struct DiagnosisService::WorkerContext {
  std::unique_ptr<sim::FaultSimulator> fsim;
  std::unique_ptr<diag::Diagnoser> diagnoser;

  explicit WorkerContext(const eval::Design& d) {
    // A fresh workspace over the design's core: registration and pool
    // growth copy no good-machine row and re-run no simulation.
    fsim = d.fsim->clone();
    // Mirrors Design::make_diagnoser(false) but binds a private simulator,
    // which is what makes concurrent diagnosis of one design legal.
    diag::DiagnoserOptions opts = d.spec.diag;
    opts.multifault = false;
    diagnoser = std::make_unique<diag::Diagnoser>(d.nl, d.sites, d.scan, opts);
    diagnoser->bind(*fsim);
  }
};

struct DiagnosisService::DesignState {
  const eval::Design* design = nullptr;
  std::mutex mu;
  std::vector<std::unique_ptr<WorkerContext>> idle;
};

DiagnosisService::DiagnosisService(ModelRegistry& registry,
                                   ServiceOptions opts)
    : opts_(opts),
      model_(registry.handle(opts.model_name)),
      // Resolved here so /metrics shows the counter at 0 before any burst.
      rejected_(obs::MetricsRegistry::instance().counter("serve.rejected")),
      subgraph_cache_(opts.cache_capacity),
      executor_(opts.num_threads, "serve") {
  // 0 = fp32, 1 = int8: the configured mode as a scrapable gauge (the
  // effective per-request mode can differ on fallback — see the counters).
  obs::MetricsRegistry::instance()
      .gauge("gnn.inference.mode")
      .set(opts_.inference == eval::InferenceMode::kInt8 ? 1.0 : 0.0);
}

DiagnosisService::~DiagnosisService() = default;

void DiagnosisService::register_design(const eval::Design& design) {
  // Touch the netlist's lazily built mutable caches while single-threaded;
  // afterwards workers only ever read them.
  design.nl.topo_order();
  design.nl.levels();
  design.nl.depth();

  // The design's shared read-only structures, one copy however many
  // workers serve it (the last registered design's figures).
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.gauge("mem.graph_bytes").set(static_cast<double>(design.graph->bytes()));
  reg.gauge("mem.sim_arena_bytes")
      .set(static_cast<double>(design.core->arena().bytes()));
  reg.gauge("mem.sim_core_bytes")
      .set(static_cast<double>(design.core->bytes()));

  auto state = std::make_unique<DesignState>();
  state->design = &design;
  // First context built eagerly (a clone of the design's bound simulator),
  // so the first request pays only diagnosis.
  state->idle.push_back(std::make_unique<WorkerContext>(design));
  std::lock_guard<std::mutex> lock(designs_mu_);
  designs_.emplace(&design, std::move(state));
}

std::future<DiagnosisResponse> DiagnosisService::submit(
    const eval::Design& design, sim::FailureLog log) {
  Pending p;
  p.log = std::move(log);
  p.promise = std::make_shared<std::promise<DiagnosisResponse>>();
  p.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  p.t_submit = std::chrono::steady_clock::now();
  std::future<DiagnosisResponse> future = p.promise->get_future();
  {
    std::lock_guard<std::mutex> lock(designs_mu_);
    const auto it = designs_.find(&design);
    p.state = it == designs_.end() ? nullptr : it->second.get();
  }
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (accepted_ - finished_ < opts_.max_pending) {
      admitted = true;
      ++accepted_;
      pending_high_water_ =
          std::max(pending_high_water_, accepted_ - finished_);
    }
  }
  if (!admitted) {
    // Counted, not logged: an overloaded service should not also flood its
    // log. The request never reaches the executor.
    metrics_.on_reject();
    rejected_.add();
    DiagnosisResponse r;
    r.request_id = p.request_id;
    r.error = "overloaded: " + std::to_string(opts_.max_pending) +
              " requests already pending";
    p.promise->set_value(std::move(r));
    return future;
  }
  metrics_.on_request();
  // Each accepted request is one executor task; the executor's FIFO keeps
  // submission order.
  executor_.post([this, p = std::move(p)]() mutable { process(p); });
  return future;
}

std::unique_ptr<DiagnosisService::WorkerContext>
DiagnosisService::acquire_context(DesignState& state) {
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.idle.empty()) {
      auto ctx = std::move(state.idle.back());
      state.idle.pop_back();
      return ctx;
    }
  }
  // Pool empty: build a fresh context outside the lock. At most
  // num_threads tasks run at once, so at most num_threads contexts are
  // ever created per design.
  return std::make_unique<WorkerContext>(*state.design);
}

void DiagnosisService::release_context(DesignState& state,
                                       std::unique_ptr<WorkerContext> c) {
  std::lock_guard<std::mutex> lock(state.mu);
  state.idle.push_back(std::move(c));
}

void DiagnosisService::process(Pending& p) {
  M3DFL_OBS_SPAN(span, "serve.process");
  M3DFL_OBS_COUNTERS(ctrs, "serve.process");
  using clock = std::chrono::steady_clock;
  // Worker pickup: the boundary between queue wait and service time. Queue
  // wait = executor queue; service = everything below.
  const clock::time_point t_start = clock::now();
  const bool want_exemplar = obs::ExemplarStore::instance().enabled();
  auto rel_ms = [&p](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  std::vector<obs::ExemplarStage> stages;
  if (want_exemplar) {
    stages.push_back({"serve.queue_wait", 0.0, rel_ms(p.t_submit, t_start)});
  }
  DiagnosisResponse r;
  r.request_id = p.request_id;
  try {
    const ModelRegistry::Published* published = model_.current();
    if (p.state == nullptr) {
      r.error = "design not registered with the service";
    } else if (!published) {
      r.error = "no framework published under '" + opts_.model_name + "'";
    } else {
      const eval::Design& d = *p.state->design;
      const clock::time_point t_diag0 = clock::now();
      std::unique_ptr<WorkerContext> ctx = acquire_context(*p.state);
      try {
        r.atpg_report = ctx->diagnoser->diagnose(p.log);
      } catch (const std::invalid_argument&) {
        // A malformed log is rejected before the Diagnoser touches any
        // state, so the context stays reusable.
        release_context(*p.state, std::move(ctx));
        throw;
      }
      release_context(*p.state, std::move(ctx));
      const clock::time_point t_diag1 = clock::now();
      if (want_exemplar) {
        stages.push_back({"serve.diagnose", rel_ms(p.t_submit, t_diag0),
                          rel_ms(t_diag0, t_diag1)});
      }

      const CacheKey key{&d, failure_log_fingerprint(p.log)};
      std::shared_ptr<const graphx::SubGraph> sub = subgraph_cache_.get(key);
      r.cache_hit = sub != nullptr;
      metrics_.on_cache(r.cache_hit);
      if (!sub) {
        M3DFL_OBS_SPAN(bt_span, "serve.backtrace");
        const clock::time_point t_bt0 = clock::now();
        sub = std::make_shared<const graphx::SubGraph>(
            graphx::backtrace_subgraph(*d.graph, p.log, d.scan));
        subgraph_cache_.put(key, sub);
        if (want_exemplar) {
          stages.push_back({"serve.backtrace", rel_ms(p.t_submit, t_bt0),
                            rel_ms(t_bt0, clock::now())});
        }
      }

      const clock::time_point t_pol0 = clock::now();
      const eval::InferenceMode mode = resolve_inference_mode(
          opts_.inference, published->framework, /*count=*/true);
      r.outcome =
          core::apply_policy(r.atpg_report, *sub,
                             published->framework.models(mode),
                             published->framework.policy_for(mode));
      if (want_exemplar) {
        stages.push_back({"serve.policy", rel_ms(p.t_submit, t_pol0),
                          rel_ms(t_pol0, clock::now())});
      }
      r.model_version = published->version;
      metrics_.on_model_version(published->version);
      r.ok = true;
    }
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.queue_seconds =
      std::chrono::duration<double>(t_start - p.t_submit).count();
  r.service_seconds =
      std::chrono::duration<double>(clock::now() - t_start).count();
  r.seconds = r.queue_seconds + r.service_seconds;
  metrics_.on_complete_split(r.queue_seconds, r.service_seconds, r.ok);
  if (!r.ok) {
    M3DFL_LOG_WARN("serve", "rid=%llu failed after %.1f ms: %s",
                   static_cast<unsigned long long>(p.request_id),
                   1e3 * r.seconds, r.error.c_str());
  }
  {
    // Resolved once; record() is wait-free, so the global registry adds no
    // lock to the completion path.
    static obs::LatencyHistogram& queue_hist =
        obs::MetricsRegistry::instance().histogram("serve.queue_wait_seconds");
    static obs::LatencyHistogram& service_hist =
        obs::MetricsRegistry::instance().histogram("serve.service_seconds");
    queue_hist.record(r.queue_seconds);
    service_hist.record(r.service_seconds);
  }
  if (want_exemplar) {
    obs::RequestExemplar ex;
    ex.request_id = r.request_id;
    ex.total_ms = 1e3 * r.seconds;
    ex.queue_ms = 1e3 * r.queue_seconds;
    ex.service_ms = 1e3 * r.service_seconds;
    ex.ok = r.ok;
    ex.cache_hit = r.cache_hit;
    ex.model_version = r.model_version;
    ex.stages = std::move(stages);
    obs::ExemplarStore::instance().offer(std::move(ex));
  }
  p.promise->set_value(std::move(r));
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++finished_;
  }
  drain_cv_.notify_all();
}

DiagnosisResponse DiagnosisService::diagnose_direct(
    const eval::Design& design, const eval::TrainedFramework& fw,
    const sim::FailureLog& log, eval::InferenceMode mode) {
  DiagnosisResponse r;
  diag::Diagnoser diagnoser = design.make_diagnoser();
  r.atpg_report = diagnoser.diagnose(log);
  const graphx::SubGraph sub =
      graphx::backtrace_subgraph(*design.graph, log, design.scan);
  mode = resolve_inference_mode(mode, fw, /*count=*/false);
  r.outcome = core::apply_policy(r.atpg_report, sub, fw.models(mode),
                                 fw.policy_for(mode));
  r.ok = true;
  return r;
}

bool DiagnosisService::ready() const {
  const ModelRegistry::Published* published = model_.current();
  return published != nullptr && executor_.num_threads() > 0;
}

std::uint64_t DiagnosisService::live_model_version() const {
  const ModelRegistry::Published* published = model_.current();
  return published ? published->version : 0;
}

DiagnosisService::QuantStatus DiagnosisService::live_quant_status() const {
  QuantStatus s;
  s.configured = opts_.inference;
  const ModelRegistry::Published* published = model_.current();
  if (published && published->framework.quant) {
    const eval::QuantizedFramework& q = *published->framework.quant;
    s.quantized_available = true;
    s.calib_graphs = q.calib_graphs();
    s.fingerprint = q.fingerprint();
  }
  s.effective = s.configured == eval::InferenceMode::kInt8 &&
                        s.quantized_available
                    ? eval::InferenceMode::kInt8
                    : eval::InferenceMode::kFp32;
  return s;
}

std::size_t DiagnosisService::pending_high_water() const {
  std::lock_guard<std::mutex> lock(drain_mu_);
  return static_cast<std::size_t>(pending_high_water_);
}

void DiagnosisService::drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return finished_ == accepted_; });
}

}  // namespace m3dfl::serve
