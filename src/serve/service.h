#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/executor.h"
#include "core/policy.h"
#include "eval/benchmarks.h"
#include "eval/experiments.h"
#include "graphx/subgraph.h"
#include "serve/batcher.h"
#include "serve/cache.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "sim/failure_log.h"

namespace m3dfl::serve {

struct ServiceOptions {
  std::size_t num_threads = 4;          ///< Executor workers.
  std::size_t max_batch = 8;            ///< Micro-batch size cap.
  std::chrono::microseconds max_wait{2000};  ///< Micro-batch deadline.
  std::size_t cache_capacity = 256;     ///< Sub-graph LRU entries (0 = off).
  std::string model_name = "default";   ///< Registry name served.
  /// Which forward pass the policy models run. kInt8 requires the
  /// published framework to carry a quantized twin; requests against a
  /// framework without one fall back to fp32 (counted as
  /// serve.inference.int8_fallbacks) rather than fail.
  eval::InferenceMode inference = eval::InferenceMode::kFp32;
};

/// What the service returns for one failure log: the raw ATPG report plus
/// the GNN policy outcome (tier call, MIV ranking, pruned/reordered
/// candidate list, backup dictionary) — the same payload the sequential
/// `m3dfl diagnose` path prints.
struct DiagnosisResponse {
  bool ok = false;
  std::string error;                 ///< Filled when !ok.
  diag::DiagnosisReport atpg_report; ///< Effect-cause diagnosis output.
  core::PolicyOutcome outcome;       ///< Policy-updated report + tier/MIVs.
  std::uint64_t model_version = 0;   ///< Registry version that served this.
  bool cache_hit = false;            ///< Sub-graph came from the LRU cache.
  std::uint64_t request_id = 0;      ///< Service-assigned (1-based) trace id.
  double seconds = 0.0;              ///< End-to-end latency (submit→ready).
  double queue_seconds = 0.0;    ///< submit → worker pickup (batcher+queue).
  double service_seconds = 0.0;  ///< worker pickup → response ready.
};

/// Long-lived, concurrent diagnosis-inference service:
///
///   submit(design, log) → micro-batcher → executor fan-out →
///     per-worker ATPG diagnosis → (cached) back-trace sub-graph →
///     GNN policy with the registry's live framework → future<Response>
///
/// Threading model:
///  * designs are immutable after register_design(); workers share them
///    read-only (register_design warms the netlist's lazy topo caches while
///    still single-threaded);
///  * the effect-cause Diagnoser and its FaultSimulator are stateful, so
///    each concurrent task checks a private (diagnoser, simulator) context
///    out of a per-design pool — at most num_threads contexts ever exist;
///  * frameworks come from the ModelRegistry via one atomic load per
///    request, so publish() hot-swaps models mid-stream without quiescing;
///  * results are bit-identical to the sequential path (diagnose_direct),
///    which tests/serve_test.cpp asserts under concurrent load.
class DiagnosisService {
 public:
  DiagnosisService(ModelRegistry& registry, ServiceOptions opts = {});
  ~DiagnosisService();

  DiagnosisService(const DiagnosisService&) = delete;
  DiagnosisService& operator=(const DiagnosisService&) = delete;

  /// Makes a design servable. Must be called before submit() for that
  /// design, and while no requests are in flight (typically at startup).
  /// Builds the first worker context eagerly so the first request does not
  /// pay the good-machine simulation, and warms shared lazy caches.
  void register_design(const eval::Design& design);

  /// Enqueues one failure log for diagnosis. Never blocks on inference;
  /// the future becomes ready when the response (ok or error) is computed.
  std::future<DiagnosisResponse> submit(const eval::Design& design,
                                        sim::FailureLog log);

  /// The sequential reference path (exactly what `m3dfl diagnose` runs):
  /// shared-simulator Diagnoser, fresh back-trace, policy. The served path
  /// must produce bit-identical reports to this (per inference mode).
  static DiagnosisResponse diagnose_direct(
      const eval::Design& design, const eval::TrainedFramework& fw,
      const sim::FailureLog& log,
      eval::InferenceMode mode = eval::InferenceMode::kFp32);

  /// Blocks until every accepted request has completed.
  void drain();

  const ServiceMetrics& metrics() const { return metrics_; }
  const ServiceOptions& options() const { return opts_; }

  /// Admin-plane readiness: a framework is published under the served
  /// model name and the executor pool is up.
  bool ready() const;

  /// Registry version currently being served (0 before the first publish).
  std::uint64_t live_model_version() const;

  /// Inference-mode status of the live framework (for /statusz): the
  /// configured mode, whether the published framework carries a quantized
  /// twin, and that twin's calibration provenance.
  struct QuantStatus {
    eval::InferenceMode configured = eval::InferenceMode::kFp32;
    eval::InferenceMode effective = eval::InferenceMode::kFp32;
    bool quantized_available = false;
    std::size_t calib_graphs = 0;
    std::uint64_t fingerprint = 0;
  };
  QuantStatus live_quant_status() const;

  /// Batcher queue-depth high-water mark (see Batcher::pending_high_water).
  std::size_t batcher_high_water() const {
    return batcher_.pending_high_water();
  }

 private:
  /// Private stateful diagnosis context (one per concurrently running
  /// task; pooled per design).
  struct WorkerContext;
  struct DesignState;

  struct Pending {
    DesignState* state = nullptr;
    sim::FailureLog log;
    std::shared_ptr<std::promise<DiagnosisResponse>> promise;
    std::uint64_t request_id = 0;  ///< Assigned by submit(), rides the
                                   ///< batcher into the worker span.
    std::chrono::steady_clock::time_point t_submit;
    std::chrono::steady_clock::time_point t_flush;  ///< Batcher hand-off.
  };

  struct CacheKey {
    const eval::Design* design = nullptr;
    std::uint64_t fingerprint = 0;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const {
      return static_cast<std::size_t>(
          fnv1a64(&k.fingerprint, sizeof(k.fingerprint),
                  reinterpret_cast<std::uintptr_t>(k.design) |
                      0xcbf29ce484222325ull));
    }
  };

  void flush_batch(std::vector<Pending>&& batch, FlushReason reason);
  void process(Pending& p);
  std::unique_ptr<WorkerContext> acquire_context(DesignState& state);
  void release_context(DesignState& state, std::unique_ptr<WorkerContext> c);

  ServiceOptions opts_;
  ModelRegistry::Handle model_;
  ServiceMetrics metrics_;
  LruCache<CacheKey, graphx::SubGraph, CacheKeyHash> subgraph_cache_;

  std::mutex designs_mu_;
  std::map<const eval::Design*, std::unique_ptr<DesignState>> designs_;

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::uint64_t accepted_ = 0;
  std::uint64_t finished_ = 0;
  std::atomic<std::uint64_t> next_request_id_{1};

  // Destruction order matters: ~batcher_ flushes pending items into
  // executor_, ~executor_ runs every queued task to completion, and both
  // still reference the members above — so these two stay last.
  Executor executor_;
  Batcher<Pending> batcher_;
};

/// Order- and content-sensitive fingerprint of a failure log (cache key).
std::uint64_t failure_log_fingerprint(const sim::FailureLog& log);

}  // namespace m3dfl::serve
