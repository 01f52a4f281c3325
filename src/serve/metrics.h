#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace m3dfl::serve {

/// The latency histogram now lives in the observability layer
/// (obs::LatencyHistogram) so offline stages share it; this alias keeps the
/// serve API and existing call sites intact.
using LatencyHistogram = obs::LatencyHistogram;

/// One coherent reading of every service counter (taken with relaxed loads;
/// individual counters are exact, cross-counter relations are approximate
/// while requests are in flight and exact once the service is drained).
struct MetricsSnapshot {
  std::uint64_t requests = 0;    ///< Accepted by submit().
  std::uint64_t completed = 0;   ///< Responses delivered (ok or error).
  std::uint64_t errors = 0;      ///< Accepted requests answered !ok.
  std::uint64_t in_flight = 0;   ///< Accepted, response not yet delivered.
  std::uint64_t rejected = 0;    ///< Turned away by the admission bound
                                 ///< (answered !ok, never in `requests`).
  /// Requests dispatched to the executor, each one task: every accepted
  /// request is a "batch of one", so both equal `requests`. Kept, with
  /// flush_deadline, because the end-to-end benchmark derives
  /// serve.batch_size_mean (now 1.0) and serve.flush_deadline_ratio
  /// (now 0.0) from them and its traced run requires both.
  std::uint64_t batches = 0;
  std::uint64_t batch_items = 0;
  std::uint64_t flush_deadline = 0;  ///< Always 0: no dispatch waits.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t hot_swaps_observed = 0;  ///< Requests served by a model
                                         ///< version newer than the last one
                                         ///< this counter saw.
  double cache_hit_rate = 0.0;   ///< hits / (hits + misses), 0 when idle.
  double mean_latency_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// Queue-wait (submit -> worker pickup) and service-time (pickup ->
  /// response ready) split of the end-to-end latency. Populated by
  /// on_complete_split(); requests recorded through the legacy
  /// on_complete() overload contribute to the totals only.
  double mean_queue_ms = 0.0;
  double p95_queue_ms = 0.0;
  double mean_service_ms = 0.0;
  double p95_service_ms = 0.0;
};

/// Counters + latency histogram for the diagnosis service. All mutators are
/// thread-safe and wait-free (atomic increments).
class ServiceMetrics {
 public:
  void on_request();                       ///< requests++, in-flight++.
  void on_reject();                        ///< rejected++.
  void on_cache(bool hit);
  void on_model_version(std::uint64_t version);
  /// completed++, in-flight--, latency recorded; errors++ when !ok.
  /// Records the end-to-end total only (queue/service histograms
  /// untouched) — kept for callers that cannot attribute the split.
  void on_complete(double seconds, bool ok);
  /// The split-accounting variant the service uses: total = queue +
  /// service by construction (the worker-pickup instant is the shared
  /// boundary), so the lump latency histogram stays comparable with
  /// pre-split records while the two components get their own histograms.
  void on_complete_split(double queue_seconds, double service_seconds,
                         bool ok);

  MetricsSnapshot snapshot() const;

  /// Renders the snapshot as a fixed-width table (common/table).
  std::string render(const std::string& title = "serve metrics") const;

  /// Machine-readable snapshot (one JSON object) — what `m3dfl serve
  /// --metrics-json` and bench/serve_throughput.cpp emit.
  std::string to_json() const;

  const LatencyHistogram& latency() const { return latency_; }
  const LatencyHistogram& queue_wait() const { return queue_wait_; }
  const LatencyHistogram& service_time() const { return service_time_; }

 private:
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> hot_swaps_observed_{0};
  std::atomic<std::uint64_t> last_version_{0};
  LatencyHistogram latency_;       ///< End-to-end (queue + service).
  LatencyHistogram queue_wait_;    ///< submit -> worker pickup.
  LatencyHistogram service_time_;  ///< worker pickup -> response ready.
};

}  // namespace m3dfl::serve
