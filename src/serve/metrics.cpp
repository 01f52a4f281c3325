#include "serve/metrics.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/table.h"

namespace m3dfl::serve {

void ServiceMetrics::on_request() {
  requests_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceMetrics::on_reject() {
  rejected_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceMetrics::on_cache(bool hit) {
  (hit ? cache_hits_ : cache_misses_).fetch_add(1, std::memory_order_relaxed);
}

void ServiceMetrics::on_model_version(std::uint64_t version) {
  // Counts upward version transitions; concurrent observers may both claim
  // the same swap, which over-counts by at most the worker count per swap —
  // fine for a visibility gauge.
  std::uint64_t seen = last_version_.load(std::memory_order_relaxed);
  while (version > seen) {
    if (last_version_.compare_exchange_weak(seen, version,
                                            std::memory_order_relaxed)) {
      if (seen != 0) {
        hot_swaps_observed_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
  }
}

void ServiceMetrics::on_complete(double seconds, bool ok) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) errors_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  latency_.record(seconds);
}

void ServiceMetrics::on_complete_split(double queue_seconds,
                                       double service_seconds, bool ok) {
  queue_wait_.record(queue_seconds);
  service_time_.record(service_seconds);
  on_complete(queue_seconds + service_seconds, ok);
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  MetricsSnapshot s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.batches = s.batch_items = s.requests;
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.hot_swaps_observed = hot_swaps_observed_.load(std::memory_order_relaxed);
  const std::uint64_t lookups = s.cache_hits + s.cache_misses;
  s.cache_hit_rate = lookups ? static_cast<double>(s.cache_hits) /
                                   static_cast<double>(lookups)
                             : 0.0;
  s.mean_latency_ms = 1e3 * latency_.mean_seconds();
  s.p50_ms = 1e3 * latency_.percentile_seconds(50.0);
  s.p95_ms = 1e3 * latency_.percentile_seconds(95.0);
  s.p99_ms = 1e3 * latency_.percentile_seconds(99.0);
  s.mean_queue_ms = 1e3 * queue_wait_.mean_seconds();
  s.p95_queue_ms = 1e3 * queue_wait_.percentile_seconds(95.0);
  s.mean_service_ms = 1e3 * service_time_.mean_seconds();
  s.p95_service_ms = 1e3 * service_time_.percentile_seconds(95.0);
  return s;
}

std::string ServiceMetrics::render(const std::string& title) const {
  const MetricsSnapshot s = snapshot();
  TablePrinter table(title);
  table.set_header({"metric", "value"});
  table.add_row({"requests", std::to_string(s.requests)});
  table.add_row({"completed", std::to_string(s.completed)});
  table.add_row({"errors", std::to_string(s.errors)});
  table.add_row({"in flight", std::to_string(s.in_flight)});
  table.add_row({"rejected", std::to_string(s.rejected)});
  table.add_row({"cache hit rate", fmt_pct(s.cache_hit_rate)});
  table.add_row({"hot swaps observed", std::to_string(s.hot_swaps_observed)});
  table.add_row({"mean latency (ms)", fmt(s.mean_latency_ms, 3)});
  table.add_row({"p50 latency (ms)", fmt(s.p50_ms, 3)});
  table.add_row({"p95 latency (ms)", fmt(s.p95_ms, 3)});
  table.add_row({"p99 latency (ms)", fmt(s.p99_ms, 3)});
  table.add_row({"mean queue wait (ms)", fmt(s.mean_queue_ms, 3)});
  table.add_row({"mean service time (ms)", fmt(s.mean_service_ms, 3)});
  return table.to_string();
}

std::string ServiceMetrics::to_json() const {
  const MetricsSnapshot s = snapshot();
  auto num = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
    return std::string(buf);
  };
  std::ostringstream os;
  os << "{\"requests\":" << s.requests << ",\"completed\":" << s.completed
     << ",\"errors\":" << s.errors << ",\"in_flight\":" << s.in_flight
     << ",\"rejected\":" << s.rejected
     << ",\"cache_hits\":" << s.cache_hits
     << ",\"cache_misses\":" << s.cache_misses
     << ",\"cache_hit_rate\":" << num(s.cache_hit_rate)
     << ",\"hot_swaps_observed\":" << s.hot_swaps_observed
     << ",\"latency_ms\":{\"mean\":" << num(s.mean_latency_ms)
     << ",\"p50\":" << num(s.p50_ms) << ",\"p95\":" << num(s.p95_ms)
     << ",\"p99\":" << num(s.p99_ms) << "}"
     << ",\"queue_ms\":{\"mean\":" << num(s.mean_queue_ms)
     << ",\"p95\":" << num(s.p95_queue_ms) << "}"
     << ",\"service_ms\":{\"mean\":" << num(s.mean_service_ms)
     << ",\"p95\":" << num(s.p95_service_ms) << "}}";
  return os.str();
}

}  // namespace m3dfl::serve
