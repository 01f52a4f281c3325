#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace m3dfl::obs {

/// One stage of a request's span tree, with times relative to the request's
/// submit instant. `name` must be a static string literal (the serve stage
/// names), mirroring the tracer's no-copy contract.
struct ExemplarStage {
  const char* name = nullptr;
  double start_ms = 0.0;
  double dur_ms = 0.0;
};

/// The full trace of one served request: identity, the queue-wait vs.
/// service-time split of its end-to-end latency, outcome flags, and its
/// per-stage span tree.
struct RequestExemplar {
  std::uint64_t request_id = 0;
  double total_ms = 0.0;
  double queue_ms = 0.0;    ///< submit → worker pickup (executor queue).
  double service_ms = 0.0;  ///< worker pickup → response ready.
  bool ok = false;
  bool cache_hit = false;
  std::uint64_t model_version = 0;
  std::vector<ExemplarStage> stages;
};

/// Bounded store of slow-request exemplars: retains the `capacity` slowest
/// requests (by total latency) of the current time window, plus the
/// completed previous window, so /tracez always shows both "slowest right
/// now" and "slowest a moment ago". Memory is hard-bounded by construction:
/// at most 2 * capacity exemplars ever exist, each carrying at most
/// max_stages stages — offering a million requests cannot grow it.
///
/// Disabled by default; offer() is a single relaxed load until the admin
/// plane enables it, so serving without an admin endpoint pays nothing.
class ExemplarStore {
 public:
  struct Options {
    std::size_t capacity = 8;      ///< Slowest-N kept per window.
    double window_seconds = 60.0;  ///< Window length before rotation.
    std::size_t max_stages = 16;   ///< Stage cap per exemplar.
  };

  ExemplarStore() = default;
  explicit ExemplarStore(Options opts) : opts_(opts) {}

  static ExemplarStore& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Considers one completed request. Kept only if it ranks among the
  /// window's slowest; stages beyond max_stages are dropped. No-op while
  /// disabled.
  void offer(RequestExemplar exemplar);

  /// Retained exemplars, slowest-first: current window then previous.
  std::vector<RequestExemplar> snapshot() const;

  /// {"window_seconds":..,"capacity":..,"offered":..,"exemplars":[..]}
  std::string to_json() const;

  void clear();

  /// Requests offered while enabled (kept or not).
  std::uint64_t offered() const {
    return offered_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return opts_; }

 private:
  void rotate_if_due_locked(std::chrono::steady_clock::time_point now);

  Options opts_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> offered_{0};
  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point window_start_{};
  bool window_started_ = false;
  std::vector<RequestExemplar> current_;   ///< Sorted slowest-first.
  std::vector<RequestExemplar> previous_;  ///< Last completed window.
};

}  // namespace m3dfl::obs
