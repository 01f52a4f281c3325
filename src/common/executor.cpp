#include "common/executor.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/prof/profiler.h"
#include "obs/trace.h"

namespace m3dfl {

Executor::Executor(std::size_t num_threads, const char* label)
    : label_(label), created_(std::chrono::steady_clock::now()) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  if (label_ != nullptr) {
    // Workers are joined, so the counters are final. Labeled pools publish
    // their lifetime stats; gauges are last-writer-wins, so a sequence of
    // same-labeled pools reports the most recent run.
    const Stats s = stats();
    auto& reg = obs::MetricsRegistry::instance();
    const std::string prefix = std::string("executor.") + label_;
    reg.counter(prefix + ".tasks").add(s.tasks);
    reg.gauge(prefix + ".utilization").set(s.utilization);
    reg.gauge(prefix + ".max_queued")
        .set(static_cast<double>(s.max_queued));
  }
}

void Executor::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
    max_queued_ = std::max(max_queued_, queue_.size());
  }
  work_cv_.notify_one();
}

std::size_t Executor::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void Executor::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

Executor::Stats Executor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.tasks = tasks_done_;
  s.busy_seconds = busy_seconds_;
  s.max_queued = max_queued_;
  s.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - created_)
                       .count();
  const double capacity =
      s.wall_seconds * static_cast<double>(threads_.size());
  s.utilization = capacity > 0.0 ? s.busy_seconds / capacity : 0.0;
  return s;
}

void Executor::worker_loop() {
  // Register with the sampling profiler for the worker's lifetime: pool
  // threads are where the pipeline burns its cycles, so they must be
  // sampleable whenever a profile window opens (CLI --profile or
  // /profilez). Unregisters — and disarms any active timer — on exit,
  // before the thread's CPU clock dies with it.
  M3DFL_PROF_THREAD(prof_registration);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    // Drain the queue even when stopping so ~Executor never abandons a
    // submitted task (its future would otherwise never become ready).
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    const auto t0 = std::chrono::steady_clock::now();
    {
      M3DFL_OBS_SPAN(span, "executor.task");
      task();  // packaged_task captures exceptions into the future.
    }
    const double busy = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    lock.lock();
    --active_;
    ++tasks_done_;
    busy_seconds_ += busy;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

std::size_t resolve_num_threads(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t sweep_shards(std::size_t requested, std::size_t n,
                         std::size_t serial_below) {
  if (requested == 0 && n < serial_below) return 1;
  return std::min(resolve_num_threads(requested),
                  std::max<std::size_t>(n, 1));
}

}  // namespace m3dfl
