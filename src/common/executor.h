#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace m3dfl {

/// Fixed-size thread pool with a FIFO task queue — the library's reusable
/// concurrency primitive. The diagnosis service posts each request to one,
/// the trainer keeps one across its epochs, and every other offline sweep
/// (datagen, dictionary campaigns, calibration, the design build) reaches
/// it through for_each_chunk() below.
///
/// Semantics:
///  * submit() returns a std::future carrying the callable's result (or its
///    exception — a throwing task never takes down a worker);
///  * post() is the fire-and-forget variant (no future allocation);
///  * tasks run in submission order, up to num_threads() at a time;
///  * the destructor drains the queue: every task already submitted runs to
///    completion before the workers join.
class Executor {
 public:
  /// Per-pool utilization accounting, maintained under the queue mutex (one
  /// extra clock pair per task — noise against shard-sized tasks).
  struct Stats {
    std::uint64_t tasks = 0;      ///< Tasks completed.
    double busy_seconds = 0.0;    ///< Summed task run time across workers.
    std::size_t max_queued = 0;   ///< High-water mark of the task queue.
    double wall_seconds = 0.0;    ///< Since construction.
    /// busy / (wall * workers): 1.0 means every worker ran tasks the whole
    /// time; low values mean the pool sat idle or starved on the queue.
    double utilization = 0.0;
  };

  /// `label`, when given, must outlive the executor (a string literal); the
  /// destructor then publishes the pool's stats to the obs MetricsRegistry
  /// as executor.<label>.{tasks,utilization,max_queued}.
  explicit Executor(std::size_t num_threads, const char* label = nullptr);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // std::function requires copyable targets; a packaged_task is move-only,
    // so it rides in a shared_ptr.
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    post([task] { (*task)(); });
    return future;
  }

  /// Enqueues a task whose result (and exceptions) nobody waits for.
  void post(std::function<void()> fn);

  std::size_t num_threads() const { return threads_.size(); }

  /// Tasks enqueued but not yet started.
  std::size_t queued() const;

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

  /// Current utilization accounting (wall clock measured at the call).
  Stats stats() const;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< Signals workers: task or stop.
  std::condition_variable idle_cv_;   ///< Signals wait_idle().
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;  ///< Workers currently running a task.
  bool stop_ = false;
  const char* label_ = nullptr;
  std::chrono::steady_clock::time_point created_;
  std::uint64_t tasks_done_ = 0;
  double busy_seconds_ = 0.0;
  std::size_t max_queued_ = 0;
  std::vector<std::thread> threads_;
};

/// Resolves a user-facing thread-count knob: 0 means "whatever the hardware
/// offers" (never less than 1); any other value is taken literally.
std::size_t resolve_num_threads(std::size_t requested);

/// Shard count of a parallel sweep over `n` items, never more than `n`: a
/// nonzero `requested` is taken literally; 0 means the hardware's thread
/// count, or 1 (run inline) below `serial_below` items, where thread
/// start-up would cost more than it saves.
std::size_t sweep_shards(std::size_t requested, std::size_t n,
                         std::size_t serial_below);

/// Runs fn(shard, lo, hi) over chunks [lo, hi) that cover [0, n). With one
/// shard the call is inline: fn(0, 0, n). Otherwise `num_shards` workers of
/// an Executor (labelled `label`) claim chunks of at most `max_chunk` items
/// (about 16 per worker) dynamically, so uneven item costs still balance.
/// Each worker is one shard, so fn may use scratch indexed by `shard`
/// without locking. Which chunks a shard runs varies between runs: callers
/// write per-item results or merge shard sums order-free. A shard that
/// throws stops; the others run on, and once all have stopped the
/// exception of the lowest-numbered throwing shard is rethrown.
template <typename F>
void for_each_chunk(std::size_t num_shards, std::size_t n,
                    std::size_t max_chunk, const char* label, F&& fn) {
  if (num_shards <= 1 || n == 0) {
    fn(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  const std::size_t per_shard = (n + num_shards * 16 - 1) / (num_shards * 16);
  const std::size_t chunk =
      std::max<std::size_t>(1, std::min(max_chunk, per_shard));
  std::atomic<std::size_t> next{0};
  Executor exec(num_shards, label);
  std::vector<std::future<void>> done;
  done.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    done.push_back(exec.submit([&fn, &next, n, chunk, s] {
      for (;;) {
        const std::size_t lo =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (lo >= n) return;
        fn(s, lo, std::min(n, lo + chunk));
      }
    }));
  }
  // A rethrow unwinds through ~Executor, which lets every other shard
  // finish before the exception leaves this function.
  for (auto& f : done) f.get();
}

}  // namespace m3dfl
