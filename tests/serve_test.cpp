// Tests of the concurrent diagnosis-serving subsystem (src/serve/):
// executor semantics, micro-batcher size/deadline behaviour, LRU cache
// eviction and accounting, latency histogram percentiles, model-registry
// hot-swap under concurrent load, and — the acceptance bar — bit-identical
// equivalence of served vs. sequential diagnosis while >= 4 worker threads
// handle >= 64 concurrent requests with a mid-stream model hot-swap.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "eval/datagen.h"
#include "obs/exemplar.h"
#include "eval/experiments.h"
#include "eval/framework_io.h"
#include "serve/batcher.h"
#include "serve/cache.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace m3dfl {
namespace {

using namespace std::chrono_literals;

// --- Executor ----------------------------------------------------------------

TEST(Executor, RunsTasksAndReturnsResults) {
  Executor pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(Executor, PropagatesExceptionsThroughFutures) {
  Executor pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  auto good = pool.submit([] { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 7);  // A throwing task must not kill the worker.
}

TEST(Executor, RunsTasksConcurrently) {
  Executor pool(4);
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(pool.submit([&] {
      const int now = ++active;
      int seen = max_active.load();
      while (now > seen && !max_active.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(20ms);  // Overlap even on one core.
      --active;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_GE(max_active.load(), 2);
}

TEST(Executor, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    Executor pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.post([&ran] { ++ran; });
    }
  }  // ~Executor must run everything already posted.
  EXPECT_EQ(ran.load(), 16);
}

TEST(Executor, WaitIdleBlocksUntilQueueEmpty) {
  Executor pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.post([&ran] {
      std::this_thread::sleep_for(5ms);
      ++ran;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(pool.queued(), 0u);
}

// --- Batcher -----------------------------------------------------------------

/// Collects flushed batches and lets the test block until enough items
/// arrived (the batcher flushes on its own thread).
struct BatchCollector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<int>> batches;
  std::vector<serve::FlushReason> reasons;  ///< Parallel to `batches`.
  std::size_t items = 0;

  void on_flush(std::vector<int>&& batch, serve::FlushReason reason) {
    std::lock_guard<std::mutex> lock(mu);
    items += batch.size();
    batches.push_back(std::move(batch));
    reasons.push_back(reason);
    cv.notify_all();
  }
  bool wait_for_items(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, 5s, [&] { return items >= n; });
  }
};

TEST(Batcher, FlushesWhenBatchFills) {
  BatchCollector sink;
  serve::Batcher<int>::Options opts;
  opts.max_batch = 4;
  opts.max_wait = 10min;  // Deadline effectively off: size must trigger.
  serve::Batcher<int> batcher(opts,
                              [&](std::vector<int>&& b, serve::FlushReason r) {
                                sink.on_flush(std::move(b), r);
                              });
  for (int i = 0; i < 4; ++i) batcher.push(i);
  ASSERT_TRUE(sink.wait_for_items(4));
  std::lock_guard<std::mutex> lock(sink.mu);
  ASSERT_EQ(sink.batches.size(), 1u);
  EXPECT_EQ(sink.batches[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sink.reasons[0], serve::FlushReason::kSize);
}

TEST(Batcher, FlushesPartialBatchAtDeadline) {
  BatchCollector sink;
  serve::Batcher<int>::Options opts;
  opts.max_batch = 64;  // Never fills: only the deadline can flush.
  opts.max_wait = 20ms;
  serve::Batcher<int> batcher(opts,
                              [&](std::vector<int>&& b, serve::FlushReason r) {
                                sink.on_flush(std::move(b), r);
                              });
  batcher.push(1);
  batcher.push(2);
  batcher.push(3);
  ASSERT_TRUE(sink.wait_for_items(3));
  std::lock_guard<std::mutex> lock(sink.mu);
  ASSERT_EQ(sink.batches.size(), 1u);
  EXPECT_EQ(sink.batches[0].size(), 3u);
  EXPECT_EQ(sink.reasons[0], serve::FlushReason::kDeadline);
}

TEST(Batcher, SplitsOversizedBurstsIntoMaxBatchChunks) {
  BatchCollector sink;
  serve::Batcher<int>::Options opts;
  opts.max_batch = 8;
  opts.max_wait = 5ms;
  serve::Batcher<int> batcher(opts,
                              [&](std::vector<int>&& b, serve::FlushReason r) {
                                sink.on_flush(std::move(b), r);
                              });
  for (int i = 0; i < 20; ++i) batcher.push(i);
  ASSERT_TRUE(sink.wait_for_items(20));
  std::lock_guard<std::mutex> lock(sink.mu);
  std::size_t total = 0;
  for (const auto& b : sink.batches) {
    EXPECT_LE(b.size(), 8u);
    total += b.size();
  }
  EXPECT_EQ(total, 20u);
}

TEST(Batcher, DestructorFlushesPending) {
  BatchCollector sink;
  {
    serve::Batcher<int>::Options opts;
    opts.max_batch = 64;
    opts.max_wait = 10min;
    serve::Batcher<int> batcher(opts,
                                [&](std::vector<int>&& b,
                                    serve::FlushReason r) {
                                  sink.on_flush(std::move(b), r);
                                });
    batcher.push(42);
  }  // Destruction must not lose the pending item.
  std::lock_guard<std::mutex> lock(sink.mu);
  EXPECT_EQ(sink.items, 1u);
  ASSERT_EQ(sink.reasons.size(), 1u);
  EXPECT_EQ(sink.reasons[0], serve::FlushReason::kShutdown);
}

// --- LRU cache ---------------------------------------------------------------

TEST(LruCache, EvictsLeastRecentlyUsedAndCountsHits) {
  serve::LruCache<int, int> cache(2);
  cache.put(1, std::make_shared<const int>(10));
  cache.put(2, std::make_shared<const int>(20));
  ASSERT_NE(cache.get(1), nullptr);     // Hit; 1 becomes MRU.
  cache.put(3, std::make_shared<const int>(30));  // Evicts 2.
  EXPECT_EQ(cache.get(2), nullptr);     // Miss: evicted.
  ASSERT_NE(cache.get(1), nullptr);
  ASSERT_NE(cache.get(3), nullptr);
  EXPECT_EQ(*cache.get(1), 10);

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.hits(), 4u);    // 1, 1, 3, 1.
  EXPECT_EQ(cache.misses(), 1u);  // 2.
  EXPECT_NEAR(cache.hit_rate(), 4.0 / 5.0, 1e-12);
}

TEST(LruCache, EvictedValueSurvivesWhileHeld) {
  serve::LruCache<int, int> cache(1);
  cache.put(1, std::make_shared<const int>(10));
  std::shared_ptr<const int> held = cache.get(1);
  cache.put(2, std::make_shared<const int>(20));  // Evicts 1.
  EXPECT_EQ(cache.get(1), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, 10);  // The reader's copy is untouched by eviction.
}

TEST(LruCache, ZeroCapacityDisablesCaching) {
  serve::LruCache<int, int> cache(0);
  cache.put(1, std::make_shared<const int>(10));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// --- Metrics -----------------------------------------------------------------

TEST(LatencyHistogram, PercentilesAreOrderedAndBracketed) {
  serve::LatencyHistogram hist;
  for (int i = 0; i < 90; ++i) hist.record(1e-3);   // 1 ms.
  for (int i = 0; i < 10; ++i) hist.record(100e-3); // 100 ms tail.
  EXPECT_EQ(hist.count(), 100u);
  const double p50 = hist.percentile_seconds(50);
  const double p95 = hist.percentile_seconds(95);
  const double p99 = hist.percentile_seconds(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LT(p50, 10e-3);   // Within a bucket or two of 1 ms.
  EXPECT_GT(p99, 30e-3);   // In the 100 ms tail region.
  EXPECT_NEAR(hist.mean_seconds(), 0.9 * 1e-3 + 0.1 * 100e-3, 5e-4);
}

TEST(ServiceMetrics, SnapshotTracksCountersCoherently) {
  serve::ServiceMetrics metrics;
  for (int i = 0; i < 10; ++i) metrics.on_request();
  metrics.on_batch(6, serve::FlushReason::kSize);
  metrics.on_batch(4, serve::FlushReason::kDeadline);
  for (int i = 0; i < 10; ++i) {
    metrics.on_cache(i % 2 == 0);
    metrics.on_model_version(i < 5 ? 1 : 2);
    metrics.on_complete(1e-3, i != 3);
  }
  const serve::MetricsSnapshot s = metrics.snapshot();
  EXPECT_EQ(s.requests, 10u);
  EXPECT_EQ(s.completed, 10u);
  EXPECT_EQ(s.errors, 1u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_DOUBLE_EQ(s.mean_batch, 5.0);
  EXPECT_EQ(s.flush_size, 1u);
  EXPECT_EQ(s.flush_deadline, 1u);
  EXPECT_EQ(s.flush_shutdown, 0u);
  EXPECT_EQ(s.cache_hits, 5u);
  EXPECT_EQ(s.cache_misses, 5u);
  EXPECT_DOUBLE_EQ(s.cache_hit_rate, 0.5);
  EXPECT_EQ(s.hot_swaps_observed, 1u);  // 1 -> 2, once.
  const std::string table = metrics.render();
  EXPECT_NE(table.find("cache hit rate"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
  const std::string js = metrics.to_json();
  EXPECT_NE(js.find("\"requests\":10"), std::string::npos);
  EXPECT_NE(js.find("\"flush_reasons\":{\"size\":1,\"deadline\":1,"
                    "\"shutdown\":0}"),
            std::string::npos);
}

// --- Model registry ----------------------------------------------------------

TEST(ModelRegistry, PublishBumpsVersionAndKeepsOldAlive) {
  serve::ModelRegistry registry;
  serve::ModelRegistry::Handle handle = registry.handle("fw");
  EXPECT_EQ(handle.current(), nullptr);

  eval::TrainedFramework fw;
  fw.policy.t_p = 0.25;
  EXPECT_EQ(registry.publish("fw", fw, "first"), 1u);
  const auto v1 = handle.current();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_DOUBLE_EQ(v1->framework.policy.t_p, 0.25);

  fw.policy.t_p = 0.75;
  EXPECT_EQ(registry.publish("fw", fw, "second"), 2u);
  // The old snapshot stays valid for in-flight users after the swap.
  EXPECT_DOUBLE_EQ(v1->framework.policy.t_p, 0.25);
  EXPECT_EQ(registry.version("fw"), 2u);
  EXPECT_DOUBLE_EQ(handle.current()->framework.policy.t_p, 0.75);
}

TEST(ModelRegistry, RollbackRepublishesHistoricalVersion) {
  serve::ModelRegistry registry;
  eval::TrainedFramework fw;
  fw.policy.t_p = 0.25;
  registry.publish("fw", fw, "first");
  fw.policy.t_p = 0.75;
  registry.publish("fw", fw, "second");

  EXPECT_EQ(registry.rollback("fw", 1), 3u);  // v3 = copy of v1.
  const auto* p = registry.current("fw");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->version, 3u);
  EXPECT_DOUBLE_EQ(p->framework.policy.t_p, 0.25);
  EXPECT_EQ(p->source, "rollback of v1");

  EXPECT_EQ(registry.rollback("fw", 99), 0u);      // Unknown version.
  EXPECT_EQ(registry.rollback("nope", 1), 0u);     // Unknown name.
  EXPECT_EQ(registry.version("fw"), 3u);           // Failed rollbacks no-op.
}

TEST(ModelRegistry, RejectedStreamKeepsPreviousVersionLive) {
  serve::ModelRegistry registry;
  eval::TrainedFramework fw;
  registry.publish("fw", fw);
  std::istringstream bad("m3dfl-framework v7 garbage");
  std::string error;
  EXPECT_EQ(registry.publish_stream("fw", bad, "bad-file", &error), 0u);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(registry.version("fw"), 1u);
}

TEST(ModelRegistry, HotSwapUnderConcurrentLoadIsAlwaysCoherent) {
  serve::ModelRegistry registry;
  eval::TrainedFramework fw;
  fw.policy.t_p = 1.0;  // Version k is published with t_p = 1 / k.
  registry.publish("fw", fw);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&registry, &stop, &reads] {
      serve::ModelRegistry::Handle handle = registry.handle("fw");
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto p = handle.current();
        ASSERT_NE(p, nullptr);
        // Monotonic per reader, and the payload always matches the
        // version it travelled with (no torn version/weights pair).
        ASSERT_GE(p->version, last);
        last = p->version;
        ASSERT_DOUBLE_EQ(p->framework.policy.t_p,
                         1.0 / static_cast<double>(p->version));
        ++reads;
      }
    });
  }
  // Swap only once the readers are reading (bounded wait), so the swaps
  // race real reads: on a loaded host the publisher could otherwise finish
  // all swaps before any reader ran.
  for (int i = 0; i < 100000 && reads.load() == 0; ++i) {
    std::this_thread::sleep_for(100us);
  }
  constexpr std::uint64_t kSwaps = 200;
  for (std::uint64_t k = 2; k <= kSwaps + 1; ++k) {
    fw.policy.t_p = 1.0 / static_cast<double>(k);
    registry.publish("fw", fw);
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(registry.version("fw"), kSwaps + 1);
  EXPECT_GT(reads.load(), 0u);
}

// --- Service: equivalence + behaviour ---------------------------------------

void expect_same_report(const diag::DiagnosisReport& a,
                        const diag::DiagnosisReport& b) {
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const diag::Candidate& ca = a.candidates[i];
    const diag::Candidate& cb = b.candidates[i];
    EXPECT_EQ(ca.site, cb.site) << "rank " << i;
    EXPECT_EQ(ca.polarity, cb.polarity) << "rank " << i;
    EXPECT_EQ(ca.tier, cb.tier) << "rank " << i;
    EXPECT_EQ(ca.is_miv, cb.is_miv) << "rank " << i;
    EXPECT_EQ(ca.score, cb.score) << "rank " << i;  // Bit-identical.
    EXPECT_EQ(ca.matched, cb.matched) << "rank " << i;
    EXPECT_EQ(ca.mispredicted, cb.mispredicted) << "rank " << i;
    EXPECT_EQ(ca.missed, cb.missed) << "rank " << i;
  }
}

void expect_same_response(const serve::DiagnosisResponse& served,
                          const serve::DiagnosisResponse& direct) {
  ASSERT_TRUE(served.ok) << served.error;
  expect_same_report(served.atpg_report, direct.atpg_report);
  expect_same_report(served.outcome.report, direct.outcome.report);
  EXPECT_EQ(served.outcome.pruned, direct.outcome.pruned);
  EXPECT_EQ(served.outcome.high_confidence, direct.outcome.high_confidence);
  EXPECT_EQ(served.outcome.predicted_tier, direct.outcome.predicted_tier);
  EXPECT_EQ(served.outcome.confidence, direct.outcome.confidence);
  EXPECT_EQ(served.outcome.predicted_mivs, direct.outcome.predicted_mivs);
  ASSERT_EQ(served.outcome.backup.size(), direct.outcome.backup.size());
  for (std::size_t i = 0; i < served.outcome.backup.size(); ++i) {
    EXPECT_EQ(served.outcome.backup[i].site, direct.outcome.backup[i].site);
  }
}

struct ServedFixture {
  const eval::BenchmarkSpec spec = eval::tiny_spec();
  const eval::Design* design = nullptr;
  eval::TrainedFramework fw;
  std::vector<sim::FailureLog> logs;

  explicit ServedFixture(std::size_t num_logs) {
    const eval::RunScale scale = eval::RunScale::tiny();
    const eval::TrainingBundle bundle =
        eval::build_training_bundle(spec, false, scale);
    fw = eval::train_framework(bundle, scale);
    design = &eval::cached_design(spec, eval::Config::kSyn2);
    eval::DatagenOptions opts;
    opts.num_samples = num_logs;
    opts.seed = 77;
    const eval::Dataset ds = eval::generate_dataset(*design, opts);
    for (const eval::Sample& s : ds.samples) logs.push_back(s.log);
  }
};

TEST(DiagnosisService, ServedIsBitIdenticalToDirectUnderLoadWithHotSwap) {
  ServedFixture fx(16);
  ASSERT_GE(fx.logs.size(), 8u);

  // Sequential reference results, computed before any concurrency exists.
  std::vector<serve::DiagnosisResponse> direct;
  for (const sim::FailureLog& log : fx.logs) {
    direct.push_back(
        serve::DiagnosisService::diagnose_direct(*fx.design, fx.fw, log));
  }

  serve::ModelRegistry registry;
  registry.publish("default", fx.fw, "trained");

  serve::ServiceOptions opts;
  opts.num_threads = 4;
  opts.max_batch = 8;
  opts.max_wait = std::chrono::microseconds(500);
  serve::DiagnosisService service(registry, opts);
  service.register_design(*fx.design);

  // >= 64 concurrent requests: every log four times (which also exercises
  // the sub-graph cache), half submitted before the hot-swap, half after.
  constexpr int kRounds = 4;
  const std::size_t n = fx.logs.size();
  std::vector<std::future<serve::DiagnosisResponse>> futures;
  futures.reserve(n * kRounds);
  for (int r = 0; r < kRounds / 2; ++r) {
    for (const sim::FailureLog& log : fx.logs) {
      futures.push_back(service.submit(*fx.design, log));
    }
  }
  // Wait until the service is demonstrably mid-stream, then hot-swap to a
  // round-tripped copy of the framework: bit-exact weights (io_test proves
  // it), so served results must stay identical across the swap while the
  // version number changes under the workers' feet.
  while (service.metrics().snapshot().completed < n / 2) {
    std::this_thread::sleep_for(1ms);
  }
  eval::TrainedFramework swapped;
  std::string error;
  ASSERT_TRUE(eval::framework_from_string(
      swapped, eval::framework_to_string(fx.fw), &error))
      << error;
  EXPECT_EQ(registry.publish("default", std::move(swapped), "hot-swap"), 2u);
  for (int r = kRounds / 2; r < kRounds; ++r) {
    for (const sim::FailureLog& log : fx.logs) {
      futures.push_back(service.submit(*fx.design, log));
    }
  }
  ASSERT_GE(futures.size(), 64u);

  bool saw_v1 = false, saw_v2 = false;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::DiagnosisResponse served = futures[i].get();
    expect_same_response(served, direct[i % n]);
    saw_v1 |= served.model_version == 1;
    saw_v2 |= served.model_version == 2;
  }
  // The swap really was mid-stream: both versions served traffic.
  EXPECT_TRUE(saw_v1);
  EXPECT_TRUE(saw_v2);

  service.drain();
  const serve::MetricsSnapshot s = service.metrics().snapshot();
  EXPECT_EQ(s.requests, n * kRounds);
  EXPECT_EQ(s.completed, n * kRounds);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.cache_hits + s.cache_misses, n * kRounds);
  // Each distinct log back-traces at most... once per concurrent dogpile;
  // with 4 rounds of 16 logs there must be real hits.
  EXPECT_GT(s.cache_hits, 0u);
  EXPECT_GE(s.batches, (n * kRounds) / opts.max_batch);
  EXPECT_GT(s.hot_swaps_observed, 0u);
}

TEST(DiagnosisService, CachedSubgraphKeepsResultsIdentical) {
  ServedFixture fx(4);
  serve::ModelRegistry registry;
  registry.publish("default", fx.fw);
  serve::ServiceOptions opts;
  opts.num_threads = 2;
  serve::DiagnosisService service(registry, opts);
  service.register_design(*fx.design);

  const serve::DiagnosisResponse direct =
      serve::DiagnosisService::diagnose_direct(*fx.design, fx.fw,
                                               fx.logs[0]);
  const serve::DiagnosisResponse first =
      service.submit(*fx.design, fx.logs[0]).get();
  const serve::DiagnosisResponse second =
      service.submit(*fx.design, fx.logs[0]).get();
  expect_same_response(first, direct);
  expect_same_response(second, direct);
  EXPECT_TRUE(second.cache_hit);  // Sequential resubmit must hit.
}

TEST(DiagnosisService, UnregisteredDesignFailsCleanly) {
  ServedFixture fx(1);
  serve::ModelRegistry registry;
  registry.publish("default", fx.fw);
  serve::DiagnosisService service(registry);  // No register_design().
  serve::DiagnosisResponse r =
      service.submit(*fx.design, fx.logs[0]).get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not registered"), std::string::npos);
  service.drain();
  EXPECT_EQ(service.metrics().snapshot().errors, 1u);
}

TEST(DiagnosisService, MissingModelFailsCleanly) {
  ServedFixture fx(1);
  serve::ModelRegistry registry;  // Nothing published.
  serve::DiagnosisService service(registry);
  service.register_design(*fx.design);
  serve::DiagnosisResponse r =
      service.submit(*fx.design, fx.logs[0]).get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no framework"), std::string::npos);
}

TEST(DiagnosisService, OutOfRangeLogFailsCleanly) {
  ServedFixture fx(1);
  serve::ModelRegistry registry;
  registry.publish("default", fx.fw);
  serve::ServiceOptions opts;
  opts.num_threads = 2;
  serve::DiagnosisService service(registry, opts);
  service.register_design(*fx.design);

  const eval::Design& d = *fx.design;
  const auto patterns = static_cast<std::uint32_t>(d.fsim->num_patterns());
  std::vector<std::pair<sim::FailureLog, std::string>> bad;
  for (const auto& [pattern, output, field] :
       {std::tuple{0u, 99999999u, "output"},
        std::tuple{0u, static_cast<std::uint32_t>(d.nl.num_outputs()),
                   "output"},
        std::tuple{patterns, 0u, "pattern"}}) {
    sim::FailureLog log;
    log.fails = {{pattern, output}};
    bad.emplace_back(std::move(log), field);
  }
  for (const auto& [pattern, channel, cycle, field] :
       {std::tuple{patterns, 0u, 0u, "pattern"},
        std::tuple{0u, d.scan.num_channels, 0u, "channel"},
        std::tuple{0u, 0u, d.scan.chain_length, "cycle"}}) {
    sim::FailureLog log;
    log.compacted = true;
    log.cfails = {{pattern, channel, cycle}};
    bad.emplace_back(std::move(log), field);
  }
  for (const auto& [log, field] : bad) {
    const serve::DiagnosisResponse r = service.submit(d, log).get();
    EXPECT_FALSE(r.ok) << field;
    EXPECT_NE(r.error.find(field), std::string::npos) << r.error;
  }
  // The rejected requests leave the service healthy.
  const serve::DiagnosisResponse good = service.submit(d, fx.logs[0]).get();
  EXPECT_TRUE(good.ok) << good.error;
  expect_same_response(
      good, serve::DiagnosisService::diagnose_direct(d, fx.fw, fx.logs[0]));
  service.drain();
  EXPECT_EQ(service.metrics().snapshot().errors, bad.size());
}

TEST(DiagnosisService, SplitsLatencyAndAssignsDistinctRequestIds) {
  ServedFixture fx(4);
  serve::ModelRegistry registry;
  registry.publish("default", fx.fw);
  serve::ServiceOptions opts;
  opts.num_threads = 2;
  serve::DiagnosisService service(registry, opts);
  service.register_design(*fx.design);

  std::vector<std::future<serve::DiagnosisResponse>> futures;
  for (const sim::FailureLog& log : fx.logs) {
    futures.push_back(service.submit(*fx.design, log));
  }
  std::set<std::uint64_t> ids;
  for (auto& f : futures) {
    const serve::DiagnosisResponse r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_GT(r.request_id, 0u);
    ids.insert(r.request_id);
    EXPECT_GE(r.queue_seconds, 0.0);
    EXPECT_GT(r.service_seconds, 0.0);
    // The split is exact by construction: worker pickup is the shared
    // boundary instant of both measurements.
    EXPECT_DOUBLE_EQ(r.seconds, r.queue_seconds + r.service_seconds);
  }
  EXPECT_EQ(ids.size(), fx.logs.size());  // Ids are distinct.
  service.drain();
  const serve::MetricsSnapshot s = service.metrics().snapshot();
  EXPECT_EQ(s.completed, fx.logs.size());
  EXPECT_GT(s.mean_service_ms, 0.0);
  EXPECT_GE(s.mean_queue_ms, 0.0);
  EXPECT_GE(s.p95_queue_ms, 0.0);
}

TEST(DiagnosisService, ExemplarStoreCapturesServedRequests) {
  obs::ExemplarStore& store = obs::ExemplarStore::instance();
  store.clear();
  store.set_enabled(true);

  ServedFixture fx(3);
  serve::ModelRegistry registry;
  registry.publish("default", fx.fw);
  serve::ServiceOptions opts;
  opts.num_threads = 2;
  {
    serve::DiagnosisService service(registry, opts);
    service.register_design(*fx.design);
    std::vector<std::future<serve::DiagnosisResponse>> futures;
    for (const sim::FailureLog& log : fx.logs) {
      futures.push_back(service.submit(*fx.design, log));
    }
    for (auto& f : futures) ASSERT_TRUE(f.get().ok);
    service.drain();
  }
  store.set_enabled(false);

  const std::vector<obs::RequestExemplar> kept = store.snapshot();
  ASSERT_FALSE(kept.empty());
  bool saw_wait = false, saw_diag = false;
  for (const obs::RequestExemplar& e : kept) {
    EXPECT_GT(e.request_id, 0u);
    EXPECT_TRUE(e.ok);
    // The queue/service split must agree with the total.
    EXPECT_NEAR(e.total_ms, e.queue_ms + e.service_ms, 1e-9);
    for (const obs::ExemplarStage& s : e.stages) {
      saw_wait = saw_wait || std::string(s.name) == "serve.batcher_wait";
      saw_diag = saw_diag || std::string(s.name) == "serve.diagnose";
    }
  }
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_diag);
  store.clear();
}

TEST(FailureLogFingerprint, DistinguishesLogsAndModes) {
  sim::FailureLog a;
  a.fails = {{1, 2}, {3, 4}};
  sim::FailureLog b = a;
  EXPECT_EQ(serve::failure_log_fingerprint(a),
            serve::failure_log_fingerprint(b));
  b.fails[1].output = 5;
  EXPECT_NE(serve::failure_log_fingerprint(a),
            serve::failure_log_fingerprint(b));
  sim::FailureLog c;
  c.compacted = true;
  c.cfails = {{1, 2, 0}};
  sim::FailureLog d;
  d.fails = {{1, 2}};
  EXPECT_NE(serve::failure_log_fingerprint(c),
            serve::failure_log_fingerprint(d));
}

}  // namespace
}  // namespace m3dfl
