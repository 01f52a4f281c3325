// Tests of the shared utilities: Rng, statistics, table formatting.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace m3dfl {
namespace {

TEST(Rng, DeterministicUnderSeed) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool differs = false;
  Rng a2(1);
  for (int i = 0; i < 100; ++i) differs |= a2.next() != c.next();
  EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(8);
  bool lo = false, hi = false;
  for (int i = 0; i < 3000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    lo |= v == -3;
    hi |= v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, UniformInHalfOpenInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(10);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, DeriveSeedDecorrelatesStreams) {
  const auto a = derive_seed(1, 1);
  const auto b = derive_seed(1, 2);
  const auto c = derive_seed(2, 1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, derive_seed(1, 1));
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, SpanHelpers) {
  const std::vector<double> xs{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean_of(xs), 4.0);
  EXPECT_NEAR(stddev_of(xs), std::sqrt(8.0 / 3.0), 1e-12);
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_NEAR(correlation(xs, ys), 1.0, 1e-12);
  const std::vector<double> anti{3.0, 2.0, 1.0};
  EXPECT_NEAR(correlation(xs, anti), -1.0, 1e-12);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Table, RendersAlignedCells) {
  TablePrinter t("Title");
  t.set_header({"A", "Bee"});
  t.add_row({"1", "22"});
  t.add_separator();
  t.add_row({"333"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("| A   | Bee |"), std::string::npos);
  EXPECT_NE(s.find("| 333 |     |"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.9932, 1), "99.3%");
  EXPECT_EQ(fmt_delta_pct(0.329, 1), "(+32.9%)");
  EXPECT_EQ(fmt_delta_pct(-0.004, 1), "(-0.4%)");
}

TEST(ForEachChunk, VisitsEveryIndexExactlyOnce) {
  for (std::size_t n : {0, 1, 7, 1000}) {
    for (std::size_t shards : {1, 2, 8}) {
      for (std::size_t max_chunk : {1, 64}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " shards=" +
                     std::to_string(shards) + " max_chunk=" +
                     std::to_string(max_chunk));
        std::vector<std::atomic<int>> visits(n);
        std::atomic<int> bad_ranges{0};
        for_each_chunk(shards, n, max_chunk, nullptr,
                       [&](std::size_t, std::size_t lo, std::size_t hi) {
                         // Inline (one shard) is a single fn(0, 0, n).
                         const std::size_t cap = shards > 1 ? max_chunk : n;
                         if (lo > hi || hi > n || hi - lo > cap) ++bad_ranges;
                         for (std::size_t i = lo; i < hi; ++i) ++visits[i];
                       });
        EXPECT_EQ(bad_ranges.load(), 0);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(visits[i].load(), 1) << "index " << i;
        }
      }
    }
  }
}

TEST(ForEachChunk, ShardIndexBelowShardCountAndOwnedByOneThread) {
  for (std::size_t shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::atomic<int> out_of_range{0};
    // Per-shard scratch written without a lock, as callers do; TSan flags
    // any shard index that two threads share at once.
    std::vector<std::thread::id> owner(shards);
    std::vector<std::size_t> items(shards, 0);
    for_each_chunk(shards, 1000, 1, nullptr,
                   [&](std::size_t shard, std::size_t lo, std::size_t hi) {
                     if (shard >= shards) {
                       ++out_of_range;
                       return;
                     }
                     if (items[shard] == 0) {
                       owner[shard] = std::this_thread::get_id();
                     } else if (owner[shard] != std::this_thread::get_id()) {
                       ++out_of_range;
                     }
                     items[shard] += hi - lo;
                   });
    EXPECT_EQ(out_of_range.load(), 0);
    std::size_t total = 0;
    for (std::size_t c : items) total += c;
    EXPECT_EQ(total, 1000u);
  }
}

TEST(ForEachChunk, OneShardRunsInlineOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for_each_chunk(1, 100, 1, nullptr,
                 [&](std::size_t shard, std::size_t lo, std::size_t hi) {
                   EXPECT_EQ(shard, 0u);
                   ran_on.push_back(std::this_thread::get_id());
                   ranges.emplace_back(lo, hi);
                 });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{0, 100}));
  EXPECT_EQ(ran_on[0], caller);
}

TEST(ForEachChunk, RethrowsAfterTheOtherShardsFinish) {
  constexpr std::size_t kN = 1000;
  constexpr std::size_t kThrowAt = 10;
  std::atomic<int> running{0};
  std::atomic<std::size_t> completed{0};
  struct Running {
    std::atomic<int>& n;
    explicit Running(std::atomic<int>& r) : n(r) { ++n; }
    ~Running() { --n; }
  };
  try {
    for_each_chunk(4, kN, 1, nullptr,
                   [&](std::size_t, std::size_t lo, std::size_t hi) {
                     const Running guard(running);
                     if (lo == kThrowAt) throw std::runtime_error("chunk");
                     std::this_thread::yield();
                     completed += hi - lo;
                   });
    FAIL() << "the chunk's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk");
    // Every shard has returned, and the shards that did not throw swept
    // every other item.
    EXPECT_EQ(running.load(), 0);
    EXPECT_EQ(completed.load(), kN - 1);
  }
}

}  // namespace
}  // namespace m3dfl
