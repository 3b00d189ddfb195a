#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/latency.h"
#include "util/random.h"
#include "util/ratio.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/threads.h"

namespace nors {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRespectsBounds) {
  util::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, BernoulliExtremes) {
  util::Rng r(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  util::Rng r(11);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ForkIndependentStreams) {
  util::Rng a(5);
  util::Rng f1 = a.fork(1);
  util::Rng f2 = a.fork(2);
  EXPECT_NE(f1.next(), f2.next());
}

TEST(Epsilon, PaperValue) {
  const auto e = util::Epsilon::paper_value(4);
  EXPECT_EQ(e.num(), 1);
  EXPECT_EQ(e.den(), 48 * 256);
}

TEST(Epsilon, Normalization) {
  const util::Epsilon e(2, 4);
  EXPECT_EQ(e.num(), 1);
  EXPECT_EQ(e.den(), 2);
}

TEST(Epsilon, RejectsInvalid) {
  EXPECT_THROW(util::Epsilon(0, 5), std::logic_error);
  EXPECT_THROW(util::Epsilon(6, 5), std::logic_error);
  EXPECT_THROW(util::Epsilon(-1, 5), std::logic_error);
}

TEST(Epsilon, LessThanDivMatchesRationalArithmetic) {
  // a < c/(1+eps)^p with eps = 1/4, (1+eps) = 5/4.
  const util::Epsilon e(1, 4);
  // c = 125, p = 3: c/(5/4)^3 = 125 * 64/125 = 64.
  EXPECT_TRUE(e.less_than_div(63, 125, 3));
  EXPECT_FALSE(e.less_than_div(64, 125, 3));  // equality is not <
  EXPECT_FALSE(e.less_than_div(65, 125, 3));
}

TEST(Epsilon, LeqMulMatchesRationalArithmetic) {
  const util::Epsilon e(1, 4);
  // (1+eps)^2 * 16 = 25.
  EXPECT_TRUE(e.leq_mul(25, 16, 2));
  EXPECT_FALSE(e.leq_mul(26, 16, 2));
}

TEST(Epsilon, TinyPaperEpsilonStillExact) {
  const auto e = util::Epsilon::paper_value(6);  // 1/(48*1296)
  const std::int64_t c = 1'000'000'000;          // ~distance scale
  // c/(1+eps) is just below c: c-1 < c/(1+eps) iff (c-1)(1+eps) < c.
  EXPECT_TRUE(e.less_than_div(c - 100'000, c, 1));
  EXPECT_FALSE(e.less_than_div(c, c, 1));
}

TEST(Epsilon, MulPowCeil) {
  const util::Epsilon e(1, 2);
  EXPECT_EQ(e.mul_pow_ceil(8, 1), 12);   // 8 * 3/2
  EXPECT_EQ(e.mul_pow_ceil(8, 2), 18);   // 8 * 9/4
  EXPECT_EQ(e.mul_pow_ceil(7, 1), 11);   // ceil(10.5)
}

TEST(Stats, AccumulatorBasics) {
  util::Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_NEAR(acc.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, Percentile) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(util::percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(util::percentile(v, 0.5), 3.0);
}

TEST(Simd, LowerBoundMatchesStdOnExhaustiveSmallRuns) {
  // Every length 0..20, every key position including below-min/above-max,
  // with duplicates: the vector path, the scalar tail and the branchless
  // binary narrowing must all agree with std::lower_bound exactly.
  for (std::int32_t len = 0; len <= 20; ++len) {
    std::vector<std::int32_t> keys;
    for (std::int32_t i = 0; i < len; ++i) {
      keys.push_back(3 * i + (i % 2));  // gaps and an uneven stride
    }
    if (len >= 4) keys[2] = keys[1];  // duplicate run
    std::sort(keys.begin(), keys.end());
    for (std::int32_t key = -2; key <= 3 * len + 2; ++key) {
      const auto expect = static_cast<std::int32_t>(
          std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
      EXPECT_EQ(util::simd::lower_bound_i32(keys.data(), len, key), expect)
          << "len=" << len << " key=" << key;
      EXPECT_EQ(util::simd::count_less_i32(keys.data(), len, key), expect);
    }
  }
}

TEST(Simd, LowerBoundMatchesStdOnRandomLongRuns) {
  // Long runs cross the binary-narrowing threshold (>64) and exercise the
  // negative range and INT32 extremes.
  util::Rng rng(606060);
  for (int trial = 0; trial < 50; ++trial) {
    const auto len = static_cast<std::int32_t>(1 + rng.uniform(500));
    std::vector<std::int32_t> keys;
    keys.reserve(static_cast<std::size_t>(len));
    for (std::int32_t i = 0; i < len; ++i) {
      keys.push_back(static_cast<std::int32_t>(rng.next()));
    }
    std::sort(keys.begin(), keys.end());
    for (int probe = 0; probe < 40; ++probe) {
      std::int32_t key;
      if (probe == 0) {
        key = std::numeric_limits<std::int32_t>::min();
      } else if (probe == 1) {
        key = std::numeric_limits<std::int32_t>::max();
      } else if (probe % 2 == 0) {
        key = keys[rng.uniform(static_cast<std::uint64_t>(len))];
      } else {
        key = static_cast<std::int32_t>(rng.next());
      }
      const auto expect = static_cast<std::int32_t>(
          std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
      EXPECT_EQ(util::simd::lower_bound_i32(keys.data(), len, key), expect);
    }
  }
}

TEST(Latency, HistogramQuantilesBracketTheSamples) {
  util::LatencyHistogram h;
  // 1000 samples at 1µs, 10 at 100µs: p50 must sit near 1µs, p999 near
  // the tail bucket; log2 buckets guarantee only ≪2× resolution.
  for (int i = 0; i < 1000; ++i) h.record_ns(1000);
  for (int i = 0; i < 10; ++i) h.record_ns(100000);
  const double p50 = h.quantile_us(0.5);
  EXPECT_GE(p50, 0.5);
  EXPECT_LE(p50, 2.0);
  const double p999 = h.quantile_us(0.999);
  EXPECT_GE(p999, 64.0);
  EXPECT_LE(p999, 256.0);
  EXPECT_EQ(util::LatencyHistogram().quantile_us(0.5), 0.0);
}

TEST(Table, RendersAlignedCells) {
  util::TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(ParallelFor, ClaimsEveryIndexOnce) {
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<bool> bad_worker{false};
  util::parallel_for(4, kCount, [&](int t, std::size_t i) {
    if (t < 0 || t >= 4) bad_worker = true;
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_FALSE(bad_worker);
  for (std::size_t i = 0; i < kCount; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, RethrowsWorkerZerosExceptionAfterAllFinish) {
  // Every worker throws on the first index it claims, so all four throw;
  // the rethrown one must be worker 0's, and only once nobody still runs.
  std::atomic<int> running{0};
  try {
    util::parallel_for(4, 1000, [&](int t, std::size_t) {
      running.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      running.fetch_sub(1);
      throw std::runtime_error(std::to_string(t));
    });
    FAIL() << "parallel_for swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
  EXPECT_EQ(running.load(), 0);
}

}  // namespace
}  // namespace nors
