#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/generators.h"
#include "serve/frozen.h"
#include "serve/table_cache.h"

// Direct tests of the two-way set-associative TableCache; the serving
// tests cover it only indirectly, through batch equivalence. The batch
// engine calls the probe()/insert() halves separately, so aliasing and
// eviction bugs would corrupt routes through a *stale index*, which the
// engine trusts without re-searching; these tests pin the contract.

namespace nors {
namespace {

using graph::Vertex;

serve::FrozenScheme make_frozen(int n, int k, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto g = graph::connected_gnm(
      n, 3LL * n, graph::WeightSpec::uniform(1, 16), rng);
  core::SchemeParams p;
  p.k = k;
  p.seed = seed + 1;
  return serve::FrozenScheme::freeze(core::RoutingScheme::build(g, p));
}

TEST(TableCache, LookupAnswersMatchDirectSearchForEveryPair) {
  // Tiny cache (2 sets = 4 entries) over every (vertex, tree) pair: heavy
  // set aliasing, constant eviction — every answer must still equal the
  // uncached slab search, including the "not a member" nullptr case.
  const auto fs = make_frozen(60, 2, 3100);
  serve::TableCache cache(fs, 4);
  std::int64_t hits = 0, misses = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (Vertex x = 0; x < fs.n(); ++x) {
      for (std::int32_t t = 0; t < fs.num_trees(); ++t) {
        const auto* got = cache.lookup(x, t, hits, misses);
        const auto* expect = fs.table_slot(x, t);
        EXPECT_EQ(got, expect) << "x=" << x << " tree=" << t;
      }
    }
  }
  EXPECT_EQ(hits + misses,
            2ll * fs.n() * fs.num_trees());
}

TEST(TableCache, ProbeInsertRoundTripAndEvictionOrder) {
  const auto fs = make_frozen(40, 2, 3200);
  serve::TableCache cache(fs, 64);
  std::int32_t idx = -7;

  // Cold cache: nothing probes as present.
  EXPECT_FALSE(cache.probe(5, 0, idx));

  // insert() publishes; probe() returns the exact index, including the -1
  // "not a member" sentinel (a hit, not a miss!).
  cache.insert(5, 0, 123);
  EXPECT_TRUE(cache.probe(5, 0, idx));
  EXPECT_EQ(idx, 123);
  cache.insert(6, 0, -1);
  EXPECT_TRUE(cache.probe(6, 0, idx));
  EXPECT_EQ(idx, -1);

  // A re-insert overwrites rather than duplicating.
  cache.insert(5, 0, 456);
  EXPECT_TRUE(cache.probe(5, 0, idx));
  EXPECT_EQ(idx, 456);
}

TEST(TableCache, TwoWaySetKeepsBothRecentKeysAndEvictsTheLru) {
  // A direct-mapped cache would thrash on two aliasing keys; two ways must
  // hold both. With a single set (entries=2) *every* key aliases, so the
  // set behavior is fully observable: after inserting A, B, both hit;
  // after C, the LRU (A, not refreshed) is gone, B and C remain.
  const auto fs = make_frozen(40, 2, 3300);
  serve::TableCache cache(fs, 2);
  std::int32_t idx = 0;
  cache.insert(1, 0, 10);  // A
  cache.insert(2, 0, 20);  // B — A demoted to way 1
  EXPECT_TRUE(cache.probe(1, 0, idx));
  EXPECT_EQ(idx, 10);  // way-1 hit promotes A back to MRU
  EXPECT_TRUE(cache.probe(2, 0, idx));
  EXPECT_EQ(idx, 20);
  cache.insert(3, 0, 30);  // C evicts the LRU
  EXPECT_TRUE(cache.probe(3, 0, idx));
  EXPECT_TRUE(cache.probe(2, 0, idx));  // B was MRU-adjacent, survives
  EXPECT_FALSE(cache.probe(1, 0, idx));  // A is gone
}

TEST(TableCache, ZipfianStreamHitRateAccountingIsExact) {
  // Seeded Zipf-ish stream (rank ~ floor(exp(u))) over (vertex, tree)
  // pairs: hits + misses must equal the stream length, the re-reference
  // heavy head must push the hit rate well past a uniform stream's, and
  // every answer must stay equal to the direct search.
  const auto fs = make_frozen(80, 3, 3400);
  serve::TableCache cache(fs, 256);
  util::Rng rng(3401);
  const std::int64_t kStream = 20000;
  std::int64_t hits = 0, misses = 0;
  // Skewed rank on both axes: most draws land on a few hot (vertex, tree)
  // pairs, like real traffic concentrating on top-level trees.
  auto zipfish = [&](int limit) {
    const double u = static_cast<double>(rng.uniform(1000000)) / 1000000.0;
    return static_cast<std::int32_t>(std::min<double>(
        std::floor(std::exp(u * std::log(limit))) - 1, limit - 1));
  };
  for (std::int64_t i = 0; i < kStream; ++i) {
    const auto rank = static_cast<Vertex>(zipfish(fs.n()));
    const auto tree = zipfish(fs.num_trees());
    const auto* got = cache.lookup(rank, tree, hits, misses);
    EXPECT_EQ(got, fs.table_slot(rank, tree));
  }
  EXPECT_EQ(hits + misses, kStream);
  EXPECT_GT(hits, kStream / 4) << "skewed stream should re-reference";
  EXPECT_GT(misses, 0) << "tail must overflow a 256-entry cache";
}

}  // namespace
}  // namespace nors
