#include <gtest/gtest.h>

#include <cmath>

#include "baselines/lp_baseline.h"
#include "baselines/sdp15_sketches.h"
#include "baselines/spanner.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "graph/shortest_paths.h"
#include "primitives/bfs_tree.h"

namespace nors {
namespace {

using graph::Dist;
using graph::Vertex;

class SpannerTest : public ::testing::TestWithParam<int> {};

TEST_P(SpannerTest, StretchAndSizeBounds) {
  const int k = GetParam();
  util::Rng rng(300 + static_cast<std::uint64_t>(k));
  const auto g =
      graph::connected_gnm(120, 1200, graph::WeightSpec::uniform(1, 40), rng);
  util::Rng srng(7);
  const auto edges = baselines::baswana_sen_spanner(g, k, srng);
  const auto sp = baselines::spanner_graph(g.n(), edges);
  ASSERT_TRUE(graph::is_connected(sp));
  // Stretch ≤ 2k-1 on every edge of g (implies all pairs).
  for (Vertex u = 0; u < g.n(); u += 3) {
    const auto dg = graph::dijkstra(g, u);
    const auto ds = graph::dijkstra(sp, u);
    for (Vertex v = 0; v < g.n(); v += 5) {
      if (graph::is_inf(dg.dist[static_cast<std::size_t>(v)])) continue;
      EXPECT_GE(ds.dist[static_cast<std::size_t>(v)],
                dg.dist[static_cast<std::size_t>(v)]);
      EXPECT_LE(ds.dist[static_cast<std::size_t>(v)],
                (2 * k - 1) * dg.dist[static_cast<std::size_t>(v)])
          << "u=" << u << " v=" << v;
    }
  }
  // Size: expected O(k n^{1+1/k}); allow a loose constant.
  const double bound =
      8.0 * k * std::pow(g.n(), 1.0 + 1.0 / k) + 4.0 * g.n();
  EXPECT_LE(static_cast<double>(edges.size()), bound);
}

INSTANTIATE_TEST_SUITE_P(Ks, SpannerTest, ::testing::Values(1, 2, 3, 4));

TEST(Spanner, KOneKeepsDistancesExactly) {
  util::Rng rng(311);
  const auto g = graph::connected_gnm(60, 400, graph::WeightSpec::uniform(1, 20), rng);
  util::Rng srng(3);
  const auto edges = baselines::baswana_sen_spanner(g, 1, srng);
  const auto sp = baselines::spanner_graph(g.n(), edges);
  for (Vertex u = 0; u < g.n(); u += 7) {
    const auto dg = graph::dijkstra(g, u);
    const auto ds = graph::dijkstra(sp, u);
    for (Vertex v = 0; v < g.n(); ++v) {
      EXPECT_EQ(ds.dist[static_cast<std::size_t>(v)],
                dg.dist[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(LpBaseline, RoutesEverywhere) {
  util::Rng rng(321);
  const auto g =
      graph::connected_gnm(150, 450, graph::WeightSpec::uniform(1, 12), rng);
  const auto s = baselines::LpBaselineScheme::build(
      g, {3, 5, 1.0}, primitives::centralized_bfs_tree(g, 0));
  double worst = 0;
  for (Vertex u = 0; u < g.n(); u += 6) {
    const auto sp = graph::dijkstra(g, u);
    for (Vertex v = 2; v < g.n(); v += 9) {
      if (u == v) continue;
      const auto r = s.route(u, v);
      ASSERT_TRUE(r.ok) << "u=" << u << " v=" << v;
      const double stretch = static_cast<double>(r.length) /
                             static_cast<double>(
                                 sp.dist[static_cast<std::size_t>(v)]);
      EXPECT_GE(stretch, 1.0 - 1e-12);
      worst = std::max(worst, stretch);
    }
  }
  // LP13a-class guarantee is O(k·log k); sanity-cap the observed stretch.
  EXPECT_LE(worst, 40.0);
}

TEST(LpBaseline, TablesAreOmegaSqrtN) {
  util::Rng rng(322);
  const auto g =
      graph::connected_gnm(400, 1200, graph::WeightSpec::uniform(1, 9), rng);
  const auto s = baselines::LpBaselineScheme::build(
      g, {3, 11, 1.0}, primitives::centralized_bfs_tree(g, 0));
  // The defining weakness: every vertex stores the whole skeleton spanner.
  EXPECT_GE(s.table_words(0), s.spanner_edges());
  EXPECT_GE(s.skeleton_size(), static_cast<std::int64_t>(
                                   std::sqrt(400.0)));  // ≈ √n·ln n sample
  EXPECT_GT(s.ledger().total_rounds(), 0);
}

TEST(Spanner, SizeShrinksWithK) {
  util::Rng rng(331);
  const auto g = graph::connected_gnm(200, 4000, graph::WeightSpec::uniform(1, 9), rng);
  std::size_t prev = 0;
  for (int k : {1, 2, 4}) {
    util::Rng srng(5);
    const auto edges = baselines::baswana_sen_spanner(g, k, srng);
    if (prev != 0) {
      // Larger k prunes more aggressively (allow slack for randomness).
      EXPECT_LT(edges.size(), prev + prev / 4) << "k=" << k;
    }
    prev = edges.size();
  }
}

TEST(Spanner, WorksOnTreesWithoutAddingEdges) {
  util::Rng rng(332);
  const auto g = graph::random_tree(80, graph::WeightSpec::uniform(1, 9), rng);
  util::Rng srng(6);
  const auto edges = baselines::baswana_sen_spanner(g, 3, srng);
  // A tree is its own unique spanner: all n-1 edges survive, none invented.
  EXPECT_EQ(static_cast<std::int64_t>(edges.size()), g.m());
}

TEST(LpBaseline, LabelsStaySmall) {
  util::Rng rng(323);
  const auto g = graph::connected_gnm(200, 600, graph::WeightSpec::uniform(1, 9), rng);
  const auto s = baselines::LpBaselineScheme::build(
      g, {3, 13, 1.0}, primitives::centralized_bfs_tree(g, 0));
  for (Vertex v = 0; v < g.n(); v += 11) {
    EXPECT_LE(s.label_words(v), 2 + 1 + 2 * 10);  // O(log n) words
  }
}

TEST(Sdp15, ExactTwoKMinusOneStretch) {
  util::Rng rng(341);
  const auto g =
      graph::connected_gnm(130, 330, graph::WeightSpec::uniform(1, 20), rng);
  const int k = 3;
  const auto s = baselines::Sdp15Sketches::build(g, {k, 7, 1});
  for (Vertex u = 0; u < g.n(); u += 5) {
    const auto sp = graph::dijkstra(g, u);
    for (Vertex v = 2; v < g.n(); v += 7) {
      if (u == v) continue;
      const auto q = s.query(u, v);
      const Dist d = sp.dist[static_cast<std::size_t>(v)];
      EXPECT_GE(q.estimate, d);
      EXPECT_LE(q.estimate, (2 * k - 1) * d);
      EXPECT_LE(q.iterations, k);
    }
  }
  EXPECT_GT(s.ledger().simulated_rounds(), 0);
  EXPECT_EQ(s.ledger().accounted_rounds(), 0);  // everything ran for real
}

TEST(Sdp15, RoundsBlowUpWithShortestPathDiameter) {
  // The weakness Theorem 6 removes: on an S >> D graph (heavy star hub +
  // unit path), the exact explorations walk the whole path even though the
  // hop diameter is 2.
  const int n = 300;
  graph::WeightedGraph g(n);
  for (Vertex v = 0; v + 2 < n; ++v) g.add_edge(v, v + 1, 1);
  for (Vertex v = 0; v + 1 < n; ++v) {
    g.add_edge(v, static_cast<Vertex>(n - 1), 4LL * n);
  }
  g.freeze();
  const auto s = baselines::Sdp15Sketches::build(g, {2, 9, 1});
  // Exploration depth ≈ S ≈ n: rounds scale with n, not with D = 2.
  EXPECT_GT(s.ledger().simulated_rounds(), n / 2);
}

}  // namespace
}  // namespace nors
