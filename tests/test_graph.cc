#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/properties.h"
#include "graph/shortest_paths.h"

namespace nors {
namespace {

using graph::Dist;
using graph::Vertex;
using graph::WeightedGraph;

TEST(Graph, AddEdgeSetsPortsAndReverse) {
  WeightedGraph g(3);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 7);
  g.freeze();
  EXPECT_EQ(g.m(), 2);
  EXPECT_EQ(g.degree(1), 2);
  const auto& e01 = g.edge(0, 0);
  EXPECT_EQ(e01.to, 1);
  EXPECT_EQ(e01.w, 5);
  // The reverse port at vertex 1 must point back to 0.
  EXPECT_EQ(g.edge(1, e01.rev).to, 0);
  EXPECT_EQ(g.port_to(1, 2), g.edge(2, g.port_to(2, 1)).rev);
}

TEST(Graph, RejectsInvalidEdges) {
  WeightedGraph g(3);
  EXPECT_THROW(g.add_edge(0, 0, 1), std::logic_error);  // self loop
  EXPECT_THROW(g.add_edge(0, 1, 0), std::logic_error);  // zero weight
  EXPECT_THROW(g.add_edge(0, 5, 1), std::logic_error);  // out of range
}

TEST(Generators, PathAndCycle) {
  util::Rng rng(1);
  const auto p = graph::path(10, graph::WeightSpec::unit(), rng);
  EXPECT_EQ(p.n(), 10);
  EXPECT_EQ(p.m(), 9);
  EXPECT_TRUE(graph::is_connected(p));
  EXPECT_EQ(graph::hop_diameter(p), 9);

  const auto c = graph::cycle(10, graph::WeightSpec::unit(), rng);
  EXPECT_EQ(c.m(), 10);
  EXPECT_EQ(graph::hop_diameter(c), 5);
}

TEST(Generators, GridTorusHypercube) {
  util::Rng rng(2);
  const auto g = graph::grid(4, 5, graph::WeightSpec::unit(), rng);
  EXPECT_EQ(g.n(), 20);
  EXPECT_EQ(g.m(), 4 * 4 + 5 * 3);
  EXPECT_EQ(graph::hop_diameter(g), 3 + 4);

  const auto t = graph::torus(4, 4, graph::WeightSpec::unit(), rng);
  EXPECT_EQ(t.n(), 16);
  for (Vertex v = 0; v < t.n(); ++v) EXPECT_EQ(t.degree(v), 4);

  const auto h = graph::hypercube(4, graph::WeightSpec::unit(), rng);
  EXPECT_EQ(h.n(), 16);
  EXPECT_EQ(graph::hop_diameter(h), 4);
}

TEST(Generators, ConnectedGnmIsConnectedWithRequestedSize) {
  util::Rng rng(3);
  const auto g =
      graph::connected_gnm(200, 400, graph::WeightSpec::uniform(1, 50), rng);
  EXPECT_EQ(g.n(), 200);
  EXPECT_EQ(g.m(), 199 + 400);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_GE(g.max_weight(), 1);
  EXPECT_LE(g.max_weight(), 50);
}

TEST(Generators, RandomTreeIsTree) {
  util::Rng rng(4);
  const auto g = graph::random_tree(64, graph::WeightSpec::uniform(1, 9), rng);
  EXPECT_EQ(g.m(), 63);
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(Generators, GeometricConnected) {
  util::Rng rng(5);
  const auto g = graph::random_geometric(100, 0.08, 1000, rng);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_EQ(g.n(), 100);
}

TEST(Generators, BarabasiAlbertDegrees) {
  util::Rng rng(6);
  const auto g =
      graph::barabasi_albert(150, 3, graph::WeightSpec::unit(), rng);
  EXPECT_TRUE(graph::is_connected(g));
  for (Vertex v = 4; v < g.n(); ++v) EXPECT_GE(g.degree(v), 3);
}

TEST(Generators, ClusteredConnected) {
  util::Rng rng(7);
  const auto g = graph::clustered(120, 6, 0.3, 100,
                                  graph::WeightSpec::uniform(1, 10), rng);
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(Generators, LollipopHighDiameter) {
  util::Rng rng(8);
  const auto g = graph::lollipop(80, 20, graph::WeightSpec::unit(), rng);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_GE(graph::hop_diameter(g), 60);
}

TEST(Generators, FatTreeShape) {
  util::Rng rng(9);
  const auto g = graph::fat_tree(4, 3, 2, 2, graph::WeightSpec::unit(), rng);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_EQ(g.n(), 2 + 4 + 12 + 24);
}

TEST(ShortestPaths, DijkstraOnKnownGraph) {
  WeightedGraph g(5);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 2);
  g.add_edge(0, 2, 5);
  g.add_edge(2, 3, 1);
  g.add_edge(3, 4, 1);
  g.freeze();
  const auto r = graph::dijkstra(g, 0);
  EXPECT_EQ(r.dist[2], 4);
  EXPECT_EQ(r.dist[4], 6);
  EXPECT_EQ(r.hops[4], 4);
  // Parent chain from 4 reaches 0.
  Vertex x = 4;
  int steps = 0;
  while (x != 0) {
    x = r.parent[static_cast<std::size_t>(x)];
    ASSERT_NE(x, graph::kNoVertex);
    ++steps;
  }
  EXPECT_EQ(steps, 4);
}

TEST(ShortestPaths, MultiSourceNearest) {
  util::Rng rng(10);
  const auto g = graph::connected_gnm(80, 160, graph::WeightSpec::uniform(1, 20), rng);
  const std::vector<Vertex> sources{3, 40, 77};
  const auto r = graph::multi_source_dijkstra(g, sources);
  for (Vertex v = 0; v < g.n(); ++v) {
    Dist best = graph::kDistInf;
    for (Vertex s : sources) {
      best = std::min(best, graph::pair_distance(g, s, v));
    }
    EXPECT_EQ(r.dist[static_cast<std::size_t>(v)], best) << "v=" << v;
  }
}

TEST(ShortestPaths, HopBoundedMatchesDefinition) {
  // Path with a heavy shortcut: 0-1-2-3 (w=1 each) plus direct 0-3 (w=10).
  WeightedGraph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 1);
  g.add_edge(0, 3, 10);
  g.freeze();
  const auto r1 = graph::hop_bounded_sssp(g, 0, 1);
  EXPECT_EQ(r1.dist[3], 10);  // one hop: must take the heavy edge
  const auto r3 = graph::hop_bounded_sssp(g, 0, 3);
  EXPECT_EQ(r3.dist[3], 3);
  const auto r0 = graph::hop_bounded_sssp(g, 0, 0);
  EXPECT_TRUE(graph::is_inf(r0.dist[3]));
}

TEST(ShortestPaths, HopBoundedConvergesEarly) {
  util::Rng rng(11);
  const auto g = graph::connected_gnm(60, 150, graph::WeightSpec::unit(), rng);
  const auto bounded = graph::hop_bounded_sssp(g, 0, 100000);
  const auto exact = graph::dijkstra(g, 0);
  for (Vertex v = 0; v < g.n(); ++v) {
    EXPECT_EQ(bounded.dist[static_cast<std::size_t>(v)],
              exact.dist[static_cast<std::size_t>(v)]);
  }
  EXPECT_LT(bounded.iterations_used, 60);
}

TEST(Properties, ComponentsAndDiameters) {
  WeightedGraph g(6);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(3, 4, 1);
  g.freeze();
  const auto c = graph::connected_components(g);
  EXPECT_EQ(c.count, 3);  // {0,1,2}, {3,4}, {5}
  EXPECT_FALSE(graph::is_connected(g));

  util::Rng rng(12);
  const auto p = graph::path(30, graph::WeightSpec::uniform(2, 2), rng);
  EXPECT_EQ(graph::hop_diameter(p), 29);
  EXPECT_EQ(graph::weighted_diameter(p), 58);
  EXPECT_EQ(graph::shortest_path_hop_diameter(p), 29);
}

TEST(Properties, ShortestPathDiameterCanExceedHopDiameter) {
  // Cycle with one heavy edge: hop diameter is small, but the shortest
  // weighted path between the heavy edge's endpoints goes the long way.
  WeightedGraph g(8);
  for (Vertex v = 0; v + 1 < 8; ++v) g.add_edge(v, v + 1, 1);
  g.add_edge(7, 0, 100);
  g.freeze();
  EXPECT_EQ(graph::hop_diameter(g), 4);
  EXPECT_EQ(graph::shortest_path_hop_diameter(g), 7);
}

TEST(Generators, DeterministicUnderSeed) {
  // Same seed ⇒ identical graph (edge sets and weights); different seed ⇒
  // (almost surely) different.
  auto build = [](std::uint64_t seed) {
    util::Rng rng(seed);
    return graph::connected_gnm(60, 150, graph::WeightSpec::uniform(1, 30),
                                rng);
  };
  const auto a = build(5), b = build(5), c = build(6);
  ASSERT_EQ(a.m(), b.m());
  bool all_equal_ab = true, all_equal_ac = (a.m() == c.m());
  for (Vertex v = 0; v < a.n(); ++v) {
    if (a.degree(v) != b.degree(v)) all_equal_ab = false;
    for (std::int32_t p = 0; p < std::min(a.degree(v), b.degree(v)); ++p) {
      if (a.edge(v, p).to != b.edge(v, p).to ||
          a.edge(v, p).w != b.edge(v, p).w) {
        all_equal_ab = false;
      }
    }
    if (all_equal_ac && a.degree(v) != c.degree(v)) all_equal_ac = false;
  }
  EXPECT_TRUE(all_equal_ab);
  EXPECT_FALSE(all_equal_ac);
}

/// FNV-1a over n and every (degree, (to, w)...) adjacency row in port order.
std::uint64_t graph_digest(const WeightedGraph& g) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(g.n()));
  for (Vertex v = 0; v < g.n(); ++v) {
    mix(g.neighbors(v).size());
    for (const auto& e : g.neighbors(v)) {
      mix(static_cast<std::uint64_t>(e.to));
      mix(static_cast<std::uint64_t>(e.w));
    }
  }
  return h;
}

TEST(Generators, GnmGraphsArePinnedForFixedSeeds) {
  // Digests and the next RNG draw recorded from the std::set-deduplicated
  // generators: the flat edge set must reproduce the same graphs from the
  // same draws (every benchmark and bench input is a connected_gnm graph).
  struct Case {
    int n;
    std::int64_t extra;
    std::uint64_t seed;
    std::int64_t m;
    std::uint64_t digest;
    std::uint64_t next;
  };
  for (const Case& c :
       {Case{200, 600, 1, 799, 0x8d139f2f5800da4full, 5786883287896187726ull},
        Case{2048, 6144, 42, 8191, 0x040ddd5778afb1a3ull,
             14936577536525789289ull},
        Case{1 << 15, 3LL << 15, 7, 131071, 0xf9f34e48f7798de2ull,
             5219409726973608356ull}}) {
    util::Rng rng(c.seed);
    const auto g = graph::connected_gnm(
        c.n, c.extra, graph::WeightSpec::uniform(1, 32), rng);
    EXPECT_EQ(g.m(), c.m) << "n=" << c.n;
    EXPECT_EQ(graph_digest(g), c.digest) << "n=" << c.n;
    EXPECT_EQ(rng.next(), c.next) << "n=" << c.n;
  }
  util::Rng rng(9);
  const auto er =
      graph::erdos_renyi_gnm(300, 900, graph::WeightSpec::uniform(1, 16), rng);
  EXPECT_EQ(graph_digest(er), 0x36c68a6a7b15a4b9ull);
}

TEST(Generators, WeightSpecDrawsWithinRange) {
  util::Rng rng(77);
  const auto ws = graph::WeightSpec::uniform(5, 9);
  for (int i = 0; i < 500; ++i) {
    const auto w = ws.draw(rng);
    EXPECT_GE(w, 5);
    EXPECT_LE(w, 9);
  }
  EXPECT_EQ(graph::WeightSpec::unit().draw(rng), 1);
}

TEST(Graph, FreezeIsOneShotAndGatesAccess) {
  WeightedGraph g(3);
  g.add_edge(0, 1, 2);
  // Frozen-phase accessors are unavailable during the builder phase...
  EXPECT_FALSE(g.frozen());
  EXPECT_THROW(g.neighbors(0), std::logic_error);
  EXPECT_THROW(g.edge(0, 0), std::logic_error);
  EXPECT_THROW(g.port_to(0, 1), std::logic_error);
  // ...but degree and counts are.
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.m(), 1);
  g.freeze();
  EXPECT_TRUE(g.frozen());
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.degree(0), 1);
  // The builder phase is over.
  EXPECT_THROW(g.add_edge(1, 2, 1), std::logic_error);
  EXPECT_THROW(g.freeze(), std::logic_error);
}

TEST(Graph, CsrAdjacencyIsContiguous) {
  util::Rng rng(31);
  const auto g =
      graph::connected_gnm(64, 200, graph::WeightSpec::uniform(1, 9), rng);
  // Spans of consecutive vertices abut: the CSR invariant the CONGEST
  // engine's link indexing relies on.
  for (Vertex v = 0; v + 1 < g.n(); ++v) {
    EXPECT_EQ(g.neighbors(v).data() + g.neighbors(v).size(),
              g.neighbors(v + 1).data());
  }
}

TEST(Graph, PortToMatchesLinearScan) {
  util::Rng rng(32);
  const auto g =
      graph::connected_gnm(80, 400, graph::WeightSpec::uniform(1, 9), rng);
  for (Vertex u = 0; u < g.n(); ++u) {
    std::vector<std::int32_t> expected(static_cast<std::size_t>(g.n()),
                                       graph::kNoPort);
    for (std::int32_t p = 0; p < g.degree(u); ++p) {
      const auto to = static_cast<std::size_t>(g.edge(u, p).to);
      if (expected[to] == graph::kNoPort) expected[to] = p;
    }
    for (Vertex v = 0; v < g.n(); ++v) {
      EXPECT_EQ(g.port_to(u, v), expected[static_cast<std::size_t>(v)])
          << "u=" << u << " v=" << v;
    }
  }
}

TEST(TreeDistance, WalksThroughLca) {
  // Star with center 0: parent of all is 0.
  std::vector<Vertex> parent{graph::kNoVertex, 0, 0, 1};
  std::vector<Dist> dist{0, 5, 7, 11};
  EXPECT_EQ(graph::tree_distance(parent, dist, 1, 2), 12);
  EXPECT_EQ(graph::tree_distance(parent, dist, 3, 1), 6);
  EXPECT_EQ(graph::tree_distance(parent, dist, 3, 2), 18);
  EXPECT_EQ(graph::tree_distance(parent, dist, 0, 3), 11);
}

}  // namespace
}  // namespace nors
