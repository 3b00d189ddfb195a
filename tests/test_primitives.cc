#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "graph/properties.h"
#include "graph/shortest_paths.h"
#include "primitives/cluster_bf.h"
#include "primitives/hierarchy.h"
#include "primitives/set_bf.h"
#include "primitives/source_detection.h"

namespace nors {
namespace {

using graph::Dist;
using graph::Vertex;

TEST(Hierarchy, ShapeAndNesting) {
  util::Rng rng(31);
  const auto h = primitives::Hierarchy::sample(500, 4, rng);
  EXPECT_EQ(h.k(), 4);
  EXPECT_EQ(h.set_at(0).size(), 500u);
  EXPECT_TRUE(h.set_at(4).empty());
  EXPECT_FALSE(h.set_at(3).empty());
  // Nesting: A_3 ⊆ A_2 ⊆ A_1 ⊆ A_0, and sizes shrink.
  for (int i = 1; i < 4; ++i) {
    EXPECT_LE(h.set_at(i).size(), h.set_at(i - 1).size());
    for (Vertex v : h.set_at(i)) EXPECT_TRUE(h.in_set(v, i - 1));
  }
  // exactly_at partitions A_0.
  std::size_t total = 0;
  for (int i = 0; i < 4; ++i) total += h.exactly_at(i).size();
  EXPECT_EQ(total, 500u);
}

TEST(Hierarchy, ExpectedSizes) {
  // E|A_1| = n^{1-1/k}; check within a loose factor.
  util::Rng rng(32);
  const int n = 2000, k = 2;
  const auto h = primitives::Hierarchy::sample(n, k, rng);
  const double expected = std::pow(n, 0.5);
  EXPECT_GT(h.set_at(1).size(), expected / 3);
  EXPECT_LT(h.set_at(1).size(), expected * 3);
}

TEST(Hierarchy, KOneHasOnlyLevelZero) {
  util::Rng rng(33);
  const auto h = primitives::Hierarchy::sample(50, 1, rng);
  EXPECT_EQ(h.set_at(0).size(), 50u);
  EXPECT_TRUE(h.set_at(1).empty());
}

TEST(SetBf, MatchesMultiSourceDijkstra) {
  util::Rng rng(34);
  const auto g =
      graph::connected_gnm(120, 260, graph::WeightSpec::uniform(1, 30), rng);
  const std::vector<Vertex> set{5, 60, 110};
  const auto bf = primitives::distributed_set_bellman_ford(g, set);
  const auto dj = graph::multi_source_dijkstra(g, set);
  for (Vertex v = 0; v < g.n(); ++v) {
    EXPECT_EQ(bf.dist[static_cast<std::size_t>(v)],
              dj.dist[static_cast<std::size_t>(v)])
        << "v=" << v;
  }
  // Parents are real edges pointing strictly closer to the set.
  for (Vertex v = 0; v < g.n(); ++v) {
    if (bf.dist[static_cast<std::size_t>(v)] == 0) continue;
    const auto port = bf.parent_port[static_cast<std::size_t>(v)];
    ASSERT_NE(port, graph::kNoPort);
    const auto& e = g.edge(v, port);
    EXPECT_EQ(bf.dist[static_cast<std::size_t>(v)],
              bf.dist[static_cast<std::size_t>(e.to)] + e.w);
  }
}

TEST(SetBf, RoundsTrackDistanceNotSize) {
  util::Rng rng(35);
  // Dense graph, sources everywhere: few rounds.
  const auto g = graph::connected_gnm(400, 3000, graph::WeightSpec::unit(), rng);
  std::vector<Vertex> many;
  for (Vertex v = 0; v < g.n(); v += 4) many.push_back(v);
  const auto r = primitives::distributed_set_bellman_ford(g, many);
  EXPECT_LT(r.rounds, 60);
}

TEST(ClusterBf, ComputesExactClustersUnderLimit) {
  util::Rng rng(36);
  const auto g =
      graph::connected_gnm(90, 200, graph::WeightSpec::uniform(1, 12), rng);
  // Limit: distance to a sampled set (mimicking d(v, A_{i+1})).
  const std::vector<Vertex> limit_set{7, 33, 71};
  const auto lim = graph::multi_source_dijkstra(g, limit_set);
  const std::vector<Vertex> roots{0, 20, 50, 88};
  const auto admit = [&](Vertex v, Vertex, Dist b) {
    return b < lim.dist[static_cast<std::size_t>(v)];
  };
  const auto res = primitives::distributed_cluster_bellman_ford(g, roots, admit);
  // Entries name roots by dense slot; scan a vertex's CSR window for one.
  const auto entry_of = [&](Vertex v,
                            int slot) -> const primitives::ClusterEntry* {
    for (std::size_t e = res.off[static_cast<std::size_t>(v)];
         e < res.off[static_cast<std::size_t>(v) + 1]; ++e) {
      if (res.slot[e] == slot) return &res.rec[e];
    }
    return nullptr;
  };

  // Ground truth: v ∈ C(u) iff d(u,v) < lim(v), with exact distance; the
  // cluster-BF tree must find exactly those members at exact distances
  // (every prefix vertex of the shortest path is itself admitted, so the
  // exploration cannot be blocked).
  for (std::size_t slot = 0; slot < roots.size(); ++slot) {
    const Vertex u = res.roots[slot];
    EXPECT_EQ(u, roots[slot]);
    const auto sp = graph::dijkstra(g, u);
    for (Vertex v = 0; v < g.n(); ++v) {
      const bool in_cluster =
          sp.dist[static_cast<std::size_t>(v)] <
          lim.dist[static_cast<std::size_t>(v)];
      const auto* e = entry_of(v, static_cast<int>(slot));
      if (in_cluster) {
        ASSERT_TRUE(e != nullptr) << "u=" << u << " v=" << v;
        EXPECT_EQ(e->dist, sp.dist[static_cast<std::size_t>(v)]);
      } else if (e != nullptr) {
        // A member may exist only if its own shortest-path prefix admitted
        // it; with exact BF this should coincide with the definition.
        ADD_FAILURE() << "vertex " << v << " wrongly joined cluster of " << u;
      }
    }
  }

  // Tree property: parents are members with consistent distances.
  for (Vertex v = 0; v < g.n(); ++v) {
    for (std::size_t ei = res.off[static_cast<std::size_t>(v)];
         ei < res.off[static_cast<std::size_t>(v) + 1]; ++ei) {
      const int slot = res.slot[ei];
      const auto& e = res.rec[ei];
      if (v == res.roots[static_cast<std::size_t>(slot)]) continue;
      ASSERT_NE(e.parent_port, graph::kNoPort);
      const auto& edge = g.edge(v, e.parent_port);
      EXPECT_EQ(edge.to, e.parent);
      const auto* pe = entry_of(e.parent, slot);
      ASSERT_TRUE(pe != nullptr);
      EXPECT_EQ(e.dist, pe->dist + edge.w);
    }
  }
}

TEST(ClusterBf, PoolSizeNeverChangesTheResult) {
  // Level-0 clusters run their simulated rounds on the pool: per-worker
  // entry arenas and vertex-ordered outbox merges must leave the CSR
  // result, rounds and messages exactly as the serial run has them. The
  // graph is large enough that the busy rounds clear the engine's inline
  // threshold and really run on the workers.
  util::Rng rng(38);
  const auto g =
      graph::connected_gnm(5000, 15000, graph::WeightSpec::uniform(1, 12), rng);
  const auto h = primitives::Hierarchy::sample(g.n(), 3, rng);
  const auto lim = graph::multi_source_dijkstra(g, h.set_at(1));
  const auto admit = [&](Vertex v, Vertex, Dist b) {
    return b < lim.dist[static_cast<std::size_t>(v)];
  };
  const auto roots = h.exactly_at(0);
  const auto serial =
      primitives::distributed_cluster_bellman_ford(g, roots, admit, 1, 1);
  const auto pooled =
      primitives::distributed_cluster_bellman_ford(g, roots, admit, 1, 4);
  EXPECT_EQ(serial.rounds, pooled.rounds);
  EXPECT_EQ(serial.messages, pooled.messages);
  EXPECT_EQ(serial.max_link_backlog, pooled.max_link_backlog);
  EXPECT_EQ(serial.off, pooled.off);
  EXPECT_EQ(serial.slot, pooled.slot);
  ASSERT_EQ(serial.rec.size(), pooled.rec.size());
  for (std::size_t e = 0; e < serial.rec.size(); ++e) {
    EXPECT_EQ(serial.rec[e].dist, pooled.rec[e].dist) << "e=" << e;
    EXPECT_EQ(serial.rec[e].parent, pooled.rec[e].parent) << "e=" << e;
    EXPECT_EQ(serial.rec[e].parent_port, pooled.rec[e].parent_port)
        << "e=" << e;
  }
}

TEST(SourceDetection, DialFastPathBitIdenticalToReferenceSweep) {
  // The exact-scale fast path (Dial Dijkstra + first-writer reconstruction)
  // is *defined* as bit-identical to the reference Bellman–Ford sweep —
  // distances, parent-port tie-breaks, iteration counts and round charges.
  // Pin the equivalence by diffing complete results with the fast path
  // off (fast_paths = false) and on, on regimes where the fast path
  // engages (small weights, generous hop bound), where it must fall back
  // (huge weights break the margin), and across thread counts.
  struct Regime {
    int n;
    std::int64_t extra;
    graph::Weight max_w;
    std::int64_t hop_bound;
    std::uint64_t seed;
  };
  for (const Regime r : {Regime{400, 900, 6, 400, 91},
                         Regime{300, 700, 50000, 300, 92},
                         Regime{250, 500, 12, 7, 93}}) {
    util::Rng rng(r.seed);
    const auto g = graph::connected_gnm(
        r.n, r.extra, graph::WeightSpec::uniform(1, r.max_w), rng);
    std::vector<Vertex> sources;
    for (Vertex v = 0; v < g.n(); v += 17) sources.push_back(v);
    const util::Epsilon eps(1, 6);

    const auto ref = primitives::source_detection(
        g, sources, r.hop_bound, eps, 5, /*threads=*/0, /*fast_paths=*/false);
    const auto fast =
        primitives::source_detection(g, sources, r.hop_bound, eps, 5);
    const auto threaded = primitives::source_detection(
        g, sources, r.hop_bound, eps, 5, /*threads=*/3);

    EXPECT_EQ(ref.dist, fast.dist) << "seed=" << r.seed;
    EXPECT_EQ(ref.parent_port, fast.parent_port) << "seed=" << r.seed;
    EXPECT_EQ(ref.round_cost, fast.round_cost) << "seed=" << r.seed;
    EXPECT_EQ(ref.max_iterations, fast.max_iterations) << "seed=" << r.seed;
    EXPECT_EQ(ref.executed_scales, fast.executed_scales) << "seed=" << r.seed;
    EXPECT_EQ(ref.dist, threaded.dist) << "seed=" << r.seed;
    EXPECT_EQ(ref.parent_port, threaded.parent_port) << "seed=" << r.seed;
    EXPECT_EQ(ref.round_cost, threaded.round_cost) << "seed=" << r.seed;
    EXPECT_EQ(ref.max_iterations, threaded.max_iterations)
        << "seed=" << r.seed;
  }
}

TEST(ClusterDetection, JoinPrunedSweepsMatchFilteredFullRows) {
  // cluster_detection_stream must hand out exactly what filtering the full
  // source-detection rows by the join predicate gives — members, b values,
  // ports (and so parents) — with the same round charge, for any pool
  // size. The join bound is the exact distance to a sampled set A, as at
  // the middle level. A generous hop bound lets most sources prune; small
  // ones push members past the first scale's window and force the
  // per-source fallback, so both paths are checked against the reference.
  // The settle bound pins the pruning itself: a pruned sweep touches only
  // the exact members and their neighbors.
  for (int family = 0; family < 4; ++family) {
    util::Rng rng(4100 + static_cast<std::uint64_t>(family));
    const graph::WeightedGraph g = [&] {
      switch (family) {
        case 0:
          return graph::connected_gnm(400, 900,
                                      graph::WeightSpec::uniform(1, 12), rng);
        case 1:
          return graph::torus(18, 20, graph::WeightSpec::uniform(1, 9), rng);
        case 2:
          return graph::clustered(380, 5, 0.3, 40,
                                  graph::WeightSpec::uniform(1, 12), rng);
        default:
          return graph::path(300, graph::WeightSpec::uniform(1, 8), rng);
      }
    }();
    const int n = g.n();
    std::vector<Vertex> a_set, sources;
    for (Vertex v = 0; v < n; ++v) {
      if (rng.bernoulli(0.04)) {
        a_set.push_back(v);
      } else if (rng.bernoulli(0.3)) {
        sources.push_back(v);
      }
    }
    ASSERT_FALSE(a_set.empty());
    ASSERT_GE(sources.size(), 8u);
    const std::vector<Dist> bound = graph::multi_source_dijkstra(g, a_set).dist;
    // Exact members and their closed neighborhoods (the settle bound).
    std::int64_t reach = 0;
    for (const Vertex u : sources) {
      const auto exact = graph::dijkstra(g, u);
      std::vector<char> seen(static_cast<std::size_t>(n), 0);
      for (Vertex v = 0; v < n; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (v != u && exact.dist[vi] >= bound[vi]) continue;
        seen[vi] = 1;
        for (const auto& e : g.neighbors(v)) {
          seen[static_cast<std::size_t>(e.to)] = 1;
        }
      }
      for (const char c : seen) reach += c;
    }
    const util::Epsilon eps(1, 6);
    std::int64_t pruned = 0, fallback = 0;
    for (const std::int64_t hop_bound : {std::int64_t{n}, std::int64_t{24},
                                         std::int64_t{6}, std::int64_t{2}}) {
      const std::string where = "family=" + std::to_string(family) +
                                " B=" + std::to_string(hop_bound);
      std::vector<std::vector<primitives::DetectedMember>> want(
          sources.size());
      const auto full = primitives::source_detection_stream(
          g, sources, hop_bound, eps, 5, 1,
          [&](int si, std::span<const Dist> dist,
              std::span<const std::int32_t> port) {
            const Vertex u = sources[static_cast<std::size_t>(si)];
            for (Vertex v = 0; v < n; ++v) {
              const auto vi = static_cast<std::size_t>(v);
              if (graph::is_inf(dist[vi])) continue;
              if (v != u && dist[vi] >= bound[vi]) continue;
              want[static_cast<std::size_t>(si)].push_back(
                  {v, dist[vi], port[vi]});
            }
          });
      for (const int threads : {1, 3}) {
        std::vector<std::vector<primitives::DetectedMember>> got(
            sources.size());
        const auto stats = primitives::cluster_detection_stream(
            g, sources, hop_bound, eps, 5, threads, bound,
            [&](int si, std::span<const primitives::DetectedMember> m) {
              got[static_cast<std::size_t>(si)].assign(m.begin(), m.end());
            });
        EXPECT_EQ(stats.round_cost, full.round_cost) << where;
        EXPECT_EQ(stats.executed_scales, full.executed_scales) << where;
        EXPECT_EQ(stats.pruned_sources + stats.fallback_sources + 1,
                  static_cast<std::int64_t>(sources.size()))
            << where;
        // Pruned attempts (failed ones included) settle only exact members
        // and their neighbors; full rows count n each (source 0 is one).
        EXPECT_LE(stats.settled, reach + n * (1 + stats.fallback_sources))
            << where;
        for (std::size_t si = 0; si < sources.size(); ++si) {
          ASSERT_EQ(got[si].size(), want[si].size())
              << where << " source " << sources[si];
          for (std::size_t j = 0; j < got[si].size(); ++j) {
            const auto& a = got[si][j];
            const auto& b = want[si][j];
            EXPECT_EQ(a.v, b.v) << where;
            EXPECT_EQ(a.b, b.b) << where << " v=" << b.v;
            EXPECT_EQ(a.port, b.port) << where << " v=" << b.v;
            if (b.v != sources[si]) {
              EXPECT_EQ(g.edge(a.v, a.port).to, g.edge(b.v, b.port).to);
            }
          }
        }
        if (threads == 1) {
          pruned += stats.pruned_sources;
          fallback += stats.fallback_sources;
        }
      }
    }
    EXPECT_GT(pruned, 0) << "family=" << family;
    EXPECT_GT(fallback, 0) << "family=" << family;
  }
}

TEST(SourceDetection, ExactWhenQuantumOne) {
  util::Rng rng(37);
  const auto g =
      graph::connected_gnm(100, 220, graph::WeightSpec::uniform(1, 8), rng);
  const std::vector<Vertex> sources{0, 10, 55};
  // Small weights ⇒ all quanta are 1 ⇒ values are exactly d^(B).
  const util::Epsilon eps(1, 4);
  const auto sd = primitives::source_detection(g, sources, g.n(), eps, 5);
  for (std::size_t si = 0; si < sources.size(); ++si) {
    const auto exact = graph::dijkstra(g, sources[si]);
    for (Vertex v = 0; v < g.n(); ++v) {
      EXPECT_EQ(sd.d(static_cast<int>(si), v),
                exact.dist[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(SourceDetection, GuaranteeTwoAndParentProperty) {
  util::Rng rng(38);
  // Large weights force quanta > 1 at high scales: genuine approximation.
  const auto g = graph::connected_gnm(
      80, 170, graph::WeightSpec::uniform(1000, 90000), rng);
  const std::vector<Vertex> sources{1, 2, 40, 79};
  const std::int64_t b = 12;
  const util::Epsilon eps(1, 8);
  const auto sd = primitives::source_detection(g, sources, b, eps, 4);
  EXPECT_GT(sd.distinct_scales, 1);

  for (std::size_t si = 0; si < sources.size(); ++si) {
    const auto hb = graph::hop_bounded_sssp(g, sources[si], b);
    for (Vertex v = 0; v < g.n(); ++v) {
      const Dist truth = hb.dist[static_cast<std::size_t>(v)];
      const Dist est = sd.d(static_cast<int>(si), v);
      if (graph::is_inf(truth)) {
        EXPECT_TRUE(graph::is_inf(est));
        continue;
      }
      // (2): d^(B) ≤ d_uv ≤ (1+ε) d^(B).
      EXPECT_GE(est, truth);
      EXPECT_TRUE(eps.leq_mul(est, truth, 1))
          << "est=" << est << " truth=" << truth;
      // (3): d_uv ≥ w(u,p) + d_pv for the reported parent.
      if (v == sources[si]) continue;
      const auto port = sd.port(static_cast<int>(si), v);
      ASSERT_NE(port, graph::kNoPort);
      const auto& e = g.edge(v, port);
      EXPECT_GE(est, e.w + sd.d(static_cast<int>(si), e.to));
    }
  }
}

TEST(SourceDetection, SymmetricBetweenSources) {
  util::Rng rng(39);
  const auto g = graph::connected_gnm(
      70, 150, graph::WeightSpec::uniform(500, 40000), rng);
  const std::vector<Vertex> sources{3, 30, 66};
  const auto sd = primitives::source_detection(g, sources, 15,
                                               util::Epsilon(1, 6), 4);
  for (std::size_t a = 0; a < sources.size(); ++a) {
    for (std::size_t b = 0; b < sources.size(); ++b) {
      EXPECT_EQ(sd.d(static_cast<int>(a), sources[b]),
                sd.d(static_cast<int>(b), sources[a]));
    }
  }
}

TEST(SourceDetection, RoundCostFormula) {
  util::Rng rng(40);
  const auto g = graph::connected_gnm(60, 120, graph::WeightSpec::unit(), rng);
  const std::vector<Vertex> sources{0, 1, 2};
  const auto sd = primitives::source_detection(g, sources, 10,
                                               util::Epsilon(1, 4), 7);
  // Per executed scale: |S| + hop layers + 2·height. Bounds bracket the
  // exact charge without exposing per-scale iteration counts.
  EXPECT_GE(sd.executed_scales, 1);
  EXPECT_LE(sd.executed_scales, sd.distinct_scales);
  EXPECT_GE(sd.round_cost,
            static_cast<std::int64_t>(sd.executed_scales) * (3 + 1 + 14));
  EXPECT_LE(sd.round_cost,
            static_cast<std::int64_t>(sd.executed_scales) * (3 + 10 + 14));
}

TEST(SourceDetection, EarlyExitOnUnitWeights) {
  // Unit weights: the first scale that covers the diameter is exact and
  // untruncated, so only a logarithmic prefix of scales runs.
  util::Rng rng(41);
  const auto g = graph::connected_gnm(80, 200, graph::WeightSpec::unit(), rng);
  const auto sd = primitives::source_detection(g, {0, 5}, g.n(),
                                               util::Epsilon(1, 4), 3);
  EXPECT_LT(sd.executed_scales, sd.distinct_scales);
  // And the values are simply exact.
  const auto exact = graph::dijkstra(g, 0);
  for (Vertex v = 0; v < g.n(); ++v) {
    EXPECT_EQ(sd.d(0, v), exact.dist[static_cast<std::size_t>(v)]);
  }
}

TEST(SourceDetection, LargeDistancesAreGenuinelyApproximate) {
  // With heavy weights the covering scale has quantum > 1; at least one
  // value must differ from the exact hop-bounded distance (otherwise the
  // approximation machinery is dead code).
  util::Rng rng(42);
  const auto g = graph::connected_gnm(
      120, 260, graph::WeightSpec::uniform(50000, 100000), rng);
  const util::Epsilon eps(1, 5);
  const auto sd = primitives::source_detection(g, {0}, 16, eps, 3);
  const auto hb = graph::hop_bounded_sssp(g, 0, 16);
  int inflated = 0;
  for (Vertex v = 0; v < g.n(); ++v) {
    const Dist truth = hb.dist[static_cast<std::size_t>(v)];
    if (graph::is_inf(truth)) continue;
    EXPECT_GE(sd.d(0, v), truth);
    EXPECT_TRUE(eps.leq_mul(sd.d(0, v), truth, 1));
    if (sd.d(0, v) > truth) ++inflated;
  }
  EXPECT_GT(inflated, 0);
}

}  // namespace
}  // namespace nors
