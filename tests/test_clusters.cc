#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "core/scheme.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"

namespace nors {
namespace {

using graph::Dist;
using graph::Vertex;

struct Case {
  int k;
  std::uint64_t seed;
  int n;
  std::int64_t extra_edges;
  std::optional<util::Epsilon> eps = {};  // unset: the paper's 1/(48 k⁴)
};

/// Fixture building one scheme and the exact quantities the paper's
/// invariants are stated against.
class ClusterInvariants : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const auto c = GetParam();
    util::Rng rng(c.seed);
    g_ = graph::connected_gnm(c.n, c.extra_edges,
                              graph::WeightSpec::uniform(1, 16), rng);
    core::SchemeParams p;
    p.k = c.k;
    p.seed = c.seed;
    p.eps = c.eps;
    scheme_ = std::make_unique<core::RoutingScheme>(
        core::RoutingScheme::build(g_, p));
    // Reconstruct A_i from the exposed levels and compute exact d(v, A_i).
    dist_to_set_.assign(static_cast<std::size_t>(c.k) + 1, {});
    for (int i = 0; i <= c.k; ++i) {
      std::vector<Vertex> set;
      for (Vertex v = 0; v < g_.n(); ++v) {
        if (scheme_->vertex_level(v) >= i) set.push_back(v);
      }
      if (set.empty()) {
        dist_to_set_[static_cast<std::size_t>(i)].assign(
            static_cast<std::size_t>(g_.n()), graph::kDistInf);
      } else {
        dist_to_set_[static_cast<std::size_t>(i)] =
            graph::multi_source_dijkstra(g_, set).dist;
      }
    }
  }

  graph::WeightedGraph g_;
  std::unique_ptr<core::RoutingScheme> scheme_;
  std::vector<std::vector<Dist>> dist_to_set_;
};

TEST_P(ClusterInvariants, Claim7ParentsAndNoPruning) {
  EXPECT_EQ(scheme_->pruned_members(), 0);
  for (const auto& t : scheme_->trees()) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      const Vertex v = t.members[i];
      const auto& mem = t.info[i];
      if (v == t.root) {
        EXPECT_EQ(mem.b, 0);
        continue;
      }
      // Parent is a member over a real edge, with b_v ≥ w(v,p) + b_p.
      ASSERT_NE(mem.parent_port, graph::kNoPort);
      const auto& e = g_.edge(v, mem.parent_port);
      ASSERT_EQ(e.to, mem.parent);
      const int pi = t.find(mem.parent);
      ASSERT_GE(pi, 0) << "root=" << t.root << " v=" << v
                       << " parent not member";
      EXPECT_GE(mem.b, e.w + t.info[static_cast<std::size_t>(pi)].b);
    }
  }
}

TEST_P(ClusterInvariants, SandwichNine) {
  const auto eps = scheme_->params().epsilon();
  for (const auto& t : scheme_->trees()) {
    const auto sp = graph::dijkstra(g_, t.root);
    const auto& limit = dist_to_set_[static_cast<std::size_t>(t.level) + 1];
    for (Vertex v = 0; v < g_.n(); ++v) {
      const Dist duv = sp.dist[static_cast<std::size_t>(v)];
      const Dist lim = limit[static_cast<std::size_t>(v)];
      const bool member = t.contains(v);
      // Right inclusion C̃(u) ⊆ C(u): members satisfy d(u,v) < d(v,A_{i+1}).
      if (member && !graph::is_inf(lim)) {
        EXPECT_LT(duv, lim) << "root=" << t.root << " v=" << v;
      }
      // Left inclusion C_{6ε}(u) ⊆ C̃(u):
      // (1+6ε)·d(u,v) < d(v,A_{i+1}) ⇒ member. Exact integer check.
      if (!member && !graph::is_inf(duv)) {
        const __int128 lhs =
            static_cast<__int128>(duv) * (eps.den() + 6 * eps.num());
        const __int128 rhs = graph::is_inf(lim)
                                 ? static_cast<__int128>(graph::kDistInf) *
                                       eps.den()
                                 : static_cast<__int128>(lim) * eps.den();
        EXPECT_FALSE(lhs < rhs)
            << "vertex " << v << " in C_6eps(" << t.root << ") but excluded";
      }
    }
  }
}

TEST_P(ClusterInvariants, TreeDistancePreservationTen) {
  const auto eps = scheme_->params().epsilon();
  for (const auto& t : scheme_->trees()) {
    const auto sp = graph::dijkstra(g_, t.root);
    for (std::size_t i = 0; i < t.size(); ++i) {
      const Vertex v = t.members[i];
      const auto& mem = t.info[i];
      if (v == t.root) continue;
      // Walk the parent chain to the root, summing real edge weights.
      Dist chain = 0;
      Vertex x = v;
      int guard = 0;
      while (x != t.root) {
        const auto& m = t.member(x);
        const auto& e = g_.edge(x, m.parent_port);
        chain += e.w;
        x = e.to;
        ASSERT_LE(++guard, g_.n());
      }
      const Dist d = sp.dist[static_cast<std::size_t>(v)];
      EXPECT_GE(chain, d);
      // d_{C̃(u)}(u,v) ≤ b_v(u) ≤ (1+ε)^4 d_G(u,v)  — (10) + Lemma 5.
      EXPECT_LE(chain, mem.b);
      EXPECT_TRUE(eps.leq_mul(mem.b, d, 4))
          << "root=" << t.root << " v=" << v << " b=" << mem.b
          << " d=" << d;
      EXPECT_GE(mem.b, d);  // Lemma 5 left side
    }
  }
}

TEST_P(ClusterInvariants, PivotPropertySeven) {
  const auto eps = scheme_->params().epsilon();
  const int k = scheme_->params().k;
  for (int i = 0; i < k; ++i) {
    const auto& exact = dist_to_set_[static_cast<std::size_t>(i)];
    for (Vertex v = 0; v < g_.n(); ++v) {
      const Vertex z = scheme_->pivots().z(i, v);
      const Dist dhat = scheme_->pivots().d(i, v);
      ASSERT_NE(z, graph::kNoVertex) << "level " << i << " v=" << v;
      EXPECT_GE(scheme_->vertex_level(z), i);  // ẑ_i(v) ∈ A_i
      // d(v,A_i) ≤ d̂_i(v) ≤ (1+ε)·d(v,A_i).
      EXPECT_GE(dhat, exact[static_cast<std::size_t>(v)]);
      EXPECT_TRUE(eps.leq_mul(dhat, exact[static_cast<std::size_t>(v)], 1))
          << "level " << i << " v=" << v << " dhat=" << dhat
          << " exact=" << exact[static_cast<std::size_t>(v)];
      // The reported pivot is within d̂ of v.
      EXPECT_LE(graph::pair_distance(g_, v, z), dhat);
    }
  }
}

TEST_P(ClusterInvariants, TopLevelTreesSpanEverything) {
  const int k = scheme_->params().k;
  int top_trees = 0;
  for (const auto& t : scheme_->trees()) {
    if (t.level != k - 1) continue;
    ++top_trees;
    EXPECT_EQ(t.size(), static_cast<std::size_t>(g_.n()));
  }
  EXPECT_GE(top_trees, 1);
}

TEST_P(ClusterInvariants, OverlapClaim2) {
  const int n = g_.n();
  const int k = scheme_->params().k;
  const double bound = 4.0 * std::pow(n, 1.0 / k) * std::log(std::max(2, n));
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_LE(scheme_->overlap(v), bound) << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ClusterInvariants,
    ::testing::Values(Case{2, 401, 90, 200}, Case{3, 402, 110, 260},
                      Case{4, 403, 120, 300}, Case{5, 404, 130, 320},
                      Case{3, 405, 100, 1200},  // dense
                      // A practical ε: the Theorem-3 pivot level (3) and
                      // the clusters stay within their ε bounds.
                      Case{4, 406, 120, 300, util::Epsilon(1, 8)}));

}  // namespace
}  // namespace nors
