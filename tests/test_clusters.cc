#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "core/clusters.h"
#include "core/scheme.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "primitives/bfs_tree.h"
#include "primitives/pipelined.h"

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

TEST(LargeLevelCharges, DependentIterationsAddTheirBroadcasts) {
  // Theorem 3's β Bellman–Ford iterations over G'' are dependent: each
  // vertex sends in iteration t + 1 only what iteration t delivered. On a
  // path β = 2, so each Lemma-1 entry must be the sum of one exact
  // pipelined-broadcast count per iteration (tokens at the senders), not
  // one broadcast of all their messages. The test replays the scheme's
  // first attempt up to G'' and the iterations' senders from it.
  const int n = 1024;
  util::Rng grng(911 + n);
  const auto g = graph::path(n, graph::WeightSpec::uniform(1, 8), grng);
  core::SchemeParams p;
  p.k = 4;
  p.seed = 7;
  const auto scheme = core::RoutingScheme::build(g, p);
  ASSERT_EQ(scheme.coverage_retries(), 0);
  ASSERT_EQ(scheme.beta(), 2);

  util::Rng rng(p.seed);
  const auto bfs = primitives::centralized_bfs_tree(g, 0);
  const auto h = primitives::Hierarchy::sample(n, p.k, rng);
  for (Vertex v = 0; v < n; ++v) ASSERT_EQ(h.level(v), scheme.vertex_level(v));
  congest::RoundLedger preprocess_ledger;
  const auto pre = core::build_preprocess(g, h, p, bfs.height,
                                          preprocess_ledger, rng);
  ASSERT_EQ(pre.beta(), 2);
  const auto& dhat = scheme.pivots().dist;

  // One Bellman–Ford over G'' from `sources` (V' index, root slot) with
  // `admit` filtering relaxations; returns each iteration's tokens.
  using Admit = std::function<bool(int to, int slot, Dist b)>;
  const auto replay = [&](const std::vector<std::pair<int, int>>& sources,
                          const Admit& admit) {
    std::map<std::pair<int, int>, Dist> b;
    for (const auto& src : sources) b[src] = 0;
    std::vector<std::pair<int, int>> frontier = sources;
    std::vector<std::vector<int>> tokens;
    for (int it = 0; it < pre.beta() && !frontier.empty(); ++it) {
      auto& t = tokens.emplace_back(static_cast<std::size_t>(n), 0);
      std::vector<std::tuple<int, int, Dist>> sends;
      for (const auto& [v, slot] : frontier) {
        ++t[static_cast<std::size_t>(pre.vprime[static_cast<std::size_t>(v)])];
        sends.emplace_back(v, slot, b.at({v, slot}));
      }
      std::vector<std::pair<int, int>> next;
      for (const auto& [v, slot, bv] : sends) {
        for (const auto& e : pre.gpp_adj[static_cast<std::size_t>(v)]) {
          const Dist nb = bv + e.w;
          const auto it_b = b.find({e.to, slot});
          if (it_b != b.end() && nb >= it_b->second) continue;
          if (!admit(e.to, slot, nb)) continue;
          b[{e.to, slot}] = nb;
          next.push_back({e.to, slot});
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      frontier = std::move(next);
    }
    return tokens;
  };
  const auto expect_summed = [&](const std::string& phase,
                                 const std::vector<std::vector<int>>& tokens) {
    SCOPED_TRACE(phase);
    const congest::CostEntry* entry = nullptr;
    for (const auto& e : scheme.ledger().entries()) {
      if (e.phase == phase) entry = &e;
    }
    ASSERT_NE(entry, nullptr);
    ASSERT_EQ(tokens.size(), 2u);  // both iterations send
    std::int64_t sum = 0;
    std::int64_t messages = 0;
    std::vector<int> merged(static_cast<std::size_t>(n), 0);
    for (const auto& t : tokens) {
      sum += primitives::pipelined_broadcast_rounds(bfs, t);
      for (Vertex v = 0; v < n; ++v) {
        messages += t[static_cast<std::size_t>(v)];
        merged[static_cast<std::size_t>(v)] += t[static_cast<std::size_t>(v)];
      }
    }
    EXPECT_EQ(entry->messages, messages);
    EXPECT_EQ(entry->rounds, sum);
    // One broadcast of every iteration's messages is strictly shorter.
    EXPECT_GT(entry->rounds,
              primitives::pipelined_broadcast_rounds(bfs, merged));
  };

  int checked = 0;
  for (int i = core::last_exact_pivot_level(p.k) + 1; i <= p.k - 1; ++i) {
    std::vector<std::pair<int, int>> sources;
    for (const Vertex a : h.set_at(i)) {
      sources.push_back({pre.vp_index[static_cast<std::size_t>(a)], 0});
    }
    // Pivots keep one value per vertex: the synchronous minimum over all
    // of A_i, so every source shares slot 0.
    expect_summed("pivots/approx level " + std::to_string(i),
                  replay(sources, [](int, int, Dist) { return true; }));
    ++checked;
  }
  for (int i = 0; i < p.k; ++i) {
    if (core::classify_level(i, p.k) != core::LevelKind::kLarge) continue;
    const auto roots = h.exactly_at(i);
    std::vector<std::pair<int, int>> sources;
    for (int s = 0; s < static_cast<int>(roots.size()); ++s) {
      sources.push_back({pre.vp_index[static_cast<std::size_t>(roots[s])], s});
    }
    const std::size_t row = static_cast<std::size_t>(i + 1) * n;
    // Condition (14) admits b < d̂_{i+1}(z) / (1+ε)^3 at non-roots.
    const auto cond14 = [&](int to, int slot, Dist nb) {
      const Vertex z = pre.vprime[static_cast<std::size_t>(to)];
      const Dist d = dhat[row + static_cast<std::size_t>(z)];
      return z == roots[static_cast<std::size_t>(slot)] || graph::is_inf(d) ||
             p.epsilon().less_than_div(nb, d, 3);
    };
    expect_summed(
        "clusters/large level " + std::to_string(i) + " phase1",
        replay(sources, cond14));
    ++checked;
  }
  EXPECT_EQ(checked, 3);  // pivots level 3, large levels 2 and 3
}


TEST(LargeLevelPhase2PairsRoundTrip, EncodeDecodeRows) {
  // Phase 2 sends two aligned root slots per message. Decoding must return
  // exactly the finite cells, per slot in V' order, from one message per
  // aligned pair that holds a finite value: sparse, dense, odd r, r = 1.
  util::Rng rng(2024);
  for (const int r : {1, 2, 3, 7, 8, 33}) {
    for (const double density : {0.0, 0.1, 0.5, 1.0}) {
      SCOPED_TRACE("r=" + std::to_string(r) +
                   " density=" + std::to_string(density));
      const int m = 9;
      std::vector<std::vector<Dist>> rows(static_cast<std::size_t>(m));
      std::vector<congest::Message> sent;
      std::size_t pairs = 0;
      for (int v = 0; v < m; ++v) {
        auto& row = rows[static_cast<std::size_t>(v)];
        for (int s = 0; s < r; ++s) {
          row.push_back(rng.bernoulli(density) ? rng.uniform_int(0, 1 << 20)
                                               : graph::kDistInf);
        }
        for (int j = 0; j < r; j += 2) {
          const bool lo = !graph::is_inf(row[static_cast<std::size_t>(j)]);
          const bool hi =
              j + 1 < r && !graph::is_inf(row[static_cast<std::size_t>(j + 1)]);
          if (lo || hi) ++pairs;
        }
        core::encode_phase2_row(v, row, sent);
      }
      EXPECT_EQ(sent.size(), pairs);
      for (const auto& msg : sent) {
        EXPECT_EQ(msg.len, 4);
        EXPECT_EQ(msg.w[1] % 2, 0);
      }
      const core::Phase2Cells got = core::decode_phase2(sent, r);
      ASSERT_EQ(got.off.size(), static_cast<std::size_t>(r) + 1);
      for (int s = 0; s < r; ++s) {
        std::vector<std::pair<int, Dist>> want;
        for (int v = 0; v < m; ++v) {
          const Dist b =
              rows[static_cast<std::size_t>(v)][static_cast<std::size_t>(s)];
          if (!graph::is_inf(b)) want.push_back({v, b});
        }
        const std::vector<std::pair<int, Dist>> slot(
            got.cells.begin() + got.off[static_cast<std::size_t>(s)],
            got.cells.begin() + got.off[static_cast<std::size_t>(s) + 1]);
        EXPECT_EQ(slot, want) << "slot " << s;
      }
    }
  }
}

TEST(LargeLevelPhase2PairsRoundTrip, ChargeIsTheEncodersBroadcast) {
  // On the graph families above, each large level's Phase 2 entry must be
  // the exact Lemma-1 count of the encoder's messages (tokens at their
  // senders), which the simulator reproduces, and its note must count the
  // decoded cells. The levels are rebuilt from a replay of the scheme's
  // hierarchy and preprocessing and must reproduce its ledger entry.
  struct Family {
    Case c;
    bool path;
  };
  const Family families[] = {
      {Case{2, 401, 90, 200}, false},  {Case{3, 402, 110, 260}, false},
      {Case{4, 403, 120, 300}, false}, {Case{5, 404, 130, 320}, false},
      {Case{3, 405, 100, 1200}, false},
      {Case{4, 406, 120, 300, util::Epsilon(1, 8)}, false},
      {Case{4, 7, 1024, 0}, true},
  };
  int checked = 0;
  for (const Family& f : families) {
    const Case& c = f.c;
    SCOPED_TRACE("n=" + std::to_string(c.n) + " k=" + std::to_string(c.k));
    util::Rng grng(f.path ? 911 + c.n : c.seed);
    const auto g =
        f.path ? graph::path(c.n, graph::WeightSpec::uniform(1, 8), grng)
               : graph::connected_gnm(c.n, c.extra_edges,
                                      graph::WeightSpec::uniform(1, 16), grng);
    core::SchemeParams p;
    p.k = c.k;
    p.seed = c.seed;
    p.eps = c.eps;
    const auto scheme = core::RoutingScheme::build(g, p);
    ASSERT_EQ(scheme.coverage_retries(), 0);

    util::Rng rng(p.seed);
    const auto bfs = primitives::centralized_bfs_tree(g, 0);
    const auto h = primitives::Hierarchy::sample(c.n, p.k, rng);
    congest::RoundLedger preprocess_ledger;
    const auto pre = core::build_preprocess(g, h, p, bfs.height,
                                            preprocess_ledger, rng);
    for (int i = 0; i < p.k; ++i) {
      if (core::classify_level(i, p.k) != core::LevelKind::kLarge) continue;
      const std::string phase =
          "clusters/large level " + std::to_string(i) + " phase2";
      SCOPED_TRACE(phase);
      congest::RoundLedger ledger;
      std::vector<congest::Message> sent;
      core::build_large_level_trees(g, h, i, scheme.pivots(), pre, p, bfs,
                                    ledger, &sent);
      const auto find = [&](const congest::RoundLedger& l) {
        const congest::CostEntry* entry = nullptr;
        for (const auto& e : l.entries()) {
          if (e.phase == phase) entry = &e;
        }
        return entry;
      };
      const congest::CostEntry* entry = find(ledger);
      const congest::CostEntry* built = find(scheme.ledger());
      ASSERT_NE(entry, nullptr);
      ASSERT_NE(built, nullptr);
      EXPECT_EQ(entry->rounds, built->rounds);
      EXPECT_EQ(entry->messages, built->messages);
      EXPECT_EQ(entry->note, built->note);

      const int r = static_cast<int>(h.exactly_at(i).size());
      const core::Phase2Cells cells = core::decode_phase2(sent, r);
      std::vector<int> tokens(static_cast<std::size_t>(c.n), 0);
      for (const auto& msg : sent) {
        ++tokens[static_cast<std::size_t>(
            pre.vprime[static_cast<std::size_t>(msg.w[0])])];
      }
      // One message per (member, aligned pair) holding a finite value.
      std::set<std::pair<int, int>> pairs;
      for (int s = 0; s < r; ++s) {
        for (int x = cells.off[static_cast<std::size_t>(s)];
             x < cells.off[static_cast<std::size_t>(s) + 1]; ++x) {
          pairs.insert({cells.cells[static_cast<std::size_t>(x)].first, s / 2});
        }
      }
      EXPECT_EQ(pairs.size(), sent.size());
      EXPECT_EQ(entry->messages, static_cast<std::int64_t>(sent.size()));
      EXPECT_EQ(entry->note, "slots=" + std::to_string(r) + " cells=" +
                                 std::to_string(cells.cells.size()));
      EXPECT_EQ(entry->rounds,
                primitives::pipelined_broadcast_rounds(bfs, tokens));
      EXPECT_EQ(entry->rounds,
                primitives::simulate_pipelined_broadcast(g, bfs, tokens));
      ++checked;
    }
  }
  EXPECT_EQ(checked, 11);
}

}  // namespace
}  // namespace nors
