#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <tuple>

#include "congest/message.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "treeroute/dist_tree.h"
#include "treeroute/tz_tree.h"

namespace nors {
namespace {

using graph::Dist;
using graph::Vertex;

/// Builds a TreeSpec from the SSSP tree of `g` rooted at `root`, and the
/// parent/dist arrays for ground-truth tree distances.
struct TreeFixture {
  treeroute::TreeSpec spec;
  std::vector<Vertex> parent;
  std::vector<Dist> dist_to_root;
};

TreeFixture sssp_tree(const graph::WeightedGraph& g, Vertex root) {
  const auto sp = graph::dijkstra(g, root);
  TreeFixture f;
  f.spec.root = root;
  f.parent = sp.parent;
  f.dist_to_root = sp.dist;
  f.spec.parent.assign(static_cast<std::size_t>(g.n()), graph::kNoVertex);
  f.spec.parent_port.assign(static_cast<std::size_t>(g.n()), graph::kNoPort);
  for (Vertex v = 0; v < g.n(); ++v) {
    f.spec.members.push_back(v);
    if (v == root) continue;
    f.spec.parent[v] = sp.parent[static_cast<std::size_t>(v)];
    f.spec.parent_port[v] = sp.parent_port[static_cast<std::size_t>(v)];
  }
  return f;
}

/// Walks the TZ tree router from u to v; returns total weight.
Dist walk_tz(const graph::WeightedGraph& g, const treeroute::TzTreeScheme& s,
             Vertex u, Vertex v) {
  Dist len = 0;
  Vertex x = u;
  int guard = 0;
  while (x != v) {
    const auto port = treeroute::TzTreeScheme::next_hop(s.table(x),
                                                        s.label(v));
    EXPECT_NE(port, graph::kNoPort);
    const auto& e = g.edge(x, port);
    len += e.w;
    x = e.to;
    if (++guard > 4 * g.n()) ADD_FAILURE() << "loop";
  }
  return len;
}

TEST(TzTree, ExactRoutingOnRandomTree) {
  util::Rng rng(61);
  const auto g = graph::random_tree(60, graph::WeightSpec::uniform(1, 15), rng);
  const auto f = sssp_tree(g, 0);
  const auto s = treeroute::TzTreeScheme::build(g, f.spec.members, f.spec.parent,
                                                f.spec.parent_port, 0);
  for (Vertex u = 0; u < g.n(); u += 3) {
    for (Vertex v = 1; v < g.n(); v += 5) {
      const Dist expect =
          graph::tree_distance(f.parent, f.dist_to_root, u, v);
      EXPECT_EQ(walk_tz(g, s, u, v), expect) << "u=" << u << " v=" << v;
    }
  }
}

TEST(TzTree, ExactRoutingOnSsspSubtreeOfGraph) {
  util::Rng rng(62);
  const auto g =
      graph::connected_gnm(80, 200, graph::WeightSpec::uniform(1, 9), rng);
  const auto f = sssp_tree(g, 5);
  const auto s = treeroute::TzTreeScheme::build(g, f.spec.members, f.spec.parent,
                                                f.spec.parent_port, 5);
  for (Vertex u = 0; u < g.n(); u += 7) {
    for (Vertex v = 2; v < g.n(); v += 11) {
      const Dist expect =
          graph::tree_distance(f.parent, f.dist_to_root, u, v);
      EXPECT_EQ(walk_tz(g, s, u, v), expect);
    }
  }
}

TEST(TzTree, SizesAreLogarithmic) {
  util::Rng rng(63);
  const auto g = graph::random_tree(512, graph::WeightSpec::unit(), rng);
  const auto f = sssp_tree(g, 0);
  const auto s = treeroute::TzTreeScheme::build(g, f.spec.members, f.spec.parent,
                                                f.spec.parent_port, 0);
  for (Vertex v = 0; v < g.n(); ++v) {
    EXPECT_EQ(s.table(v).words(), 6);
    // Light edges ≤ log2(n): subtree size halves at each light edge.
    EXPECT_LE(s.label(v).light.size(), 9u);
  }
}

TEST(TzTree, IntervalInvariants) {
  util::Rng rng(64);
  const auto g = graph::random_tree(100, graph::WeightSpec::unit(), rng);
  const auto f = sssp_tree(g, 0);
  const auto s = treeroute::TzTreeScheme::build(g, f.spec.members, f.spec.parent,
                                                f.spec.parent_port, 0);
  // Child intervals nest strictly inside parent intervals.
  for (Vertex v = 1; v < g.n(); ++v) {
    const auto& tv = s.table(v);
    const auto& tp = s.table(f.parent[static_cast<std::size_t>(v)]);
    EXPECT_GT(tv.a, tp.a);
    EXPECT_LE(tv.b, tp.b);
    EXPECT_LT(tv.a, tv.b);
  }
}

class DistTreeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistTreeTest, ExactRoutingMatchesTreeDistance) {
  util::Rng rng(GetParam());
  const auto g =
      graph::connected_gnm(90, 220, graph::WeightSpec::uniform(1, 12), rng);
  const auto f = sssp_tree(g, 3);
  // Sample U at various densities, including empty and everything.
  for (double p : {0.0, 0.1, 0.4, 1.0}) {
    std::vector<char> in_u(static_cast<std::size_t>(g.n()), 0);
    util::Rng urng(GetParam() + 100);
    for (Vertex v = 0; v < g.n(); ++v) {
      in_u[static_cast<std::size_t>(v)] = urng.bernoulli(p) ? 1 : 0;
    }
    const auto s = treeroute::DistTreeScheme::build(g, f.spec, in_u);
    for (Vertex u = 0; u < g.n(); u += 5) {
      for (Vertex v = 1; v < g.n(); v += 7) {
        const Dist expect =
            graph::tree_distance(f.parent, f.dist_to_root, u, v);
        Dist len = 0;
        Vertex x = u;
        int guard = 0;
        while (x != v) {
          const auto port = s.next_hop(x, s.label(v));
          ASSERT_NE(port, graph::kNoPort) << "stalled at " << x;
          const auto& e = g.edge(x, port);
          len += e.w;
          x = e.to;
          ASSERT_LE(++guard, 4 * g.n()) << "loop";
        }
        EXPECT_EQ(len, expect) << "u=" << u << " v=" << v << " p=" << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistTreeTest,
                         ::testing::Values(71, 72, 73, 74, 75));

TEST(DistTree, RouteToRootFollowsParents) {
  util::Rng rng(81);
  const auto g = graph::connected_gnm(60, 130, graph::WeightSpec::uniform(1, 5), rng);
  const auto f = sssp_tree(g, 0);
  std::vector<char> in_u(static_cast<std::size_t>(g.n()), 0);
  for (Vertex v = 0; v < g.n(); v += 4) in_u[static_cast<std::size_t>(v)] = 1;
  const auto s = treeroute::DistTreeScheme::build(g, f.spec, in_u);
  for (Vertex u = 1; u < g.n(); u += 3) {
    Vertex x = u;
    Dist len = 0;
    int guard = 0;
    while (x != 0) {
      const auto port = s.next_hop_to_root(x);
      ASSERT_NE(port, graph::kNoPort);
      const auto& e = g.edge(x, port);
      len += e.w;
      x = e.to;
      ASSERT_LE(++guard, g.n());
    }
    EXPECT_EQ(len, f.dist_to_root[static_cast<std::size_t>(u)]);
  }
}

TEST(DistTree, SingletonTree) {
  graph::WeightedGraph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.freeze();
  treeroute::TreeSpec spec;
  spec.root = 1;
  spec.members = {1};
  spec.parent = {graph::kNoVertex};
  spec.parent_port = {graph::kNoPort};
  std::vector<char> in_u(3, 0);
  const auto s = treeroute::DistTreeScheme::build(g, spec, in_u);
  EXPECT_TRUE(s.contains(1));
  EXPECT_FALSE(s.contains(0));
  EXPECT_EQ(s.next_hop(1, s.label(1)), graph::kNoPort);
}

TEST(DistTree, SubtreeDepthShrinksWithDenserU) {
  util::Rng rng(82);
  const auto g = graph::path(200, graph::WeightSpec::unit(), rng);
  const auto f = sssp_tree(g, 0);
  std::vector<char> none(static_cast<std::size_t>(g.n()), 0);
  std::vector<char> dense(static_cast<std::size_t>(g.n()), 0);
  for (Vertex v = 0; v < g.n(); v += 10) dense[static_cast<std::size_t>(v)] = 1;
  const auto s_none = treeroute::DistTreeScheme::build(g, f.spec, none);
  const auto s_dense = treeroute::DistTreeScheme::build(g, f.spec, dense);
  EXPECT_EQ(s_none.max_subtree_depth(), 199);
  EXPECT_LE(s_dense.max_subtree_depth(), 10);
  EXPECT_GT(s_dense.u_count(), 15);
}

TEST(DistTree, LabelAndTableWordBounds) {
  // Theorem 7: tables O(log n) words, labels O(log² n) words. Check the
  // concrete constants on a large random tree with Remark-3 γ density.
  util::Rng rng(84);
  const int n = 1024;
  const auto g = graph::random_tree(n, graph::WeightSpec::uniform(1, 5), rng);
  const auto f = sssp_tree(g, 0);
  std::vector<char> in_u(static_cast<std::size_t>(n), 0);
  util::Rng urng(85);
  for (Vertex v = 0; v < n; ++v) {
    in_u[static_cast<std::size_t>(v)] =
        urng.bernoulli(1.0 / 32.0) ? 1 : 0;  // γ = n/32
  }
  const auto s = treeroute::DistTreeScheme::build(g, f.spec, in_u);
  const double log2n = 10.0;  // log2(1024)
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_LE(s.table_words_at(static_cast<std::size_t>(s.find(v))),
              15 + 2 * log2n)
        << "v=" << v;
    EXPECT_LE(s.label(v).words(), 2 + 5 * log2n * log2n) << "v=" << v;
  }
}

TEST(DistTree, UCountTracksSampleDensity) {
  util::Rng rng(86);
  const auto g = graph::path(500, graph::WeightSpec::unit(), rng);
  const auto f = sssp_tree(g, 0);
  for (double p : {0.05, 0.2}) {
    std::vector<char> in_u(static_cast<std::size_t>(g.n()), 0);
    util::Rng urng(87);
    int expect = 1;  // the root
    for (Vertex v = 0; v < g.n(); ++v) {
      if (urng.bernoulli(p)) {
        in_u[static_cast<std::size_t>(v)] = 1;
        if (v != 0) ++expect;
      }
    }
    const auto s = treeroute::DistTreeScheme::build(g, f.spec, in_u);
    EXPECT_EQ(s.u_count(), expect);
  }
}

TEST(DistTreeBatch, BuildsAllTreesAndChargesRounds) {
  util::Rng rng(83);
  const auto g =
      graph::connected_gnm(100, 240, graph::WeightSpec::uniform(1, 6), rng);
  std::vector<treeroute::TreeSpec> specs;
  for (Vertex root : {0, 17, 42, 77}) {
    specs.push_back(sssp_tree(g, root).spec);
  }
  util::Rng batch_rng(99);
  const auto batch = treeroute::build_dist_tree_batch(g, specs, {}, 6, batch_rng);
  ASSERT_EQ(batch.schemes.size(), 4u);
  EXPECT_EQ(batch.max_overlap, 4);  // all trees span everything
  EXPECT_GT(batch.ledger.total_rounds(), 0);
  // Spot-check exactness on one tree.
  const auto f = sssp_tree(g, 17);
  const auto& s = batch.schemes[1];
  for (Vertex u = 0; u < g.n(); u += 13) {
    Vertex x = u;
    Dist len = 0;
    while (x != 60) {
      const auto port = s.next_hop(x, s.label(60));
      ASSERT_NE(port, graph::kNoPort);
      const auto& e = g.edge(x, port);
      len += e.w;
      x = e.to;
    }
    EXPECT_EQ(len, graph::tree_distance(f.parent, f.dist_to_root, u, 60));
  }
  // A zero stage length can never decongest a shared edge.
  treeroute::DistTreeBatchParams zero;
  zero.alpha = 0;
  util::Rng zero_rng(99);
  EXPECT_THROW(
      treeroute::build_dist_tree_batch(g, specs, zero, 6, zero_rng),
      std::logic_error);
}

TEST(DistTreeBatch, SingleNodeVirtualTreesNeedNoPhase2) {
  // With γ so small that U is empty, every tree's T' is its root alone:
  // the global scheme is known locally, Phase 2 charges nothing, and every
  // route is still exact.
  util::Rng rng(87);
  const auto g =
      graph::connected_gnm(120, 300, graph::WeightSpec::uniform(1, 9), rng);
  const Vertex roots[] = {0, 31, 64, 99};
  std::vector<treeroute::TreeSpec> specs;
  for (const Vertex root : roots) specs.push_back(sssp_tree(g, root).spec);
  treeroute::DistTreeBatchParams params;
  params.gamma = 1e-9;
  params.threads = 1;
  util::Rng batch_rng(5);
  const auto batch =
      treeroute::build_dist_tree_batch(g, specs, params, 6, batch_rng);
  const auto& entries = batch.ledger.entries();
  ASSERT_EQ(entries.back().phase, "treeroute/phase2 global broadcast");
  EXPECT_EQ(entries.back().messages, 0);
  EXPECT_EQ(entries.back().rounds, 0);
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const auto& s = batch.schemes[t];
    ASSERT_EQ(s.u_count(), 1);
    const auto f = sssp_tree(g, roots[t]);
    for (Vertex u = 0; u < g.n(); u += 7) {
      for (Vertex v = 0; v < g.n(); v += 5) {
        Vertex x = u;
        Dist len = 0;
        for (int hops = 0; x != v; ++hops) {
          ASSERT_LT(hops, g.n());
          const auto port = s.next_hop(x, s.label(v));
          ASSERT_NE(port, graph::kNoPort);
          len += g.edge(x, port).w;
          x = g.edge(x, port).to;
        }
        EXPECT_EQ(len, graph::tree_distance(f.parent, f.dist_to_root, u, v))
            << "root=" << roots[t] << " u=" << u << " v=" << v;
      }
    }
  }
}

TEST(DistTreeBatch, Phase2ChargesOnlyMultiNodeVirtualTrees) {
  // Trees cut from SSSP trees at a few hops from their roots: some contain
  // a sampled vertex (u_count >= 2) and some do not. Phase 2 must charge
  // exactly Σ_{u_count >= 2} 2·u_count·(running max label words) words,
  // the running max folded over every tree in spec order.
  util::Rng rng(88);
  const auto g =
      graph::connected_gnm(200, 500, graph::WeightSpec::uniform(1, 9), rng);
  std::vector<treeroute::TreeSpec> specs;
  for (Vertex root = 0; root < g.n(); root += 9) {
    const auto full = sssp_tree(g, root);
    // Hop depth in the SSSP tree; parents are strictly closer.
    std::vector<int> hops(static_cast<std::size_t>(g.n()), -1);
    const auto hop = [&](auto&& self, Vertex v) -> int {
      auto& h = hops[static_cast<std::size_t>(v)];
      if (h < 0) {
        h = v == root ? 0
                      : 1 + self(self, full.parent[static_cast<std::size_t>(v)]);
      }
      return h;
    };
    treeroute::TreeSpec spec;
    spec.root = root;
    for (Vertex v = 0; v < g.n(); ++v) {
      if (hop(hop, v) > 1 + root % 3) continue;
      spec.members.push_back(v);
      spec.parent.push_back(full.spec.parent[static_cast<std::size_t>(v)]);
      spec.parent_port.push_back(
          full.spec.parent_port[static_cast<std::size_t>(v)]);
    }
    specs.push_back(std::move(spec));
  }
  treeroute::DistTreeBatchParams params;
  params.gamma = 12;
  params.threads = 1;
  const int bfs_height = 6;
  util::Rng batch_rng(9);
  const auto batch = treeroute::build_dist_tree_batch(g, specs, params,
                                                      bfs_height, batch_rng);

  std::int64_t words = 0;
  std::int64_t max_label_words = 1;
  int single = 0, multi = 0;
  for (const auto& s : batch.schemes) {
    max_label_words = std::max(max_label_words, s.max_label_words());
    if (s.u_count() >= 2) {
      words += 2LL * s.u_count() * max_label_words;
      ++multi;
    } else {
      ++single;
    }
  }
  ASSERT_GT(single, 0);
  ASSERT_GT(multi, 0);
  const std::int64_t msgs =
      (words + congest::kMaxWords - 1) / congest::kMaxWords;
  const auto& phase2 = batch.ledger.entries().back();
  ASSERT_EQ(phase2.phase, "treeroute/phase2 global broadcast");
  EXPECT_EQ(phase2.messages, msgs);
  EXPECT_EQ(phase2.rounds, 2 * (bfs_height + msgs));
}

TEST(DistTreeBatch, ScheduleVerifierMatchesABruteForceCount) {
  // The Remark-3 search draws start stages over a range that starts at 1
  // and doubles after every attempt in which some (edge, stage) pair
  // carries more than alpha subtree broadcasts, capped at the paper's
  // range R = ⌊√(n·s)⌋·⌊ln n⌋ and doubling freely past it. A stage length
  // of 1 over many overlapping SSSP trees forces attempts past R; replay
  // the batch's draws (the U sample, then one forked stream per attempt)
  // and count every (child, parent, stage) in a std::map to pin the number
  // of attempts, the stages of the accepted schedule and the search charge.
  // Every edge is doubled and every other tree hangs off the twin ports:
  // parallel edges to one parent are still one (child, parent) edge.
  util::Rng rng(301);
  const auto single =
      graph::connected_gnm(160, 360, graph::WeightSpec::uniform(1, 6), rng);
  graph::WeightedGraph g(single.n());
  for (Vertex v = 0; v < single.n(); ++v) {
    for (const auto& e : single.neighbors(v)) {
      if (v > e.to) continue;
      g.add_edge(v, e.to, e.w);  // ports 2j at both ends
      g.add_edge(v, e.to, e.w);  // its twin, ports 2j + 1
    }
  }
  g.freeze();
  std::vector<treeroute::TreeSpec> specs;
  for (Vertex root = 0; root < g.n(); root += 7) {
    specs.push_back(sssp_tree(g, root).spec);
    if (specs.size() % 2 == 0) {
      for (auto& port : specs.back().parent_port) {
        if (port != graph::kNoPort) port ^= 1;
      }
    }
  }
  treeroute::DistTreeBatchParams params;
  params.gamma = 8;
  params.alpha = 1;
  params.threads = 1;
  const int bfs_height = 6;
  util::Rng batch_rng(55);
  const auto batch = treeroute::build_dist_tree_batch(g, specs, params,
                                                      bfs_height, batch_rng);

  const int n = g.n();
  const auto s = static_cast<int>(specs.size());  // every tree spans V
  ASSERT_EQ(batch.max_overlap, s);
  util::Rng ref_rng(55);
  std::vector<char> in_u(static_cast<std::size_t>(n), 0);
  for (Vertex v = 0; v < n; ++v) {
    in_u[static_cast<std::size_t>(v)] =
        ref_rng.bernoulli(params.gamma / n) ? 1 : 0;
  }
  std::vector<treeroute::TreeSchedule> sched(specs.size());
  treeroute::TreeBuildScratch scratch;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    treeroute::DistTreeScheme::build(g, specs[i], in_u, scratch, &sched[i]);
  }
  const std::int64_t ln_n =
      static_cast<std::int64_t>(std::log(static_cast<double>(n)));
  const std::int64_t paper_range =
      static_cast<std::int64_t>(std::sqrt(static_cast<double>(n) * s)) * ln_n;
  std::int64_t range = 1;
  int attempts = 0;
  std::int64_t stages = 0;
  std::int64_t search = 0;
  bool passed_paper_range = false;
  for (;;) {
    ASSERT_LT(attempts, 40);
    util::Rng sched_rng = ref_rng.fork(static_cast<std::uint64_t>(attempts) +
                                       99);
    ++attempts;
    std::map<std::tuple<Vertex, Vertex, std::int64_t>, int> load;
    stages = 0;
    for (std::size_t t = 0; t < sched.size(); ++t) {
      const auto& ts = sched[t];
      std::vector<std::int64_t> start(ts.order.size(), 0);
      for (std::size_t i = 0; i < ts.order.size(); ++i) {
        if (ts.w_pos[i] == static_cast<int>(i)) {
          start[i] = static_cast<std::int64_t>(
              sched_rng.uniform(static_cast<std::uint64_t>(range)));
          continue;
        }
        const std::int64_t stage =
            start[static_cast<std::size_t>(ts.w_pos[i])] + ts.depth[i];
        stages = std::max(stages, stage + 1);
        const Vertex v = ts.order[i];  // members are 0..n-1 in spec order
        ++load[{v, specs[t].parent[static_cast<std::size_t>(v)], stage}];
      }
    }
    bool ok = true;
    for (const auto& [key, cnt] : load) ok = ok && cnt <= params.alpha;
    search += 2 * bfs_height;  // failure-bit convergecast + verdict
    if (ok) break;
    search += params.alpha * stages;  // the failed dissemination pass
    passed_paper_range = passed_paper_range || range >= paper_range;
    range = range < paper_range ? std::min(2 * range, paper_range)
                                : 2 * range;
  }
  EXPECT_GT(attempts, 1);
  EXPECT_TRUE(passed_paper_range);  // the replay covers the cap and beyond
  EXPECT_EQ(batch.schedule_attempts, attempts);
  EXPECT_EQ(batch.stages, stages);
  const auto& entries = batch.ledger.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].phase, "treeroute/phase1 schedule search");
  EXPECT_EQ(entries[0].rounds, search);
  EXPECT_EQ(entries[0].note, "attempts=" + std::to_string(attempts) +
                                 " range=" + std::to_string(range));
  EXPECT_EQ(entries[1].note, "alpha=1 stages=" + std::to_string(stages));
}

}  // namespace
}  // namespace nors
