#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "congest/message.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "primitives/bfs_tree.h"
#include "primitives/pipelined.h"
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

/// One Phase-2 record: the portal p(u) of a non-root T' node u announces
/// the T' edge (w(p(u)), u) with its port toward u and its own local label.
/// The tree root z is the record's remaining field (one tree per call).
struct Phase2Record {
  Vertex u = graph::kNoVertex;
  Vertex vi = graph::kNoVertex;  // w(p(u)), the T' parent
  Vertex portal = graph::kNoVertex;
  std::int32_t port = graph::kNoPort;  // at the portal, toward u
  treeroute::TzTreeScheme::Label label;  // ℓ(p(u)) within T_{vi}
};

/// Records built from the spec and the Phase-1 outputs only: each member's
/// subtree root w(v) and local label, and the graph's ports.
std::vector<Phase2Record> phase2_records(const graph::WeightedGraph& g,
                                         const treeroute::TreeSpec& spec,
                                         const treeroute::DistTreeScheme& s) {
  std::vector<Phase2Record> out;
  for (std::size_t i = 0; i < spec.members.size(); ++i) {
    const Vertex u = spec.members[i];
    if (u == spec.root || s.info(u).subtree_root != u) continue;
    const Vertex p = spec.parent[i];
    out.push_back({u, s.info(p).subtree_root, p,
                   g.edge(u, spec.parent_port[i]).rev, s.label(p).local});
  }
  return out;
}

/// Each record travels alone in ⌈(5 + |ℓ|) / kMaxWords⌉ messages.
std::int64_t record_messages(const std::vector<Phase2Record>& records) {
  std::int64_t msgs = 0;
  for (const auto& r : records) {
    msgs += (5 + r.label.words() + congest::kMaxWords - 1) /
            congest::kMaxWords;
  }
  return msgs;
}

/// Adds each record's messages to its portal's tokens (its Phase-2 sends).
void add_record_tokens(const std::vector<Phase2Record>& records,
                       std::vector<int>& tokens) {
  for (const auto& r : records) {
    tokens[static_cast<std::size_t>(r.portal)] += static_cast<int>(
        (5 + r.label.words() + congest::kMaxWords - 1) / congest::kMaxWords);
  }
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
  const auto bfs = primitives::centralized_bfs_tree(g, 0);
  util::Rng batch_rng(99);
  const auto batch =
      treeroute::build_dist_tree_batch(g, specs, {}, bfs, batch_rng);
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
  const auto batch = treeroute::build_dist_tree_batch(
      g, specs, params, primitives::centralized_bfs_tree(g, 0), batch_rng);
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
  // exactly one record of ⌈(5 + |ℓ(p(u))|) / kMaxWords⌉ messages per
  // non-root T' node u, so a one-node T' costs nothing.
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
  const auto bfs = primitives::centralized_bfs_tree(g, 0);
  util::Rng batch_rng(9);
  const auto batch =
      treeroute::build_dist_tree_batch(g, specs, params, bfs, batch_rng);

  std::int64_t msgs = 0;
  std::vector<int> tokens(static_cast<std::size_t>(g.n()), 0);
  int single = 0, multi = 0;
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const auto& s = batch.schemes[t];
    const auto records = phase2_records(g, specs[t], s);
    ASSERT_EQ(static_cast<int>(records.size()), s.u_count() - 1);
    EXPECT_EQ(s.phase2_messages(), record_messages(records));
    msgs += record_messages(records);
    add_record_tokens(records, tokens);
    ++(s.u_count() >= 2 ? multi : single);
  }
  ASSERT_GT(single, 0);
  ASSERT_GT(multi, 0);
  const auto& phase2 = batch.ledger.entries().back();
  ASSERT_EQ(phase2.phase, "treeroute/phase2 global broadcast");
  EXPECT_EQ(phase2.messages, msgs);
  EXPECT_EQ(phase2.rounds, primitives::pipelined_broadcast_rounds(bfs, tokens));
}

TEST(DistTreeBatch, VirtualTreeSchemeFollowsFromPhase2Records) {
  // Phase 2 broadcasts only T': one record per non-root T' node. Rebuild
  // T' from those records alone — sizes, heavy child, DFS intervals with
  // children in root-id order, light hops — and every member's global
  // label and table fields must equal the scheme's: with T' and its own
  // w(v) a member needs no second message. The ledger must charge exactly
  // the records' messages.
  util::Rng rng(89);
  const auto g =
      graph::connected_gnm(220, 560, graph::WeightSpec::uniform(1, 9), rng);
  std::vector<treeroute::TreeSpec> specs;
  for (Vertex root = 0; root < g.n(); root += 37) {
    specs.push_back(sssp_tree(g, root).spec);
  }
  treeroute::DistTreeBatchParams params;
  params.gamma = 40;
  params.threads = 4;  // the pooled builds and verifier passes (TSan leg)
  const auto bfs = primitives::centralized_bfs_tree(g, 0);
  util::Rng batch_rng(13);
  const auto batch =
      treeroute::build_dist_tree_batch(g, specs, params, bfs, batch_rng);

  std::int64_t msgs = 0;
  std::vector<int> tokens(static_cast<std::size_t>(g.n()), 0);
  std::int64_t light_hops = 0;
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const auto& s = batch.schemes[t];
    const Vertex z = specs[t].root;
    const auto records = phase2_records(g, specs[t], s);
    msgs += record_messages(records);
    add_record_tokens(records, tokens);

    // T' from the records only.
    std::map<Vertex, const Phase2Record*> rec_of;
    std::map<Vertex, std::vector<Vertex>> children;  // sorted by root id
    children[z];
    for (const auto& r : records) {
      rec_of[r.u] = &r;
      children[r.vi].push_back(r.u);
      children[r.u];
    }
    for (auto& [v, ch] : children) std::sort(ch.begin(), ch.end());
    std::map<Vertex, std::int64_t> size, a;
    std::map<Vertex, Vertex> heavy;
    const auto sizes = [&](auto&& self, Vertex v) -> std::int64_t {
      std::int64_t sz = 1, best = -1;
      heavy[v] = graph::kNoVertex;
      for (const Vertex c : children[v]) {
        const std::int64_t sc = self(self, c);
        sz += sc;
        if (sc > best) {  // the first of the largest
          best = sc;
          heavy[v] = c;
        }
      }
      return size[v] = sz;
    };
    ASSERT_EQ(sizes(sizes, z), s.u_count());
    using Hops = std::vector<treeroute::DistTreeScheme::GlobalHop>;
    std::map<Vertex, Hops> light;
    std::int64_t clock = 0;
    const auto dfs = [&](auto&& self, Vertex v, const Hops& hops) -> void {
      a[v] = clock++;
      light[v] = hops;
      for (const Vertex c : children[v]) {
        Hops next = hops;
        if (c != heavy[v]) {
          const auto& r = *rec_of.at(c);
          next.push_back({v, c, r.portal, r.label, r.port});
        }
        self(self, c, next);
      }
    };
    dfs(dfs, z, {});
    ASSERT_EQ(clock, s.u_count());

    for (const Vertex x : specs[t].members) {
      const Vertex w = s.info(x).subtree_root;  // x's own Phase-1 output
      const auto& ni = s.info(x);
      const auto& lbl = s.label(x);
      EXPECT_EQ(ni.a_prime, a.at(w)) << "x=" << x;
      EXPECT_EQ(ni.b_prime, a.at(w) + size.at(w)) << "x=" << x;
      EXPECT_EQ(lbl.a_prime, a.at(w)) << "x=" << x;
      const Hops& want = light.at(w);
      ASSERT_EQ(lbl.global_light.size(), want.size()) << "x=" << x;
      for (std::size_t h = 0; h < want.size(); ++h) {
        const auto& got = lbl.global_light[h];
        EXPECT_EQ(got.vi, want[h].vi);
        EXPECT_EQ(got.wi, want[h].wi);
        EXPECT_EQ(got.portal, want[h].portal);
        EXPECT_EQ(got.port, want[h].port);
        EXPECT_EQ(got.portal_label.a, want[h].portal_label.a);
        EXPECT_EQ(got.portal_label.light, want[h].portal_label.light);
      }
      light_hops += static_cast<std::int64_t>(want.size());
      const Vertex h = heavy.at(w);
      EXPECT_EQ(ni.heavy_prime, h) << "x=" << x;
      const auto& hl = s.heavy_portal_label(x);
      if (h == graph::kNoVertex) {
        EXPECT_EQ(ni.heavy_portal, graph::kNoVertex);
        EXPECT_EQ(ni.heavy_port, graph::kNoPort);
        EXPECT_EQ(hl.a, 0);
        EXPECT_TRUE(hl.light.empty());
      } else {
        const auto& r = *rec_of.at(h);
        EXPECT_EQ(ni.heavy_portal, r.portal) << "x=" << x;
        EXPECT_EQ(ni.heavy_port, r.port) << "x=" << x;
        EXPECT_EQ(hl.a, r.label.a) << "x=" << x;
        EXPECT_EQ(hl.light, r.label.light) << "x=" << x;
      }
    }
  }
  ASSERT_GT(light_hops, 0);  // the rebuild covered light T' edges too
  const auto& phase2 = batch.ledger.entries().back();
  ASSERT_EQ(phase2.phase, "treeroute/phase2 global broadcast");
  EXPECT_EQ(phase2.messages, msgs);
  EXPECT_EQ(phase2.rounds, primitives::pipelined_broadcast_rounds(bfs, tokens));
}

TEST(DistTreeBatch, StageLengthsMatchABruteForceCount) {
  // Phase 1 draws its staged schedule once: every subtree root's start
  // stage uniformly from [0, r), r the largest power of two ≤
  // max(1, min(s, d/2)) for overlap s and max subtree depth d. Replay the
  // batch's draws (the U sample, then the forked schedule stream) and
  // count every (child, parent, stage) in a std::map: stage j lasts len_j
  // rounds, the most broadcasts any one edge carries in it, so one staged
  // pass takes Σ_j len_j. The merged DFS + label pass sends each member
  // ⌈(2 + 2·|ℓ(v).light|) / kMaxWords⌉ messages, so its stage j lasts
  // len^w_j, the most of those parts one edge carries in it, and Phase 1's
  // three passes take 2·Σ_j len_j + Σ_j len^w_j. Every edge is doubled and
  // every other tree hangs off the twin ports: parallel edges to one parent
  // are still one (child, parent) edge.
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
  const double gamma = 8;
  const auto bfs = primitives::centralized_bfs_tree(g, 0);
  const int n = g.n();

  // Returns the drawn schedule's longest stage.
  const auto check = [&](const std::vector<treeroute::TreeSpec>& batch_specs,
                         std::int64_t want_range) -> int {
    const auto s = static_cast<int>(batch_specs.size());  // each spans V
    util::Rng ref_rng(55);
    std::vector<char> in_u(static_cast<std::size_t>(n), 0);
    for (Vertex v = 0; v < n; ++v) {
      in_u[static_cast<std::size_t>(v)] = ref_rng.bernoulli(gamma / n) ? 1 : 0;
    }
    std::vector<treeroute::TreeSchedule> sched(batch_specs.size());
    treeroute::TreeBuildScratch scratch;
    int depth = 0;
    // The merged pass's parts per member, from the schemes' own labels.
    std::vector<std::vector<int>> parts(batch_specs.size());
    for (std::size_t i = 0; i < batch_specs.size(); ++i) {
      const auto scheme = treeroute::DistTreeScheme::build(
          g, batch_specs[i], in_u, scratch, &sched[i]);
      depth = std::max(depth, scheme.max_subtree_depth());
      for (const Vertex v : batch_specs[i].members) {
        const auto light = static_cast<int>(scheme.label(v).local.light.size());
        parts[i].push_back((2 + 2 * light + congest::kMaxWords - 1) /
                           congest::kMaxWords);
      }
    }
    std::int64_t range = 1;
    while (2 * range <= std::max(1, std::min(s, depth / 2))) range *= 2;
    EXPECT_EQ(range, want_range) << "s=" << s << " depth=" << depth;

    util::Rng draws = ref_rng.fork(99);
    // (child, parent, stage) -> (broadcasts, merged-pass parts)
    std::map<std::tuple<Vertex, Vertex, std::int64_t>, std::pair<int, int>>
        load;
    std::int64_t stages = 0;
    for (std::size_t t = 0; t < sched.size(); ++t) {
      const auto& ts = sched[t];
      std::vector<std::int64_t> start(ts.order.size(), 0);
      for (std::size_t i = 0; i < ts.order.size(); ++i) {
        if (ts.w_pos[i] == static_cast<int>(i)) {
          start[i] = static_cast<std::int64_t>(
              draws.uniform(static_cast<std::uint64_t>(range)));
          continue;
        }
        const std::int64_t stage =
            start[static_cast<std::size_t>(ts.w_pos[i])] + ts.depth[i];
        stages = std::max(stages, stage + 1);
        const Vertex v = ts.order[i];  // members are 0..n-1 in spec order
        auto& [cnt, sum] =
            load[{v, batch_specs[t].parent[static_cast<std::size_t>(v)], stage}];
        ++cnt;
        sum += parts[t][static_cast<std::size_t>(v)];
      }
    }
    // stage -> max over edges of (broadcasts, parts)
    std::map<std::int64_t, std::pair<int, int>> len;
    for (const auto& [key, cnt_sum] : load) {
      auto& [l, l_w] = len[std::get<2>(key)];
      l = std::max(l, cnt_sum.first);
      l_w = std::max(l_w, cnt_sum.second);
    }
    int max_load = 0;
    std::int64_t pass = 0, label_pass = 0;
    for (const auto& [stage, l] : len) {
      max_load = std::max(max_load, l.first);
      pass += l.first;
      label_pass += l.second;
    }
    EXPECT_GT(label_pass, pass);  // some member's message has several parts

    treeroute::DistTreeBatchParams params;
    params.gamma = gamma;
    params.threads = 1;
    util::Rng batch_rng(55);
    const auto batch = treeroute::build_dist_tree_batch(
        g, batch_specs, params, bfs, batch_rng);
    EXPECT_EQ(batch.max_overlap, s);
    EXPECT_EQ(batch.max_subtree_depth, depth);
    EXPECT_EQ(batch.stages, stages);
    EXPECT_EQ(batch.stage_length, max_load);
    EXPECT_EQ(batch.stage_rounds, pass);
    EXPECT_EQ(batch.label_rounds, label_pass);
    const auto& entries = batch.ledger.entries();
    EXPECT_EQ(entries.size(), 3u);
    if (entries.size() != 3u) return max_load;
    // Three max-aggregations over the BFS tree: s, d and termination.
    EXPECT_EQ(entries[0].phase, "treeroute/phase1 schedule");
    EXPECT_EQ(entries[0].rounds, 6 * bfs.height);
    EXPECT_EQ(entries[0].note, "range=" + std::to_string(range) +
                                   " s=" + std::to_string(s) +
                                   " depth=" + std::to_string(depth));
    EXPECT_EQ(entries[1].rounds, 2 * pass + label_pass);
    EXPECT_EQ(entries[1].note, "stages=" + std::to_string(stages) +
                                   " pass=" + std::to_string(pass) +
                                   " label_pass=" + std::to_string(label_pass) +
                                   " max_load=" + std::to_string(max_load));
    return max_load;
  };

  // 23 overlapping trees of subtree depth 8: the depth arm sets r = 4,
  // and shared edges carry several broadcasts in one stage.
  {
    SCOPED_TRACE("overlapping");
    EXPECT_GT(check(specs, 4), 1);
  }
  // One tree: s = 1 pins the range at 1.
  {
    SCOPED_TRACE("single");
    check({specs[1]}, 1);
  }
}

}  // namespace
}  // namespace nors
