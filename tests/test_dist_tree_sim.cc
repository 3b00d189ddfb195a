#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "congest/message.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "primitives/bfs_tree.h"
#include "primitives/pipelined.h"
#include "treeroute/dist_tree.h"
#include "treeroute/dist_tree_sim.h"

namespace nors {
namespace {

using graph::Vertex;

graph::WeightedGraph family_graph(int family) {
  util::Rng grng(700 + static_cast<std::uint64_t>(family));
  return family == 0   ? graph::connected_gnm(150, 400,
                                              graph::WeightSpec::uniform(1, 24),
                                              grng)
         : family == 1 ? graph::torus(12, 13, graph::WeightSpec::uniform(1, 9),
                                      grng)
                       : graph::clustered(160, 5, 0.35, 40,
                                          graph::WeightSpec::uniform(1, 12),
                                          grng);
}

treeroute::TreeSpec sssp_spec(const graph::WeightedGraph& g, Vertex root) {
  const auto sp = graph::dijkstra(g, root);
  treeroute::TreeSpec spec;
  spec.root = root;
  spec.parent.assign(static_cast<std::size_t>(g.n()), graph::kNoVertex);
  spec.parent_port.assign(static_cast<std::size_t>(g.n()), graph::kNoPort);
  for (Vertex v = 0; v < g.n(); ++v) {
    spec.members.push_back(v);
    if (v == root) continue;
    spec.parent[v] = sp.parent[static_cast<std::size_t>(v)];
    spec.parent_port[v] = sp.parent_port[static_cast<std::size_t>(v)];
  }
  return spec;
}

class Phase1SimTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Phase1SimTest, IntervalsMatchCentralizedBuild) {
  util::Rng rng(GetParam());
  const auto g =
      graph::connected_gnm(120, 300, graph::WeightSpec::uniform(1, 9), rng);
  const auto spec = sssp_spec(g, 0);
  std::vector<char> in_u(static_cast<std::size_t>(g.n()), 0);
  util::Rng urng(GetParam() + 7);
  for (Vertex v = 0; v < g.n(); ++v) {
    in_u[static_cast<std::size_t>(v)] = urng.bernoulli(0.15) ? 1 : 0;
  }
  const auto sim = treeroute::simulate_phase1(g, spec, in_u);
  const auto scheme = treeroute::DistTreeScheme::build(g, spec, in_u);
  // The simulated message-level DFS must assign exactly the intervals the
  // centralized construction computes (same heavy-first order).
  for (Vertex v = 0; v < g.n(); ++v) {
    const auto& local = scheme.info(v).local;
    EXPECT_EQ(sim.a.at(v), local.a) << "v=" << v;
    EXPECT_EQ(sim.b.at(v), local.b) << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Phase1SimTest,
                         ::testing::Values(901, 902, 903, 904));

TEST(Phase1Sim, RoundsScaleWithSubtreeDepthNotTreeSize) {
  // Deep path tree: with dense U the two passes finish in O(max subtree
  // depth) rounds even though the tree has n vertices.
  util::Rng rng(911);
  const auto g = graph::path(400, graph::WeightSpec::unit(), rng);
  const auto spec = sssp_spec(g, 0);
  std::vector<char> dense(static_cast<std::size_t>(g.n()), 0);
  for (Vertex v = 0; v < g.n(); v += 20) dense[static_cast<std::size_t>(v)] = 1;
  const auto sim = treeroute::simulate_phase1(g, spec, dense);
  const auto scheme = treeroute::DistTreeScheme::build(g, spec, dense);
  EXPECT_LE(scheme.max_subtree_depth(), 20);
  // Two passes over depth-≤20 subtrees, plus wake/handoff slack.
  EXPECT_LE(sim.rounds, 3 * (scheme.max_subtree_depth() + 2));

  std::vector<char> none(static_cast<std::size_t>(g.n()), 0);
  const auto sim_deep = treeroute::simulate_phase1(g, spec, none);
  // Without sampled cut vertices the passes walk the whole depth.
  EXPECT_GE(sim_deep.rounds, 399);
}

TEST(Phase1Sim, SizesAreSubtreeSizes) {
  util::Rng rng(912);
  const auto g = graph::random_tree(150, graph::WeightSpec::unit(), rng);
  const auto spec = sssp_spec(g, 0);
  std::vector<char> in_u(static_cast<std::size_t>(g.n()), 0);
  for (Vertex v = 1; v < g.n(); v += 11) in_u[static_cast<std::size_t>(v)] = 1;
  const auto sim = treeroute::simulate_phase1(g, spec, in_u);
  // Each subtree root's size equals its interval width, and sizes of all
  // subtree roots sum to n.
  std::int64_t total = 0;
  for (Vertex v = 0; v < g.n(); ++v) {
    if (v == 0 || in_u[static_cast<std::size_t>(v)]) {
      EXPECT_EQ(sim.size.at(v), sim.b.at(v) - sim.a.at(v));
      total += sim.size.at(v);
    }
  }
  EXPECT_EQ(total, g.n());
}

TEST(DistTreeBatch, SimulatedPhase1FitsTheCharge) {
  // The staged Phase-1 charge L·stages·(3 + label factor) must stay an
  // upper bound on the message-level run of the same passes. One-tree
  // batches over each graph family of the determinism suite, where every
  // edge carries one broadcast and so L = 1; the batch's U sample is
  // replayed from its seed (γ = sqrt(n / s), s = 1).
  for (int family = 0; family < 3; ++family) {
    const auto g = family_graph(family);
    for (const Vertex root : {0, g.n() / 3, 2 * g.n() / 3}) {
      const auto spec = sssp_spec(g, root);
      const std::uint64_t seed = 40 + static_cast<std::uint64_t>(root);
      treeroute::DistTreeBatchParams params;
      params.threads = 1;
      util::Rng batch_rng(seed);
      const auto batch = treeroute::build_dist_tree_batch(
          g, {spec}, params, primitives::centralized_bfs_tree(g, 0),
          batch_rng);
      ASSERT_EQ(batch.max_overlap, 1);

      util::Rng ref_rng(seed);
      const double p_u =
          std::min(1.0, std::sqrt(static_cast<double>(g.n())) / g.n());
      std::vector<char> in_u(static_cast<std::size_t>(g.n()), 0);
      for (Vertex v = 0; v < g.n(); ++v) {
        in_u[static_cast<std::size_t>(v)] = ref_rng.bernoulli(p_u) ? 1 : 0;
      }
      const auto scheme = treeroute::DistTreeScheme::build(g, spec, in_u);
      ASSERT_EQ(batch.schemes[0].u_count(), scheme.u_count());
      ASSERT_EQ(batch.max_subtree_depth, scheme.max_subtree_depth());

      std::int64_t charged = -1;
      for (const auto& e : batch.ledger.entries()) {
        if (e.phase == "treeroute/phase1 staged subtree passes") {
          charged = e.rounds;
        }
      }
      ASSERT_EQ(batch.stage_length, 1);
      const auto sim = treeroute::simulate_phase1(g, spec, in_u);
      EXPECT_GT(sim.rounds, 0);
      EXPECT_LE(sim.rounds, charged)
          << "family=" << family << " root=" << root
          << " stages=" << batch.stages;
    }
  }
}

TEST(DistTreeBatch, SimulatedPhase2FitsTheCharge) {
  // Phase 2 is charged as a pipelined broadcast (Lemma 1) of every tree's
  // record messages. Run that broadcast on the simulator: each record's
  // portal p(u) holds its ⌈(5 + |ℓ(p(u))|) / kMaxWords⌉ messages as
  // tokens, convergecast to the BFS root and broadcast back down. The run
  // must take exactly the ledger's charge, on a batch of overlapping SSSP
  // trees over each graph family of the determinism suite.
  for (int family = 0; family < 3; ++family) {
    const auto g = family_graph(family);
    std::vector<treeroute::TreeSpec> specs;
    for (Vertex root = 0; root < g.n(); root += g.n() / 5) {
      specs.push_back(sssp_spec(g, root));
    }
    const auto bfs = primitives::centralized_bfs_tree(g, 0);
    treeroute::DistTreeBatchParams params;
    params.gamma = 24;
    params.threads = 4;
    util::Rng batch_rng(60 + static_cast<std::uint64_t>(family));
    const auto batch =
        treeroute::build_dist_tree_batch(g, specs, params, bfs, batch_rng);

    std::vector<int> tokens(static_cast<std::size_t>(g.n()), 0);
    std::int64_t total = 0;
    for (std::size_t t = 0; t < specs.size(); ++t) {
      const auto& spec = specs[t];
      const auto& s = batch.schemes[t];
      for (std::size_t i = 0; i < spec.members.size(); ++i) {
        const Vertex u = spec.members[i];
        if (u == spec.root || s.info(u).subtree_root != u) continue;
        const Vertex portal = spec.parent[i];
        const std::int64_t words = 5 + s.label(portal).local.words();
        const auto msgs = static_cast<int>(
            (words + congest::kMaxWords - 1) / congest::kMaxWords);
        tokens[static_cast<std::size_t>(portal)] += msgs;
        total += msgs;
      }
    }
    const auto& phase2 = batch.ledger.entries().back();
    ASSERT_EQ(phase2.phase, "treeroute/phase2 global broadcast");
    ASSERT_GT(total, 0);
    EXPECT_EQ(phase2.messages, total) << "family=" << family;
    const auto sim = primitives::simulate_pipelined_broadcast(g, bfs, tokens);
    EXPECT_GE(sim, total);
    EXPECT_EQ(sim, phase2.rounds)
        << "family=" << family << " messages=" << total
        << " height=" << bfs.height;
  }
}

}  // namespace
}  // namespace nors
