// Substrate tour: the CONGEST-model building blocks the paper's algorithm
// stands on, run for real on the simulator — BFS tree construction,
// multi-source Bellman–Ford, pipelined broadcast (Lemma 1), and the
// hop-bounded approximate source detection of [Nan14] (Theorem 1).
//
//   $ ./examples/congest_primitives

#include <cstdio>

#include "graph/generators.h"
#include "graph/properties.h"
#include "primitives/bfs_tree.h"
#include "primitives/pipelined.h"
#include "primitives/set_bf.h"
#include "primitives/source_detection.h"

int main() {
  using namespace nors;

  util::Rng rng(3);
  const auto g =
      graph::connected_gnm(200, 520, graph::WeightSpec::uniform(1, 25), rng);
  std::printf("network: n=%d m=%lld hop-diameter D=%d\n\n", g.n(),
              static_cast<long long>(g.m()), graph::hop_diameter(g));

  // 1. BFS tree: Θ(D) rounds of real message passing.
  const auto tree = primitives::distributed_bfs_tree(g, 0);
  std::printf("[1] BFS tree from 0: height %d, built in %lld rounds\n",
              tree.height, static_cast<long long>(tree.construction_rounds));

  // 2. Pipelined broadcast (paper Lemma 1): M messages reach everyone in
  //    O(M + D) rounds, not M·D.
  std::vector<int> tokens(static_cast<std::size_t>(g.n()), 0);
  int total = 0;
  for (graph::Vertex v = 0; v < g.n(); v += 9) {
    tokens[static_cast<std::size_t>(v)] = 2;
    total += 2;
  }
  const auto rounds = primitives::simulate_pipelined_broadcast(g, tree, tokens);
  std::printf("[2] pipelined broadcast of %d messages: %lld rounds "
              "(Lemma-1 charge %lld)\n",
              total, static_cast<long long>(rounds),
              static_cast<long long>(
                  primitives::pipelined_broadcast_rounds(tree, tokens)));

  // 3. Set Bellman–Ford: every vertex learns its distance to a vertex set —
  //    the exact-pivot computation of the routing scheme.
  const std::vector<graph::Vertex> landmarks{10, 80, 150};
  const auto bf = primitives::distributed_set_bellman_ford(g, landmarks);
  std::printf("[3] set Bellman-Ford from %zu landmarks: %lld rounds, "
              "%lld messages; e.g. d(5, set) = %lld via landmark %d\n",
              landmarks.size(), static_cast<long long>(bf.rounds),
              static_cast<long long>(bf.messages),
              static_cast<long long>(bf.dist[5]), bf.source[5]);

  // 4. Source detection ([Nan14]): hop-bounded (1+ε)-approximate distances
  //    from many sources at once.
  const auto sd = primitives::source_detection(g, landmarks, /*hop_bound=*/8,
                                               util::Epsilon(1, 10),
                                               tree.height);
  std::printf("[4] source detection (B=8, eps=1/10): %d scales executed, "
              "round charge %lld; d^B(5 -> landmark0) ~ %lld\n",
              sd.executed_scales, static_cast<long long>(sd.round_cost),
              static_cast<long long>(sd.d(0, 5)));
  return 0;
}
