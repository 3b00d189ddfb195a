#pragma once

#include <vector>

#include "congest/network.h"
#include "graph/graph.h"

namespace nors::primitives {

/// A rooted BFS tree of the network. Used as the broadcast/convergecast
/// backbone (paper Lemma 1); `height` is the D-like term in pipelined costs.
struct BfsTree {
  graph::Vertex root = graph::kNoVertex;
  std::vector<graph::Vertex> parent;        // kNoVertex at root
  std::vector<std::int32_t> parent_port;    // port at v toward parent
  std::vector<int> depth;                   // hops from root
  std::vector<std::vector<graph::Vertex>> children;
  int height = 0;
  std::int64_t construction_rounds = 0;  // simulated rounds to build it
};

/// Builds a BFS tree by running the flooding algorithm on the CONGEST
/// simulator (construction_rounds is the real measured count, Θ(D)).
/// `threads` (util::resolve_threads) pools the simulated rounds; the tree
/// is the same for any value.
BfsTree distributed_bfs_tree(const graph::WeightedGraph& g,
                             graph::Vertex root, int threads = 1);

/// Same tree shape computed centrally (for tests and for callers that have
/// already paid for the tree).
BfsTree centralized_bfs_tree(const graph::WeightedGraph& g,
                             graph::Vertex root);

}  // namespace nors::primitives
