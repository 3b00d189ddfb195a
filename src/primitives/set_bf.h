#pragma once

#include <vector>

#include "congest/network.h"
#include "graph/graph.h"

namespace nors::primitives {

/// Distance to the nearest vertex of a source set (exact pivots, paper §3.1
/// "Computing Pivots", small levels). Runs weighted Bellman–Ford rooted at
/// the set, message by message on the CONGEST simulator: every improvement
/// of (distance to the set, witnessing source) is re-announced to all
/// neighbors, subject to the one-message-per-edge-per-round constraint.
///
/// `rounds` is the real simulated round count. By Claim 3 the exploration
/// reaches exact distances within 4·n^{i/k}·ln n hops whp; running to
/// quiescence yields exact values regardless.
struct SetBfResult {
  std::vector<graph::Dist> dist;       // d_G(v, A)
  std::vector<graph::Vertex> source;   // the pivot: nearest A-vertex
  std::vector<graph::Vertex> parent;   // next hop toward the pivot
  std::vector<std::int32_t> parent_port;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
};

/// `threads` (util::resolve_threads) pools the simulated rounds; the
/// result is the same for any value.
SetBfResult distributed_set_bellman_ford(const graph::WeightedGraph& g,
                                         const std::vector<graph::Vertex>& set,
                                         int edge_capacity = 1,
                                         int threads = 1);

}  // namespace nors::primitives
