#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "treeroute/dist_tree.h"

namespace nors::treeroute {

/// Message-level execution of the paper's §6 Phase 1 on the CONGEST
/// simulator: (a) subtree-size convergecast inside every forest subtree
/// T_w in parallel, (b) the merged DFS + label pass — each vertex, holding
/// its own [a,b) and light list and its children's sizes, hands every
/// child its [a,b) interval and the light list of its local label, the
/// 2 + 2·|light| words split into ⌈(2 + 2·|light|) / kMaxWords⌉ messages
/// sent over consecutive rounds.
///
/// The interval assignment replicates the centralized TzTreeScheme order
/// (heavy child first, then ascending), so the simulated intervals and
/// light lists must equal the ones DistTreeScheme::build computes — the
/// test for the accounted Phase-1 charge.
struct Phase1SimResult {
  std::int64_t rounds = 0;       // total simulated rounds (both passes)
  std::int64_t messages = 0;
  std::unordered_map<graph::Vertex, std::int64_t> a;  // DFS entry times
  std::unordered_map<graph::Vertex, std::int64_t> b;  // DFS exit times
  std::unordered_map<graph::Vertex, std::int64_t> size;  // subtree sizes
  // Light list of each member's local label ℓ(v): (vertex, port at vertex).
  std::unordered_map<graph::Vertex,
                     std::vector<std::pair<graph::Vertex, std::int32_t>>>
      light;
};

Phase1SimResult simulate_phase1(const graph::WeightedGraph& g,
                                const TreeSpec& tree,
                                const std::vector<char>& in_u);

}  // namespace nors::treeroute
