#pragma once

#include <cstdint>
#include <vector>

#include "congest/ledger.h"
#include "primitives/bfs_tree.h"

namespace nors::primitives {

/// Exact round count of the pipelined broadcast of paper Lemma 1 (O(M + D)
/// rounds) that simulate_pipelined_broadcast runs: vertex v holds tokens[v]
/// unit messages, every token is convergecast to the root of `tree` (one
/// per tree edge per round, each vertex forwarding FIFO), and the root
/// sends one token per round down the whole tree. Only the upcast is
/// simulated, on runs of consecutive send rounds, in O(n + Σ token depth).
/// Below the root each vertex gets at most one token per round and forwards
/// it at once, so the count is the root's last emission round plus the
/// tree height; 0 when no vertex holds a token. With M ≥ 1 tokens it lies
/// in [max(M, height), M + 2·height].
std::int64_t pipelined_broadcast_rounds(const BfsTree& tree,
                                        const std::vector<int>& tokens);

/// Runs the real thing on the simulator: each vertex v holds tokens[v] unit
/// messages; all tokens are convergecast to the root of `tree` and then
/// broadcast to every vertex. Returns the simulated round count, which tests
/// compare to pipelined_broadcast_rounds.
std::int64_t simulate_pipelined_broadcast(const graph::WeightedGraph& g,
                                          const BfsTree& tree,
                                          const std::vector<int>& tokens);

}  // namespace nors::primitives
