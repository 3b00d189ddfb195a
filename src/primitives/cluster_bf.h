#pragma once

#include <functional>
#include <vector>

#include "congest/network.h"
#include "graph/graph.h"

namespace nors::primitives {

/// One vertex's membership record in one root's exploration.
struct ClusterEntry {
  graph::Dist dist = graph::kDistInf;      // b_v(u)
  graph::Vertex parent = graph::kNoVertex; // tree parent (real graph edge)
  std::int32_t parent_port = graph::kNoPort;
};

/// Multi-root bounded Bellman–Ford explorations run concurrently on the
/// CONGEST simulator (paper §3.2 "Building the Small Trees"). Every root u
/// starts an exploration; a vertex v that hears (u, b) joins u's cluster iff
/// admit(v, u, b) holds, stores its parent, and forwards. Congestion is
/// real: each directed edge carries `edge_capacity` messages per round, so
/// the measured `rounds` reflects the Õ(n^{1/k}) per-iteration overlap
/// congestion the paper analyses via Claim 2.
///
/// Roots are identified by a dense slot id (their index in the input root
/// list). Membership records come back as one CSR over vertices — per
/// vertex, its (root slot, record) pairs in join order — flattened from the
/// program's arena-chunked per-vertex lists (DESIGN.md §9), so the result
/// is three flat arrays rather than n heap vectors.
struct ClusterBfResult {
  std::vector<graph::Vertex> roots;  // slot -> root vertex (input order)
  // CSR by vertex: v's records are (slot[e], rec[e]) for
  // e in [off[v], off[v+1]), in join order.
  std::vector<std::size_t> off;        // n+1
  std::vector<std::int32_t> slot;      // root slot per record
  std::vector<ClusterEntry> rec;       // parallel to slot
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t max_link_backlog = 0;

  std::size_t entry_count(graph::Vertex v) const {
    return off[static_cast<std::size_t>(v) + 1] -
           off[static_cast<std::size_t>(v)];
  }
};

/// admit(v, root, dist): may v join root's cluster at this distance?
/// Roots always hold their own entry with dist 0 (admit is not consulted).
/// With threads > 1 it is called concurrently for distinct v.
using AdmitFn =
    std::function<bool(graph::Vertex v, graph::Vertex root, graph::Dist d)>;

/// `threads`: workers for the simulated rounds (Network::Options::threads;
/// 0 consults NORS_THREADS, 1 is serial). Each vertex's handler touches only
/// v's own entry list and queue, allocating from its worker's arena, and the
/// engine merges sends in vertex order, so the result, rounds and messages
/// are bit-identical for any value.
ClusterBfResult distributed_cluster_bellman_ford(
    const graph::WeightedGraph& g, const std::vector<graph::Vertex>& roots,
    const AdmitFn& admit, int edge_capacity = 1, int threads = 1);

}  // namespace nors::primitives
