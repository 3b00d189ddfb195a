#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "baselines/spanner.h"
#include "congest/ledger.h"
#include "graph/graph.h"
#include "primitives/bfs_tree.h"
#include "treeroute/tz_tree.h"

namespace nors::baselines {

/// LP13a-style routing baseline (paper Table 1, [LP13a] row): a skeleton of
/// ≈ √n·ln n sampled vertices, a Baswana–Sen spanner over the skeleton's
/// virtual graph that is broadcast to *every* vertex (hence tables of
/// Ω(√n) words — the weakness the paper's scheme removes), Voronoi trees
/// for the first/last mile. Stretch is O(k); round cost is charged
/// Õ(n^{1/2+1/k} + D) on the ledger.
class LpBaselineScheme {
 public:
  struct Params {
    int k = 3;
    std::uint64_t seed = 1;
    double skeleton_factor = 1.0;  // scales the √n·ln n sample size
  };

  struct RouteResult {
    bool ok = false;
    graph::Dist length = 0;
    int hops = 0;
  };

  /// Keeps a reference to `g`; the graph must outlive the scheme and keep
  /// a stable address. `bfs` is the broadcast backbone the ledger charges.
  static LpBaselineScheme build(const graph::WeightedGraph& g,
                                const Params& params,
                                const primitives::BfsTree& bfs);

  RouteResult route(graph::Vertex u, graph::Vertex v) const;

  std::int64_t table_words(graph::Vertex v) const;
  std::int64_t label_words(graph::Vertex v) const;
  const congest::RoundLedger& ledger() const { return ledger_; }
  std::int64_t skeleton_size() const {
    return static_cast<std::int64_t>(skeleton_.size());
  }
  std::int64_t spanner_edges() const {
    return static_cast<std::int64_t>(spanner_.size());
  }

 private:
  struct SkeletonEdge {
    graph::Vertex r1, r2;  // skeleton endpoints
    graph::Dist w;         // virtual weight d(r1,x)+w(x,y)+d(y,r2)
    graph::Vertex x, y;    // realizing graph edge
    treeroute::TzTreeScheme::Label x_label;  // ℓ(x) in Vor(r1)
    std::int32_t xy_port;                    // port at x toward y
  };

  const graph::WeightedGraph* g_ = nullptr;
  Params params_;
  congest::RoundLedger ledger_;
  std::vector<graph::Vertex> skeleton_;
  std::vector<graph::Vertex> vor_root_;   // nearest skeleton vertex
  std::vector<graph::Dist> vor_dist_;
  std::vector<SpannerEdge> spanner_;      // virtual (skeleton) spanner
  // Voronoi tree scheme per skeleton root.
  std::unordered_map<graph::Vertex, treeroute::TzTreeScheme> vor_trees_;
  // Spanner edges with realization info, indexed for the router; key is
  // (min(r1,r2), max(r1,r2)).
  std::vector<SkeletonEdge> skeleton_edges_;
  std::unordered_map<std::int64_t, std::vector<int>> skeleton_adj_;

  std::vector<graph::Vertex> spanner_path(graph::Vertex r_from,
                                          graph::Vertex r_to) const;
};

}  // namespace nors::baselines
