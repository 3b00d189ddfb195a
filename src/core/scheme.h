#pragma once

#include <memory>
#include <vector>

#include "congest/ledger.h"
#include "core/clusters.h"
#include "core/params.h"
#include "core/pivots.h"
#include "graph/graph.h"
#include "treeroute/dist_tree.h"

namespace nors::core {

/// The paper's main artifact (Theorem 5): a compact routing scheme with
/// tables Õ(n^{1/k}), labels O(k log² n), stretch 4k-5+o(1), constructed by
/// a distributed algorithm whose round cost is tracked on a ledger
/// (simulated phases measured, accounted phases charged — DESIGN.md §3).
///
/// This class is the *construction-side* view: it holds the frozen CSR
/// graph by reference and routes by walking real edges. For serving-side
/// use (answer route queries fast, without the builder state or the graph
/// object), snapshot it with serve::FrozenScheme::freeze() — DESIGN.md §5.
class RoutingScheme {
 public:
  struct RouteResult {
    bool ok = false;
    graph::Dist length = 0;
    int hops = 0;
    graph::Vertex tree_root = graph::kNoVertex;
    int tree_level = -1;
    bool via_trick = false;
    std::vector<graph::Vertex> path;  // visited vertices, including u and v
  };

  /// One per-level entry of a vertex label: the pivot ẑ_i(v), the
  /// (approximate) distance to it, and — when v ∈ C̃(ẑ_i(v)) — v's tree
  /// label in that cluster tree.
  struct LabelEntry {
    graph::Vertex pivot = graph::kNoVertex;
    graph::Dist pivot_dist = graph::kDistInf;
    bool member = false;
    treeroute::DistTreeScheme::VLabel tree_label;
  };

  /// Runs the full distributed construction. `g` must be frozen (CSR
  /// phase); the returned scheme keeps a reference to it (routing walks its
  /// edges), so the graph must outlive the scheme and keep a stable
  /// address.
  static RoutingScheme build(const graph::WeightedGraph& g,
                             const SchemeParams& params);

  /// The frozen CSR graph the scheme was built on.
  const graph::WeightedGraph& graph() const { return *g_; }

  /// Routes a packet from u to v over real edges, using only u's table,
  /// intermediate routing tables, and v's label (no handshaking).
  RouteResult route(graph::Vertex u, graph::Vertex v) const;

  std::int64_t table_words(graph::Vertex v) const;
  std::int64_t label_words(graph::Vertex v) const;
  /// Number of cluster trees containing v (Claim 2: Õ(n^{1/k}) whp).
  int overlap(graph::Vertex v) const;

  const congest::RoundLedger& ledger() const { return ledger_; }
  std::int64_t total_rounds() const { return ledger_.total_rounds(); }
  /// The analytic stretch guarantee for these parameters.
  double stretch_bound() const;
  const SchemeParams& params() const { return params_; }
  const PivotTable& pivots() const { return pivots_; }
  const std::vector<ClusterTree>& trees() const { return trees_; }
  const treeroute::DistTreeScheme& tree_scheme(std::size_t idx) const {
    return tree_schemes_->schemes[idx];
  }
  int tree_index(graph::Vertex root) const;
  std::int64_t pruned_members() const { return pruned_; }
  /// Vertices the middle level's join-pruned sweeps settled (n per root
  /// that ran the full detection row); |S|·n would mean nothing pruned.
  std::int64_t middle_settled() const { return middle_settled_; }
  int coverage_retries() const { return coverage_retries_; }
  int beta() const { return beta_; }

  /// The label of v at level i — what the packet header carries.
  const LabelEntry& label_entry(graph::Vertex v, int i) const {
    return labels_[static_cast<std::size_t>(v) *
                       static_cast<std::size_t>(params_.k) +
                   static_cast<std::size_t>(i)];
  }

  /// Hierarchy level of v (max i with v ∈ A_i); exposes the sampled
  /// hierarchy so tests can reconstruct the sets A_i.
  int vertex_level(graph::Vertex v) const {
    return level_[static_cast<std::size_t>(v)];
  }

  /// The 4k-5 trick label stored at a level-0 root for one of its cluster
  /// members (throws if absent). Trick labels are exactly the member labels
  /// of the root's own cluster tree, so they are served straight from the
  /// tree scheme — no separate label store survives construction.
  const treeroute::DistTreeScheme::VLabel& trick_label(
      graph::Vertex root, graph::Vertex dest) const {
    const int ti = tree_index(root);
    NORS_CHECK_MSG(params_.label_trick && ti >= 0 &&
                       trees_[static_cast<std::size_t>(ti)].level == 0,
                   "no trick labels at vertex " << root);
    return tree_schemes_->schemes[static_cast<std::size_t>(ti)].label(dest);
  }

 private:
  friend class DistanceEstimation;

  const graph::WeightedGraph* g_ = nullptr;
  SchemeParams params_;
  congest::RoundLedger ledger_;
  PivotTable pivots_;
  std::vector<ClusterTree> trees_;
  std::vector<int> tree_of_root_;  // per vertex: index into trees_, or -1
  std::shared_ptr<treeroute::DistTreeBatch> tree_schemes_;
  // Flat label arena, one k-entry stride per vertex: entry (v, i) lives at
  // labels_[v*k + i] — same layout serve::FrozenScheme snapshots.
  std::vector<LabelEntry> labels_;
  std::vector<int> level_;  // hierarchy level per vertex
  std::int64_t pruned_ = 0;
  std::int64_t middle_settled_ = 0;
  int coverage_retries_ = 0;
  int beta_ = 0;
};

}  // namespace nors::core
