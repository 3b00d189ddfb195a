#pragma once

#include <algorithm>
#include <vector>

#include "congest/ledger.h"
#include "core/params.h"
#include "core/pivots.h"
#include "graph/graph.h"
#include "hopset/hopset.h"
#include "primitives/hierarchy.h"
#include "primitives/source_detection.h"
#include "util/random.h"

namespace nors::core {

/// How a hierarchy level is constructed (paper §3.2–3.3).
enum class LevelKind { kSmall, kMiddle, kLarge };
LevelKind classify_level(int i, int k);

/// §3.3.1 preprocessing shared by all large levels and the approximate SPTs
/// (Theorem 3): V' = A_{⌈k/2⌉}, B-hop source detection from V', the virtual
/// graph G' on V', a path-reporting hopset F for G', and the combined G''.
struct Preprocess {
  std::vector<graph::Vertex> vprime;  // ascending; source order of `sd`
  std::vector<int> vp_index;          // graph vertex -> V' index or -1
  primitives::SourceDetectionResult sd;
  graph::WeightedGraph gprime;  // on V' indices
  hopset::Hopset hs;            // on gprime
  std::int64_t b_hops = 0;

  /// One adjacency over G'' = G' ∪ F: hopset_id ≥ 0 marks a hopset edge
  /// (indexing hs.edges) whose realizing path Phase 1.5 must walk.
  struct GppEdge {
    int to = -1;
    graph::Dist w = 0;
    int hopset_id = -1;
  };
  std::vector<std::vector<GppEdge>> gpp_adj;

  int beta() const { return hs.beta; }
};

Preprocess build_preprocess(const graph::WeightedGraph& g,
                            const primitives::Hierarchy& h,
                            const SchemeParams& params, int bfs_height,
                            congest::RoundLedger& ledger, util::Rng& rng);

/// Fills the approximate pivot rows (levels > last_exact_pivot_level) of
/// `pivots` via Theorem 3: β Bellman–Ford iterations over G'' rooted at A_i,
/// then extension to all of V through the source-detection values (40).
void compute_approx_pivots(const graph::WeightedGraph& g,
                           const primitives::Hierarchy& h,
                           const Preprocess& pre, PivotTable& pivots,
                           int bfs_height, congest::RoundLedger& ledger);

/// One member of a cluster tree C̃(u).
struct ClusterMember {
  graph::Dist b = graph::kDistInf;          // b_v(u)
  graph::Vertex parent = graph::kNoVertex;  // real graph edge to the tree
  std::int32_t parent_port = graph::kNoPort;
};

/// A cluster tree: root u at `level`, members with approximate distances
/// satisfying (10) and parents satisfying Claim 7.
///
/// Flat memory (DESIGN.md §7): `members` is vertex-sorted and `info` is
/// parallel to it, so iteration is a linear scan, membership is a binary
/// search, and converting to a TreeSpec is a straight copy — no hash map
/// and no re-sort anywhere on the build path.
struct ClusterTree {
  graph::Vertex root = graph::kNoVertex;
  int level = -1;
  std::vector<graph::Vertex> members;  // sorted ascending, includes root
  std::vector<ClusterMember> info;     // parallel to members

  std::size_t size() const { return members.size(); }

  /// Index of v in members, or -1 (binary search).
  int find(graph::Vertex v) const {
    const auto it = std::lower_bound(members.begin(), members.end(), v);
    if (it == members.end() || *it != v) return -1;
    return static_cast<int>(it - members.begin());
  }
  bool contains(graph::Vertex v) const { return find(v) >= 0; }
  const ClusterMember& member(graph::Vertex v) const {
    const int i = find(v);
    NORS_CHECK_MSG(i >= 0, "vertex " << v << " not in cluster tree");
    return info[static_cast<std::size_t>(i)];
  }

  /// Appends (v, m); callers must append in ascending vertex order.
  void add(graph::Vertex v, const ClusterMember& m) {
    NORS_CHECK_MSG(members.empty() || members.back() < v,
                   "cluster members must be added in ascending order");
    members.push_back(v);
    info.push_back(m);
  }
};

/// §3.2 small levels: exact clusters via simulated multi-root Bellman–Ford,
/// join condition (11) b < d(v, A_{i+1}) with the exact pivot distances.
std::vector<ClusterTree> build_small_level_trees(
    const graph::WeightedGraph& g, const primitives::Hierarchy& h, int level,
    const PivotTable& pivots, const SchemeParams& params,
    congest::RoundLedger& ledger);

/// §3.2 middle level (odd k only): Theorem-1 source detection from
/// S = A_i \ A_{i+1}, join iff b_v(u) < d(v, A_{i+1}), parents via Remark 1.
/// The sweeps are join-pruned (primitives::cluster_detection_stream);
/// `settled`, when given, receives the vertices they settled.
std::vector<ClusterTree> build_middle_level_trees(
    const graph::WeightedGraph& g, const primitives::Hierarchy& h, int level,
    const PivotTable& pivots, const SchemeParams& params, int bfs_height,
    congest::RoundLedger& ledger, std::int64_t* settled = nullptr);

/// §3.3.2 large levels: Phase 1 (β-iteration bounded Bellman–Ford on G''
/// with condition (14)), Phase 1.5 (path-reporting fix-up of hopset-edge
/// parents), Phase 2 (extension to V with condition (15)). Per-root state
/// lives in one dense |V'| × |roots| slot arena (root slot = index into the
/// level's root list), so every sweep is a linear scan.
std::vector<ClusterTree> build_large_level_trees(
    const graph::WeightedGraph& g, const primitives::Hierarchy& h, int level,
    const PivotTable& pivots, const Preprocess& pre,
    const SchemeParams& params, int bfs_height, congest::RoundLedger& ledger);

/// Validates Claim 7 on every tree (parent is a member over a real edge and
/// b_v ≥ w(v,p) + b_p), pruning any member whose parent chain is broken
/// (possible only when a whp sampling event failed). Returns the number of
/// pruned members — 0 in every healthy construction. Trees are checked on a
/// pool of `threads` workers (0 consults NORS_THREADS); the result is the
/// same for any value.
std::int64_t sanitize_trees(const graph::WeightedGraph& g,
                            std::vector<ClusterTree>& trees, int threads = 1);

}  // namespace nors::core
