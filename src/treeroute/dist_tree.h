#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "congest/ledger.h"
#include "graph/graph.h"
#include "primitives/bfs_tree.h"
#include "treeroute/tz_tree.h"
#include "util/random.h"

namespace nors::treeroute {

/// A tree to route on: a subgraph of g described by parent pointers over a
/// member subset (the cluster trees C̃(u) of the main scheme, or any other
/// tree). All edges must be real graph edges.
struct TreeSpec {
  graph::Vertex root = graph::kNoVertex;
  std::vector<graph::Vertex> members;  // includes root
  // Parallel to members: the tree parent of members[i] and the port toward
  // it; entries at the root's position hold kNoVertex / kNoPort.
  std::vector<graph::Vertex> parent;
  std::vector<std::int32_t> parent_port;
};

struct TreeBuildScratch;
struct TreeSchedule;

/// The paper's Section-6 tree routing scheme (Theorem 7): sampled vertices
/// U split the tree into depth-O(n/γ·log n) subtrees; a local TZ interval
/// scheme routes inside each subtree T_w, and a global TZ scheme over the
/// virtual tree T' (whose nodes are the subtree roots) stitches them
/// together through portal vertices. Routing is exact (stretch 1 on the
/// tree metric); tables are O(log n) words and labels O(log² n) words.
///
/// Storage is flat (DESIGN.md §7): tables and labels live in arrays
/// parallel to a vertex-sorted member list, per-vertex lookups are a binary
/// search, and construction keys every virtual-tree structure by a dense
/// subtree-root slot id instead of hashing vertices.
class DistTreeScheme {
 public:
  /// One light T'-edge on the path from the T'-root to w(v), together with
  /// the local routing information to reach its portal.
  struct GlobalHop {
    graph::Vertex vi = graph::kNoVertex;  // T' parent
    graph::Vertex wi = graph::kNoVertex;  // T' child (a subtree root)
    graph::Vertex portal = graph::kNoVertex;  // x_i = p_T(w_i) ∈ T_{v_i}
    TzTreeScheme::Label portal_label;          // ℓ(x_i) within T_{v_i}
    std::int32_t port = graph::kNoPort;        // e(x_i, w_i)
  };

  /// The label ℓ'(v) of a destination.
  struct VLabel {
    std::int64_t a_prime = 0;  // DFS entry time of w(v) in T'
    std::vector<GlobalHop> global_light;
    TzTreeScheme::Label local;  // ℓ(v) within T_{w(v)}

    std::int64_t words() const {
      std::int64_t w = 1 + local.words();
      for (const auto& h : global_light) w += 3 + h.portal_label.words();
      return w;
    }
  };

  /// The routing table stored at each member x. The heavy-portal label
  /// ℓ(y) is identical for every member of one subtree T_w, so it is
  /// stored once per subtree slot in the owning scheme
  /// (heavy_portal_label_at) and referenced here by `subtree_slot` —
  /// millions of resident per-member copies otherwise dominate a built
  /// scheme's footprint (DESIGN.md §9). Word accounting that includes the
  /// label lives in DistTreeScheme::table_words_at.
  struct NodeInfo {
    graph::Vertex subtree_root = graph::kNoVertex;  // w with x ∈ T_w
    TzTreeScheme::Table local;                      // table within T_w
    // Interval of w in T' (int32 for the same footprint reason as
    // TzTreeScheme::Table: T' has at most |T| nodes).
    std::int32_t a_prime = 0, b_prime = 0;
    std::int32_t subtree_slot = -1;                 // slot of w in T'
    graph::Vertex heavy_prime = graph::kNoVertex;   // h'(w)
    graph::Vertex heavy_portal = graph::kNoVertex;  // y = p_T(h'(w)) ∈ T_w
    std::int32_t heavy_port = graph::kNoPort;       // e(y, h'(w))
    std::int32_t up_port = graph::kNoPort;  // at w: port toward p_T(w)
  };

  /// Builds the scheme for one tree; in_u marks the globally sampled U.
  static DistTreeScheme build(const graph::WeightedGraph& g,
                              const TreeSpec& tree,
                              const std::vector<char>& in_u);

  /// Hot-path overload: reuses `scratch` across trees (one shared
  /// LCA/size/DFS allocation per worker thread) and, when `sched_out` is
  /// non-null, exports the per-tree data the batch's staged schedule
  /// needs so it never re-indexes the tree.
  static DistTreeScheme build(const graph::WeightedGraph& g,
                              const TreeSpec& tree,
                              const std::vector<char>& in_u,
                              TreeBuildScratch& scratch,
                              TreeSchedule* sched_out);

  /// Next port from x toward the destination labelled `dest`; kNoPort when
  /// x is the destination. The walk follows the unique tree path.
  std::int32_t next_hop(graph::Vertex x, const VLabel& dest) const;

  /// Next port from x toward the tree root (header-flag routing; needs no
  /// destination label). kNoPort when x is the root.
  std::int32_t next_hop_to_root(graph::Vertex x) const;

  bool contains(graph::Vertex v) const { return find(v) >= 0; }
  const VLabel& label(graph::Vertex v) const;
  const NodeInfo& info(graph::Vertex v) const;
  graph::Vertex root() const { return root_; }

  /// ℓ(p_T(h'(w))) within T_w for the member at position i — the label
  /// next_hop routes toward when descending via the heavy T'-child (an
  /// empty label when w has no T' children). Stored once per subtree slot.
  const TzTreeScheme::Label& heavy_portal_label_at(std::size_t i) const {
    return slot_heavy_label_[static_cast<std::size_t>(
        info_[i].subtree_slot)];
  }
  const TzTreeScheme::Label& heavy_portal_label(graph::Vertex v) const;

  /// Words of the member's routing table (paper accounting): ids, ports,
  /// intervals and the shared heavy-portal label.
  std::int64_t table_words_at(std::size_t i) const {
    return 1 + info_[i].local.words() + 2 + 1 + 1 +
           heavy_portal_label_at(i).words() + 2;
  }

  /// Vertex-sorted member list; tables/labels are parallel to it.
  const std::vector<graph::Vertex>& members() const { return members_; }
  /// Index of v in members(), or -1 (binary search).
  int find(graph::Vertex v) const;
  const VLabel& label_at(std::size_t i) const { return labels_[i]; }
  const NodeInfo& info_at(std::size_t i) const { return info_[i]; }

  // Measured construction quantities (consumed by the Remark-3 cost model).
  int max_subtree_depth() const { return max_subtree_depth_; }
  int u_count() const { return u_count_; }
  /// max over members of label(v).local.words(), ≥ 1: the payload of the
  /// Phase-1 label pass (batch accounting).
  std::int64_t max_local_label_words() const { return max_local_label_words_; }
  /// CONGEST messages of this tree's Phase-2 records: one record of
  /// 5 + |ℓ(p(u))| words per non-root T' node u (DESIGN.md §2.2); 0 when
  /// T' is the root alone.
  std::int64_t phase2_messages() const { return phase2_messages_; }

 private:
  graph::Vertex root_ = graph::kNoVertex;
  std::vector<graph::Vertex> members_;  // sorted ascending
  std::vector<NodeInfo> info_;          // parallel to members_
  std::vector<VLabel> labels_;          // parallel to members_
  // Per subtree slot: ℓ(heavy portal) within that subtree (empty when the
  // slot has no T' children); shared by all of the subtree's members.
  std::vector<TzTreeScheme::Label> slot_heavy_label_;
  int max_subtree_depth_ = 0;
  int u_count_ = 0;
  std::int64_t max_local_label_words_ = 1;
  std::int64_t phase2_messages_ = 0;
};

/// Per-tree construction view reused by the batch scheduler: members in BFS
/// order with subtree-root positions, depths and the half-edge each
/// member's broadcast crosses.
struct TreeSchedule {
  std::vector<graph::Vertex> order;  // BFS order, order[0] == root
  std::vector<int> w_pos;            // subtree-root position per member
  std::vector<int> depth;            // depth below the subtree root
  // Flat CSR index (WeightedGraph::edge_base + parent port) of the
  // half-edge from the member to its parent; 0 at the root.
  std::vector<std::uint32_t> edge;
  // Phase 2: (portal p(u), CONGEST messages of u's record) per non-root
  // T' node u.
  std::vector<std::pair<graph::Vertex, std::int32_t>> phase2;
};

/// Reusable construction arenas: one instance per worker thread, reused
/// across every tree that worker builds (DESIGN.md §7). All vectors keep
/// their peak capacity between trees, so steady-state tree construction
/// performs no allocation beyond the finished scheme's own storage.
struct TreeBuildScratch {
  // Flat indexing of the TreeSpec (BFS order, children CSR).
  std::vector<std::int32_t> perm;  // spec positions sorted by vertex
  std::vector<int> sorted_of_orig;
  std::vector<int> par, cnt, off, cursor, child, bfs, bfs_pos;
  std::vector<graph::Vertex> order;
  std::vector<int> parent_pos, orig_pos;
  std::vector<std::int32_t> parent_port;
  // Subtree decomposition under U.
  std::vector<int> w_pos, depth;
  std::vector<int> sub_cnt, sub_off, sub_members, member_rank, slot_of_pos;
  std::vector<int> roots;  // subtree-root positions, ascending
  // Local TZ schemes, flattened: tables/labels of subtree slot `s` live at
  // [sub_off[roots[s]] + rank], so one pair of tree-sized arrays serves
  // every subtree (no temporary TzTreeScheme objects).
  TzTreeScheme::BuildScratch tz;
  std::vector<TzTreeScheme::Table> tz_tables;
  std::vector<TzTreeScheme::Label> tz_labels;
  std::vector<graph::Vertex> sub_mem;  // member vertex per flat index
  std::vector<int> sub_par, sub_sorted, sorted_to_pos;
  std::vector<std::int32_t> sub_port;
  // Virtual tree T' keyed by root slot.
  std::vector<int> t_parent_slot, t_child_off, t_child_list, t_child_cursor,
      t_heavy;
  std::vector<std::int64_t> t_size, a_prime, b_prime;
  std::vector<std::vector<DistTreeScheme::GlobalHop>> t_label;
  std::vector<std::pair<int, int>> stack;
};

/// Batched construction over many trees (paper Remark 3): one shared sample
/// U (probability γ/n per vertex), one randomized staged broadcast schedule
/// whose stage lengths are counted on the actual forest edges, and a
/// RoundLedger charging the measured cost.
struct DistTreeBatchParams {
  double gamma = 0;  // 0 ⇒ γ = sqrt(n / s) as in Remark 3
  /// Worker threads for the per-tree builds: independent trees build
  /// concurrently with per-thread scratch arenas and are merged in spec
  /// order, so every output (schemes, stats, ledger) is bit-identical for
  /// any value. 0 ⇒ the NORS_THREADS environment variable (default 1).
  int threads = 0;
};

struct DistTreeBatch {
  std::vector<DistTreeScheme> schemes;  // parallel to the input specs
  congest::RoundLedger ledger;
  int max_subtree_depth = 0;
  std::int64_t u_total = 0;
  int max_overlap = 0;  // s: max #trees sharing a vertex
  /// Remark-3 staged schedule: stages of the one drawn schedule.
  std::int64_t stages = 0;
  /// Its longest stage: the max (edge, stage) load.
  int stage_length = 0;
  /// Rounds of one staged pass: Σ over stages of each stage's length, the
  /// most broadcasts one edge carries in it.
  std::int64_t stage_rounds = 0;
};

/// `specs` is consumed: each spec's storage is released as soon as its tree
/// has been built (the spec arrays and the finished schemes would otherwise
/// overlap at the batch's RSS peak — DESIGN.md §9). Pass std::move(specs)
/// on hot paths; a copy is made otherwise.
/// `bfs` is the broadcast backbone: the schedule's max-aggregations and
/// Phase 2's pipelined broadcast run over it.
DistTreeBatch build_dist_tree_batch(const graph::WeightedGraph& g,
                                    std::vector<TreeSpec> specs,
                                    const DistTreeBatchParams& params,
                                    const primitives::BfsTree& bfs,
                                    util::Rng& rng);

}  // namespace nors::treeroute
