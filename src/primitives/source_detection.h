#pragma once

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "congest/ledger.h"
#include "graph/graph.h"
#include "util/ratio.h"

namespace nors::primitives {

/// Multi-source hop-bounded (1+ε)-approximate distance computation — the
/// paper's Theorem 1 ([Nan14, Thm 3.6]). Every vertex u learns, for every
/// source v, a value d_uv with
///
///     d^(B)_G(u,v) ≤ d_uv ≤ (1+ε) d^(B)_G(u,v)                      (2)
///
/// and (Remark 1) a neighbor p = p_v(u) with d_uv ≥ w(u,p) + d_pv.    (3)
///
/// Implementation (DESIGN.md §2.3): the weight-rounding scheme underlying
/// [Nan14]. For each distance scale 2^s we quantize edge weights to
/// q_s = max(1, ⌊ε·2^s/(2B)⌋), run exact hop-bounded Bellman–Ford on the
/// quantized weights *truncated at the scale's window*
/// cap_s = ⌈2^s/q_s⌉ + B quantized units (the truncation is what bounds the
/// number of distance levels per scale in [Nan14] — and what makes the
/// output genuinely (1+ε)-approximate for large distances rather than
/// collapsing into one exact sweep), and take the minimum over scales.
/// Values satisfy (2)–(3) *exactly* (integer arithmetic throughout), and
/// are symmetric between sources (footnote 8): per-scale runs are
/// symmetric, and the early-exit below only fires once a scale is
/// exact-complete, which coarser scales cannot improve.
///
/// Round cost charged: per executed scale, |sources| + min(B, hop layers
/// used) + 2·bfs_height — the pipelined schedule of [Nan14] evaluated on
/// measured quantities. Scales stop early once an untruncated quantum-1
/// sweep has converged (its values are the complete exact d^(B)).

/// Measured quantities of one source-detection call (the ledger inputs).
struct SourceDetectionStats {
  std::int64_t round_cost = 0;
  int distinct_scales = 0;  // scales in the schedule
  int executed_scales = 0;  // scales actually run (early exit)
  int max_iterations = 0;
};

/// Streaming row consumer: called exactly once per source index with that
/// source's finalized distance/parent-port row (length n, min over scales).
/// Rows are produced source-major, so the |sources| × n slab is never
/// materialized — each pool worker rewrites one row buffer per source
/// (DESIGN.md §9). With threads > 1 the sink runs concurrently on distinct
/// source indices from pool workers; it must write only state owned by its
/// source index. Row contents are bit-identical to the slab-materializing
/// overload for every source regardless of the pool size or the execution
/// order (per-source sweeps are independent, and each source's scale
/// schedule depends only on its own outcomes).
using SourceRowSink =
    std::function<void(int si, std::span<const graph::Dist> dist,
                       std::span<const std::int32_t> parent_port)>;

/// `fast_paths = false` sends every exact (q = 1) scale through the
/// reference Bellman–Ford sweep instead of the Dial fast path. The fast path
/// is defined as bit-identical to the sweep; test_primitives diffs the two.
SourceDetectionStats source_detection_stream(
    const graph::WeightedGraph& g, const std::vector<graph::Vertex>& sources,
    std::int64_t hop_bound, const util::Epsilon& eps, int bfs_height,
    int threads, const SourceRowSink& sink, bool fast_paths = true);

/// One cluster member found by cluster_detection_stream: b = the source
/// detection value d_uv, port = p_u(v) (kNoPort at the source itself).
struct DetectedMember {
  graph::Vertex v = graph::kNoVertex;
  graph::Dist b = graph::kDistInf;
  std::int32_t port = graph::kNoPort;
};

/// Member consumer: called exactly once per source index with that source's
/// members in ascending vertex order. Same concurrency contract as
/// SourceRowSink.
using ClusterSink =
    std::function<void(int si, std::span<const DetectedMember> members)>;

/// round_cost and the scale counts are the full stream's; max_iterations
/// covers the sources that ran it.
struct ClusterDetectionStats : SourceDetectionStats {
  std::int64_t pruned_sources = 0;    // answered by the join-pruned sweep
  std::int64_t fallback_sources = 0;  // pruned sweep failed → full stream
  /// Vertices the pruned sweeps settled, plus n per source that ran the
  /// full stream (its row covers every vertex). |S|·n when nothing prunes.
  std::int64_t settled = 0;
};

/// Source detection restricted to the clusters it feeds (§3.2 middle level):
/// source u's members are u itself and every v with d_uv < join_bound[v].
/// The sink sees exactly what filtering source_detection_stream's rows by
/// that predicate would give — same members, b values and ports — and the
/// round charge is the full stream's, but most sources never build a row.
///
/// Sound when join_bound[v] is the exact d(v, A) for some vertex set A
/// (the exact pivots of level ⌈k/2⌉): members are then closed under
/// shortest-path prefixes — for a predecessor x of member v,
/// d(u,x) = d(u,v) − d(x,v) < d(v,A) − d(x,v) ≤ d(x,A) — so a Dial sweep
/// that relaxes edges only out of members settles every member at its exact
/// distance, committed layer and first-writer port, and never looks past
/// the members' neighbors. Those are the full stream's values exactly while
/// every member lies inside the first scale's window (distance ≤ 1 + B,
/// layer ≤ B): the first scale then commits them and no later scale can
/// improve on them. A source whose pruned sweep meets a member past the
/// window or the hop bound — a below-bound offer past the window names one
/// unless it settles inside — reruns through the full stream (per-source
/// fallback). Source 0 always runs the full stream: its whole-graph layer
/// counts set the round charge |S| + min(B, layers) + 2·D per scale.
ClusterDetectionStats cluster_detection_stream(
    const graph::WeightedGraph& g, const std::vector<graph::Vertex>& sources,
    std::int64_t hop_bound, const util::Epsilon& eps, int bfs_height,
    int threads, std::span<const graph::Dist> join_bound,
    const ClusterSink& sink);

/// Slab-materializing result of source_detection() below — kept for callers
/// that genuinely need all-pairs access (the §3.3.1 preprocessing, whose
/// |V'| is Õ(n^{1/2}) at most). The construction's middle levels consume
/// members through cluster_detection_stream instead.
struct SourceDetectionResult {
  std::vector<graph::Vertex> sources;
  std::unordered_map<graph::Vertex, int> source_index;
  // Flattened [source_idx * n + v].
  std::vector<graph::Dist> dist;
  std::vector<std::int32_t> parent_port;  // port at v toward p_source(v)
  std::int64_t round_cost = 0;
  int distinct_scales = 0;  // scales in the schedule
  int executed_scales = 0;  // scales actually run (early exit)
  int max_iterations = 0;

  graph::Dist d(int si, graph::Vertex v) const {
    return dist[static_cast<std::size_t>(si) * n_ +
                static_cast<std::size_t>(v)];
  }
  std::int32_t port(int si, graph::Vertex v) const {
    return parent_port[static_cast<std::size_t>(si) * n_ +
                       static_cast<std::size_t>(v)];
  }
  /// Index of source vertex s, or -1.
  int index_of(graph::Vertex s) const {
    auto it = source_index.find(s);
    return it == source_index.end() ? -1 : it->second;
  }

  std::size_t n_ = 0;  // vertices per source row (set by the builder)
};

/// `threads`: worker threads for the per-source sweeps (sources are
/// independent — disjoint output rows, per-source bookkeeping — so any pool
/// size yields bit-identical results and round charges). 0 consults the
/// NORS_THREADS environment variable; 1 is serial. `fast_paths` as for
/// source_detection_stream.
SourceDetectionResult source_detection(const graph::WeightedGraph& g,
                                       const std::vector<graph::Vertex>& sources,
                                       std::int64_t hop_bound,
                                       const util::Epsilon& eps,
                                       int bfs_height, int threads = 0,
                                       bool fast_paths = true);

}  // namespace nors::primitives
