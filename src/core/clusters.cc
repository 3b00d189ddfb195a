#include "core/clusters.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "graph/properties.h"
#include "primitives/cluster_bf.h"
#include "primitives/pipelined.h"
#include "util/arena.h"
#include "util/threads.h"

namespace nors::core {

namespace {

using graph::Dist;
using graph::Vertex;

std::int64_t ln_ceil(int n) {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(std::log(std::max(2, n)))));
}

/// The Lemma-1 charge of a sequence of pipelined broadcasts over the BFS
/// tree, one per Bellman–Ford iteration: iteration t+1 sends only after
/// iteration t's values have arrived, so the broadcasts' exact counts add.
/// Each message is a token at its sender; a sequence that sent nothing is
/// still charged one token at the root.
class BroadcastCharge {
 public:
  explicit BroadcastCharge(const primitives::BfsTree& bfs)
      : bfs_(bfs), tokens_(bfs.parent.size(), 0) {}

  void send(Vertex sender) {
    ++tokens_[static_cast<std::size_t>(sender)];
    ++pending_;
  }
  /// Ends the current broadcast.
  void flush() {
    if (pending_ == 0) return;
    rounds_ += primitives::pipelined_broadcast_rounds(bfs_, tokens_);
    messages_ += pending_;
    pending_ = 0;
    std::fill(tokens_.begin(), tokens_.end(), 0);
  }
  std::int64_t rounds() {
    flush();
    if (messages_ > 0) return rounds_;
    tokens_[static_cast<std::size_t>(bfs_.root)] = 1;
    const std::int64_t floor =
        primitives::pipelined_broadcast_rounds(bfs_, tokens_);
    tokens_[static_cast<std::size_t>(bfs_.root)] = 0;
    return floor;
  }
  std::int64_t messages() {
    flush();
    return messages_;
  }

 private:
  const primitives::BfsTree& bfs_;
  std::vector<int> tokens_;
  std::int64_t pending_ = 0;
  std::int64_t messages_ = 0;
  std::int64_t rounds_ = 0;
};

}  // namespace

LevelKind classify_level(int i, int k) {
  NORS_CHECK(i >= 0 && i < k);
  if (k == 1) return LevelKind::kSmall;
  if (k % 2 == 0) {
    return i < k / 2 ? LevelKind::kSmall : LevelKind::kLarge;
  }
  if (i < (k - 1) / 2) return LevelKind::kSmall;
  if (i == (k - 1) / 2 && k >= 3) return LevelKind::kMiddle;
  return LevelKind::kLarge;
}

Preprocess build_preprocess(const graph::WeightedGraph& g,
                            const primitives::Hierarchy& h,
                            const SchemeParams& params, int bfs_height,
                            congest::RoundLedger& ledger, util::Rng& rng) {
  const int n = g.n();
  const int k = params.k;
  NORS_CHECK_MSG(k >= 2, "preprocessing is only defined for k >= 2");
  Preprocess pre;

  // V' = A_{⌈k/2⌉}.
  const int ceil_half = (k + 1) / 2;
  pre.vprime = h.set_at(ceil_half);
  NORS_CHECK_MSG(!pre.vprime.empty(), "V' must be non-empty");
  pre.vp_index.assign(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < pre.vprime.size(); ++i) {
    pre.vp_index[static_cast<std::size_t>(pre.vprime[i])] =
        static_cast<int>(i);
  }

  // B = hit_constant · n / E[|V'|] · ln n  =  c · n^{⌈k/2⌉/k} · ln n.
  const double expected_vp =
      std::pow(static_cast<double>(n),
               1.0 - static_cast<double>(ceil_half) / k);
  std::int64_t b = static_cast<std::int64_t>(
      params.hit_constant * (static_cast<double>(n) / expected_vp) *
      static_cast<double>(ln_ceil(n)));
  b = std::min<std::int64_t>(std::max<std::int64_t>(1, b), n);
  pre.b_hops = b;

  // Theorem 1 with parameter ε/2.
  const util::Epsilon eps = params.epsilon();
  const util::Epsilon eps_half(eps.num(), 2 * eps.den());
  pre.sd = primitives::source_detection(g, pre.vprime, b, eps_half,
                                        bfs_height, params.threads);
  ledger.add("preprocess/source detection", congest::CostKind::kAccounted,
             pre.sd.round_cost, 0,
             "|V'|=" + std::to_string(pre.vprime.size()) +
                 " B=" + std::to_string(b));

  // Virtual graph G' on V': u ~ v iff d_uv < ∞ (weights d_uv, symmetric).
  const int m = static_cast<int>(pre.vprime.size());
  pre.gprime = graph::WeightedGraph(m);
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      const Dist d = pre.sd.d(i, pre.vprime[static_cast<std::size_t>(j)]);
      if (!graph::is_inf(d)) {
        pre.gprime.add_edge(i, j, std::max<Dist>(1, d));
      }
    }
  }
  pre.gprime.freeze();

  // Path-reporting hopset for G' with parameter ε/3 (Theorem 2). The
  // hopset-less ablation (use_hopset = false) instead explores G' directly:
  // the effective β becomes G''s shortest-path hop diameter (up to m), the
  // exploration regime of [LP15] that the paper's hopsets shorten.
  if (params.use_hopset) {
    hopset::HopsetParams hp{.eps = util::Epsilon(eps.num(), 3 * eps.den()),
                            .seed = rng.next(),
                            .rho = std::max(1.0 / k, 0.25)};
    pre.hs = hopset::build_hopset(pre.gprime, hp, bfs_height);
    ledger.add("preprocess/hopset", congest::CostKind::kAccounted,
               pre.hs.round_cost, 0,
               "beta=" + std::to_string(pre.hs.beta) +
                   " edges=" + std::to_string(pre.hs.edges.size()));
  } else {
    pre.hs = hopset::Hopset{};
    pre.hs.beta =
        std::max(1, graph::shortest_path_hop_diameter(pre.gprime));
    ledger.add("preprocess/hopset", congest::CostKind::kAccounted, 0, 0,
               "disabled; beta=S(G')=" + std::to_string(pre.hs.beta));
  }

  // G'' adjacency = G' edges ∪ hopset edges.
  pre.gpp_adj.assign(static_cast<std::size_t>(m), {});
  for (int v = 0; v < m; ++v) {
    for (const auto& e : pre.gprime.neighbors(v)) {
      pre.gpp_adj[static_cast<std::size_t>(v)].push_back({e.to, e.w, -1});
    }
  }
  for (std::size_t id = 0; id < pre.hs.edges.size(); ++id) {
    const auto& he = pre.hs.edges[id];
    pre.gpp_adj[static_cast<std::size_t>(he.u)].push_back(
        {he.v, he.w, static_cast<int>(id)});
    pre.gpp_adj[static_cast<std::size_t>(he.v)].push_back(
        {he.u, he.w, static_cast<int>(id)});
  }
  return pre;
}

void compute_approx_pivots(const graph::WeightedGraph& g,
                           const primitives::Hierarchy& h,
                           const Preprocess& pre, PivotTable& pivots,
                           const primitives::BfsTree& bfs,
                           congest::RoundLedger& ledger) {
  const int n = g.n();
  const int k = pivots.k;
  const int m = static_cast<int>(pre.vprime.size());
  const int beta = pre.beta();
  const int first = last_exact_pivot_level(k) + 1;

  for (int i = first; i <= k - 1; ++i) {
    // β Bellman–Ford iterations on G'' rooted at A_i ⊆ V'.
    std::vector<Dist> dist(static_cast<std::size_t>(m), graph::kDistInf);
    std::vector<Vertex> src(static_cast<std::size_t>(m), graph::kNoVertex);
    std::vector<char> frontier(static_cast<std::size_t>(m), 0);
    for (Vertex a : h.set_at(i)) {
      const int idx = pre.vp_index[static_cast<std::size_t>(a)];
      NORS_CHECK_MSG(idx >= 0, "A_i must be contained in V'");
      dist[static_cast<std::size_t>(idx)] = 0;
      src[static_cast<std::size_t>(idx)] = a;
      frontier[static_cast<std::size_t>(idx)] = 1;
    }
    BroadcastCharge charge(bfs);
    for (int it = 0; it < beta; ++it) {
      std::vector<char> next_frontier(static_cast<std::size_t>(m), 0);
      bool any = false;
      // Snapshot relaxation (synchronous rounds).
      const std::vector<Dist> snap = dist;
      const std::vector<Vertex> snap_src = src;
      for (int v = 0; v < m; ++v) {
        if (!frontier[static_cast<std::size_t>(v)]) continue;
        charge.send(pre.vprime[static_cast<std::size_t>(v)]);  // (dist, src)
        for (const auto& e : pre.gpp_adj[static_cast<std::size_t>(v)]) {
          const Dist nd = snap[static_cast<std::size_t>(v)] + e.w;
          if (nd < dist[static_cast<std::size_t>(e.to)]) {
            dist[static_cast<std::size_t>(e.to)] = nd;
            src[static_cast<std::size_t>(e.to)] =
                snap_src[static_cast<std::size_t>(v)];
            next_frontier[static_cast<std::size_t>(e.to)] = 1;
            any = true;
          }
        }
      }
      charge.flush();
      frontier = std::move(next_frontier);
      if (!any) break;
    }
    // Extension (40): every vertex minimizes d_yv + d̂(v) over v ∈ V'.
    for (Vertex y = 0; y < n; ++y) {
      Dist best = graph::kDistInf;
      Vertex best_src = graph::kNoVertex;
      for (int v = 0; v < m; ++v) {
        if (graph::is_inf(dist[static_cast<std::size_t>(v)])) continue;
        const Dist dyv = pre.sd.d(v, y);
        if (graph::is_inf(dyv)) continue;
        const Dist cand = dyv + dist[static_cast<std::size_t>(v)];
        if (cand < best) {
          best = cand;
          best_src = src[static_cast<std::size_t>(v)];
        }
      }
      pivots.dist[static_cast<std::size_t>(i) * n + y] = best;
      pivots.pivot[static_cast<std::size_t>(i) * n + y] = best_src;
    }
    ledger.add("pivots/approx level " + std::to_string(i),
               congest::CostKind::kAccounted, charge.rounds(),
               charge.messages(), "beta=" + std::to_string(beta));
  }
  (void)g;
}

std::vector<ClusterTree> build_small_level_trees(
    const graph::WeightedGraph& g, const primitives::Hierarchy& h, int level,
    const PivotTable& pivots, const SchemeParams& params,
    congest::RoundLedger& ledger) {
  const int n = g.n();
  const std::vector<Vertex> roots = h.exactly_at(level);
  std::vector<ClusterTree> trees;
  if (roots.empty()) return trees;
  // The join condition needs the exact d(v, A_{level+1}); row k is ∞.
  NORS_CHECK(level + 1 >= pivots.k || pivots.level_exact(level + 1));

  // Join condition (11): b < d_G(v, A_{i+1}) (exact distances).
  const std::size_t row = static_cast<std::size_t>(level + 1) * n;
  const auto admit = [&](Vertex v, Vertex, Dist b) {
    return b < pivots.dist[row + static_cast<std::size_t>(v)];
  };
  auto result = primitives::distributed_cluster_bellman_ford(
      g, roots, admit, params.edge_capacity, params.threads);
  ledger.add("clusters/small level " + std::to_string(level),
             congest::CostKind::kSimulated, result.rounds, result.messages,
             "roots=" + std::to_string(roots.size()));

  // Re-shape per root slot; scanning vertices in ascending order leaves
  // every tree's member array sorted without any re-sort.
  trees.resize(roots.size());
  for (std::size_t s = 0; s < roots.size(); ++s) {
    trees[s].root = roots[s];
    trees[s].level = level;
  }
  for (Vertex v = 0; v < n; ++v) {
    for (std::size_t e = result.off[static_cast<std::size_t>(v)];
         e < result.off[static_cast<std::size_t>(v) + 1]; ++e) {
      const auto& entry = result.rec[e];
      ClusterMember mem;
      mem.b = entry.dist;
      mem.parent = entry.parent;
      mem.parent_port = entry.parent_port;
      trees[static_cast<std::size_t>(result.slot[e])].add(v, mem);
    }
  }
  return trees;
}

std::vector<ClusterTree> build_middle_level_trees(
    const graph::WeightedGraph& g, const primitives::Hierarchy& h, int level,
    const PivotTable& pivots, const SchemeParams& params, int bfs_height,
    congest::RoundLedger& ledger, std::int64_t* settled) {
  const int n = g.n();
  const std::vector<Vertex> roots = h.exactly_at(level);
  std::vector<ClusterTree> trees;
  if (settled != nullptr) *settled = 0;
  if (roots.empty()) return trees;

  // B = hit_constant · n^{(i+1)/k} · ln n (Corollary 4 depth bound).
  std::int64_t b = static_cast<std::int64_t>(
      params.hit_constant *
      std::pow(static_cast<double>(n),
               static_cast<double>(level + 1) / params.k) *
      static_cast<double>(ln_ceil(n)));
  b = std::min<std::int64_t>(std::max<std::int64_t>(1, b), n);

  // Join-pruned source detection (DESIGN.md §7.2): each root's sweep
  // expands only its own cluster, and the members arrive sorted, so each
  // tree is built straight from them — no n-vertex row per root, and no
  // |S| × n slab (§9). Every root owns its tree slot, so the sink is safe
  // under any pool size and the trees come out bit-identical to filtering
  // the full rows by the join condition b_v(u) < d(v, A_{i+1}).
  const std::size_t row = static_cast<std::size_t>(level + 1) * n;
  trees.resize(roots.size());
  const auto stats = primitives::cluster_detection_stream(
      g, roots, b, params.epsilon(), bfs_height, params.threads,
      {pivots.dist.data() + row, static_cast<std::size_t>(n)},
      [&](int si, std::span<const primitives::DetectedMember> members) {
        const Vertex u = roots[static_cast<std::size_t>(si)];
        ClusterTree& t = trees[static_cast<std::size_t>(si)];
        t.root = u;
        t.level = level;
        t.members.reserve(members.size());
        t.info.reserve(members.size());
        for (const auto& m : members) {
          ClusterMember mem;
          mem.b = m.b;
          if (m.v != u) {
            mem.parent_port = m.port;
            NORS_CHECK(mem.parent_port != graph::kNoPort);
            mem.parent = g.edge(m.v, mem.parent_port).to;
          }
          t.add(m.v, mem);
        }
      });
  if (settled != nullptr) *settled = stats.settled;
  ledger.add("clusters/middle level " + std::to_string(level),
             congest::CostKind::kAccounted, stats.round_cost, 0,
             "|S|=" + std::to_string(roots.size()) + " B=" + std::to_string(b));
  return trees;
}

std::vector<ClusterTree> build_large_level_trees(
    const graph::WeightedGraph& g, const primitives::Hierarchy& h, int level,
    const PivotTable& pivots, const Preprocess& pre,
    const SchemeParams& params, const primitives::BfsTree& bfs,
    congest::RoundLedger& ledger, std::vector<congest::Message>* phase2_sent) {
  const int n = g.n();
  const int m = static_cast<int>(pre.vprime.size());
  const int beta = pre.beta();
  const util::Epsilon eps = params.epsilon();
  const std::vector<Vertex> roots = h.exactly_at(level);
  std::vector<ClusterTree> trees;
  if (roots.empty()) return trees;

  const std::size_t row = static_cast<std::size_t>(level + 1) * n;
  // Condition (14): b < d̂_{i+1}(v) / (1+ε)^3 (∞ admits everything).
  const auto cond14 = [&](Vertex graph_v, Dist b) {
    const Dist dhat = pivots.dist[row + static_cast<std::size_t>(graph_v)];
    if (graph::is_inf(dhat)) return true;
    return eps.less_than_div(b, dhat, 3);
  };
  // Condition (15): b < d̂_{i+1}(y) / (1+ε).
  const auto cond15 = [&](Vertex graph_y, Dist b) {
    const Dist dhat = pivots.dist[row + static_cast<std::size_t>(graph_y)];
    if (graph::is_inf(dhat)) return true;
    return eps.less_than_div(b, dhat, 1);
  };

  // Phase-1 state per (V' index, root slot): b value and virtual parent,
  // in one dense m × r slot arena (b == kDistInf marks "absent"; real b
  // values are finite). Large-level roots lie in V', so r ≤ m and the
  // arena is O(|V'|²) (DESIGN.md §9).
  struct VState {
    Dist b = graph::kDistInf;
    int vparent = -1;    // V' index of the virtual parent
    int hopset_id = -1;  // the hopset edge used, if any
  };
  const int r = static_cast<int>(roots.size());
  const auto cell = [r](int v, int s) {
    return static_cast<std::size_t>(v) * static_cast<std::size_t>(r) +
           static_cast<std::size_t>(s);
  };
  util::Buffer<VState> state;
  state.assign_fill(
      static_cast<std::size_t>(m) * static_cast<std::size_t>(r), VState{});
  std::vector<std::pair<int, int>> frontier;  // (V' index, root slot)
  for (int s = 0; s < r; ++s) {
    const int idx = pre.vp_index[static_cast<std::size_t>(roots[s])];
    NORS_CHECK_MSG(idx >= 0, "large-level roots must lie in V'");
    state[cell(idx, s)] = {0, -1, -1};
    frontier.push_back({idx, s});
  }

  // Phase 1: β synchronous Bellman–Ford iterations over G''.
  BroadcastCharge phase1(bfs);
  for (int it = 0; it < beta && !frontier.empty(); ++it) {
    // Snapshot the frontier values (synchronous semantics).
    std::vector<std::tuple<int, int, Dist>> sends;
    sends.reserve(frontier.size());
    for (const auto& [v, s] : frontier) {
      sends.emplace_back(v, s, state[cell(v, s)].b);
      phase1.send(pre.vprime[static_cast<std::size_t>(v)]);
    }
    phase1.flush();
    std::vector<std::pair<int, int>> next;
    for (const auto& [v, s, bv] : sends) {
      for (const auto& e : pre.gpp_adj[static_cast<std::size_t>(v)]) {
        const Dist nb = bv + e.w;
        const Vertex gz = pre.vprime[static_cast<std::size_t>(e.to)];
        VState& z = state[cell(e.to, s)];
        if (nb >= z.b) continue;
        if (gz != roots[static_cast<std::size_t>(s)] && !cond14(gz, nb)) {
          continue;
        }
        z = {nb, v, e.hopset_id};
        next.push_back({e.to, s});
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier = std::move(next);
  }
  ledger.add("clusters/large level " + std::to_string(level) + " phase1",
             congest::CostKind::kAccounted, phase1.rounds(), phase1.messages(),
             "beta=" + std::to_string(beta));

  // Phase 1.5: re-anchor hopset-edge parents along their realizing paths.
  // Candidates are computed from a snapshot of the phase-1 values, applied
  // with min, so the set of final b values is order-independent (paper
  // semantics); tied candidates resolve in the canonical (V' index, slot)
  // scan order. The snapshot is scoped to this phase: it is freed before
  // the phase-2 extension allocates, so the two never overlap in RSS.
  // Each fix-up is a message from the member v whose hopset edge it walks.
  BroadcastCharge fixups(bfs);
  {
  util::Buffer<VState> snapshot;
  std::memcpy(snapshot.ensure(state.size()), state.data(),
              state.size() * sizeof(VState));
  for (int v = 0; v < m; ++v) {
    for (int s = 0; s < r; ++s) {
      const VState& st = snapshot[cell(v, s)];
      if (graph::is_inf(st.b) || st.hopset_id < 0) continue;
      const auto& he = pre.hs.edges[static_cast<std::size_t>(st.hopset_id)];
      // Orient the path from the virtual parent x toward v.
      const bool forward = (he.u == st.vparent);
      NORS_CHECK(forward || he.v == st.vparent);
      const int x = st.vparent;
      const Dist bx = snapshot[cell(x, s)].b;
      NORS_CHECK(!graph::is_inf(bx));
      const auto path_len = static_cast<int>(he.path.size());
      for (int pos = 0; pos < path_len; ++pos) {
        const int z = forward ? he.path[static_cast<std::size_t>(pos)]
                              : he.path[static_cast<std::size_t>(
                                    path_len - 1 - pos)];
        if (z == x) continue;
        const Dist d_xz =
            forward ? he.prefix[static_cast<std::size_t>(pos)]
                    : he.w - he.prefix[static_cast<std::size_t>(
                                 path_len - 1 - pos)];
        // The path neighbor of z closer to x.
        const int z_prev_pos = forward ? pos - 1 : path_len - pos;
        const int z_prev = he.path[static_cast<std::size_t>(z_prev_pos)];
        const Dist cand = bx + d_xz;
        VState& zs = state[cell(z, s)];
        if (cand <= zs.b) {
          zs = {cand, z_prev, -1};
          fixups.send(pre.vprime[static_cast<std::size_t>(v)]);
        }
      }
    }
  }
  }  // snapshot freed here
  ledger.add("clusters/large level " + std::to_string(level) + " phase1.5",
             congest::CostKind::kAccounted,
             fixups.rounds(), fixups.messages());

  // All virtual parents must now be G' neighbors (or roots).
  for (int v = 0; v < m; ++v) {
    for (int s = 0; s < r; ++s) {
      const VState& st = state[cell(v, s)];
      if (graph::is_inf(st.b)) continue;
      NORS_CHECK_MSG(st.hopset_id < 0,
                     "hopset parent survived phase 1.5 at V' index " << v);
    }
  }

  // Phase 2: members broadcast their b values; every vertex extends via the
  // source-detection distances. Members of C̃'(u) keep their phase-1 values
  // and get real parents from Remark 1 toward their virtual parent.
  trees.resize(static_cast<std::size_t>(r));
  for (int s = 0; s < r; ++s) {
    trees[static_cast<std::size_t>(s)].root = roots[static_cast<std::size_t>(s)];
    trees[static_cast<std::size_t>(s)].level = level;
  }
  // Every member broadcasts its finite values two root slots per message;
  // every vertex decodes them into per-slot (V' index, b) cells, V'-ascending
  // within each slot (the historical tie-break order).
  std::vector<congest::Message> sent;
  {
    std::vector<Dist> b_row(static_cast<std::size_t>(r));
    for (int v = 0; v < m; ++v) {
      for (int s = 0; s < r; ++s) {
        b_row[static_cast<std::size_t>(s)] = state[cell(v, s)].b;
      }
      encode_phase2_row(v, b_row, sent);
    }
  }
  BroadcastCharge phase2(bfs);
  for (const congest::Message& msg : sent) {
    phase2.send(pre.vprime[static_cast<std::size_t>(msg.w[0])]);
  }
  const Phase2Cells bc = decode_phase2(sent, r);

  // Every root slot owns its tree and reads only the shared decoded cells
  // and phase-1 state, so the slots run on the pool (bit-identical for any
  // pool size).
  const int nthreads = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(util::resolve_threads(params.threads)),
      static_cast<std::size_t>(r)));
  const auto extend = [&](int, std::size_t slot) {
    const int s = static_cast<int>(slot);
    auto& tree = trees[static_cast<std::size_t>(s)];
    const Vertex u = roots[static_cast<std::size_t>(s)];
    const auto* bc_begin =
        bc.cells.data() + bc.off[static_cast<std::size_t>(s)];
    const auto* bc_end =
        bc.cells.data() + bc.off[static_cast<std::size_t>(s) + 1];
    for (Vertex y = 0; y < n; ++y) {
      // Extension value from the broadcast (the single synchronous round of
      // phase 2): min over members of d_yv + b_v(u).
      Dist ext = graph::kDistInf;
      int witness = -1;
      for (const auto* it = bc_begin; it != bc_end; ++it) {
        const Dist dyv = pre.sd.d(it->first, y);
        if (graph::is_inf(dyv)) continue;
        const Dist cand = dyv + it->second;
        if (cand < ext) {
          ext = cand;
          witness = it->first;
        }
      }
      const int y_vp = pre.vp_index[static_cast<std::size_t>(y)];
      const VState* y_state =
          y_vp >= 0 ? &state[cell(y_vp, s)] : nullptr;
      const bool in_phase1 = y_state != nullptr && !graph::is_inf(y_state->b);
      if (y == u) {
        tree.add(y, ClusterMember{0, graph::kNoVertex, graph::kNoPort});
        continue;
      }
      ClusterMember mem;
      if (in_phase1) {
        // Members of C̃'(u) stay members, but take the better of their
        // phase-1 value and the broadcast extension — the paper's Claim 7
        // proof needs parents to adopt the phase-2 improvement (28).
        if (ext < y_state->b) {
          mem.b = ext;
          mem.parent_port = pre.sd.port(witness, y);
        } else {
          mem.b = y_state->b;
          const int vp = y_state->vparent;
          NORS_CHECK(vp >= 0);
          mem.parent_port = pre.sd.port(vp, y);
        }
        NORS_CHECK_MSG(mem.parent_port != graph::kNoPort,
                       "missing Remark-1 parent");
        mem.parent = g.edge(y, mem.parent_port).to;
        tree.add(y, mem);
        continue;
      }
      // Everyone else joins iff (15) holds for the extension value.
      if (witness < 0 || !cond15(y, ext)) continue;
      mem.b = ext;
      mem.parent_port = pre.sd.port(witness, y);
      NORS_CHECK(mem.parent_port != graph::kNoPort);
      mem.parent = g.edge(y, mem.parent_port).to;
      tree.add(y, mem);
    }
  };
  util::parallel_for(nthreads, static_cast<std::size_t>(r), extend);
  ledger.add("clusters/large level " + std::to_string(level) + " phase2",
             congest::CostKind::kAccounted, phase2.rounds(), phase2.messages(),
             "slots=" + std::to_string(r) +
                 " cells=" + std::to_string(bc.cells.size()));
  if (phase2_sent != nullptr) *phase2_sent = std::move(sent);
  return trees;
}

void encode_phase2_row(int v, std::span<const Dist> row,
                       std::vector<congest::Message>& out) {
  const std::size_t r = row.size();
  for (std::size_t j = 0; j < r; j += 2) {
    const Dist lo = row[j];
    const Dist hi = j + 1 < r ? row[j + 1] : graph::kDistInf;
    if (graph::is_inf(lo) && graph::is_inf(hi)) continue;
    out.push_back(congest::Message::make(
        0, {v, static_cast<std::int64_t>(j), lo, hi}));
  }
}

Phase2Cells decode_phase2(std::span<const congest::Message> sent, int r) {
  Phase2Cells out;
  out.off.assign(static_cast<std::size_t>(r) + 1, 0);
  // Visits every finite (slot, V' index, b) cell the messages carry.
  const auto for_each_cell = [&](const auto& f) {
    for (const congest::Message& msg : sent) {
      NORS_CHECK(msg.len == 4 && msg.w[1] % 2 == 0);
      for (int half = 0; half < 2; ++half) {
        const Dist b = msg.w[static_cast<std::size_t>(2 + half)];
        if (graph::is_inf(b)) continue;
        const auto slot = static_cast<int>(msg.w[1]) + half;
        NORS_CHECK(slot >= 0 && slot < r);
        f(slot, static_cast<int>(msg.w[0]), b);
      }
    }
  };
  for_each_cell([&](int slot, int, Dist) {
    ++out.off[static_cast<std::size_t>(slot) + 1];
  });
  for (int s = 0; s < r; ++s) {
    out.off[static_cast<std::size_t>(s) + 1] +=
        out.off[static_cast<std::size_t>(s)];
  }
  out.cells.resize(static_cast<std::size_t>(out.off.back()));
  std::vector<int> cursor(out.off.begin(), out.off.end() - 1);
  for_each_cell([&](int slot, int v, Dist b) {
    out.cells[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(slot)]++)] = {v, b};
  });
  return out;
}

std::int64_t sanitize_trees(const graph::WeightedGraph& g,
                            std::vector<ClusterTree>& trees, int threads) {
  // Per-worker scratch. pos_of is the vertex → member-index map: filled
  // and cleared per tree through the member list, so lookups are O(1)
  // without hashing.
  struct Scratch {
    std::vector<int> par, cnt, off, cursor, child, queue, pos_of;
    std::vector<char> keep;
  };
  const int nthreads = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(util::resolve_threads(threads)),
      std::max<std::size_t>(trees.size(), 1)));
  std::vector<Scratch> scratch(static_cast<std::size_t>(nthreads));
  for (Scratch& sc : scratch) {
    sc.pos_of.assign(static_cast<std::size_t>(g.n()), -1);
  }
  std::vector<std::int64_t> pruned_of(trees.size(), 0);
  util::parallel_for(nthreads, trees.size(), [&](int w, std::size_t ti) {
    Scratch& sc = scratch[static_cast<std::size_t>(w)];
    ClusterTree& t = trees[ti];
    // Keep exactly the members reachable from the root through parent
    // pointers that are consistent: parent is a member, the edge is real,
    // and b_v ≥ w(v,p) + b_p (Claim 7). All index-based over the sorted
    // member array — one linear BFS, no hashing.
    const std::size_t sz = t.size();
    for (std::size_t i = 0; i < sz; ++i) {
      sc.pos_of[static_cast<std::size_t>(t.members[i])] = static_cast<int>(i);
    }
    sc.par.assign(sz, -1);
    sc.cnt.assign(sz, 0);
    for (std::size_t i = 0; i < sz; ++i) {
      if (t.members[i] == t.root) continue;
      // A parent outside the vertex range (e.g. kNoVertex from a failed whp
      // event) is simply "not a member": the vertex gets pruned below.
      const graph::Vertex parent = t.info[i].parent;
      const int p = parent >= 0 && parent < g.n()
                        ? sc.pos_of[static_cast<std::size_t>(parent)]
                        : -1;
      sc.par[i] = p;
      if (p >= 0) ++sc.cnt[static_cast<std::size_t>(p)];
    }
    sc.off.assign(sz + 1, 0);
    for (std::size_t i = 0; i < sz; ++i) sc.off[i + 1] = sc.off[i] + sc.cnt[i];
    sc.child.resize(sz);
    sc.cursor.assign(sc.off.begin(), sc.off.end() - 1);
    for (std::size_t i = 0; i < sz; ++i) {
      if (t.members[i] == t.root || sc.par[i] < 0) continue;
      sc.child[static_cast<std::size_t>(
          sc.cursor[static_cast<std::size_t>(sc.par[i])]++)] =
          static_cast<int>(i);
    }
    sc.keep.assign(sz, 0);
    sc.queue.clear();
    const int root_idx = sc.pos_of[static_cast<std::size_t>(t.root)];
    if (root_idx >= 0) {
      sc.keep[static_cast<std::size_t>(root_idx)] = 1;
      sc.queue.push_back(root_idx);
    }
    std::size_t head = 0;
    std::size_t kept = root_idx >= 0 ? 1 : 0;
    while (head < sc.queue.size()) {
      const auto p = static_cast<std::size_t>(sc.queue[head++]);
      const Dist bp = t.info[p].b;
      for (int c = sc.off[p]; c < sc.off[p + 1]; ++c) {
        const auto i = static_cast<std::size_t>(
            sc.child[static_cast<std::size_t>(c)]);
        const auto& mem = t.info[i];
        const auto& e = g.edge(t.members[i], mem.parent_port);
        if (e.to != t.members[p]) continue;
        if (mem.b < bp + e.w) continue;  // Claim 7 violated
        sc.keep[i] = 1;
        ++kept;
        sc.queue.push_back(static_cast<int>(i));
      }
    }
    for (std::size_t i = 0; i < sz; ++i) {
      sc.pos_of[static_cast<std::size_t>(t.members[i])] = -1;
    }
    if (kept != sz) {
      pruned_of[ti] = static_cast<std::int64_t>(sz - kept);
      std::size_t w = 0;
      for (std::size_t i = 0; i < sz; ++i) {
        if (!sc.keep[i]) continue;
        t.members[w] = t.members[i];
        t.info[w] = t.info[i];
        ++w;
      }
      t.members.resize(w);
      t.info.resize(w);
    }
  });
  std::int64_t pruned = 0;
  for (const std::int64_t p : pruned_of) pruned += p;  // tree order
  return pruned;
}

}  // namespace nors::core
