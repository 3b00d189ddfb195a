#include "treeroute/dist_tree.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "congest/message.h"
#include "primitives/pipelined.h"
#include "util/threads.h"

namespace nors::treeroute {

namespace {

using graph::Vertex;

/// Flat, position-indexed view of a TreeSpec written into the scratch
/// arenas: members in BFS order from the root (parents precede children),
/// parent links as positions into `order`, and the (spec position → sorted
/// index) map the assembly pass uses. Replaces every per-member hash lookup
/// with a binary search over the sorted member permutation.
void index_tree(const TreeSpec& t, TreeBuildScratch& s) {
  const std::size_t sz = t.members.size();
  NORS_CHECK_MSG(t.parent.size() == sz && t.parent_port.size() == sz,
                 "TreeSpec parent arrays must parallel members");
  s.perm.resize(sz);
  for (std::size_t i = 0; i < sz; ++i) {
    s.perm[i] = static_cast<std::int32_t>(i);
  }
  // Specs straight off the cluster builders arrive vertex-sorted
  // (DESIGN.md §7), so the identity permutation usually survives as-is.
  if (!std::is_sorted(t.members.begin(), t.members.end())) {
    std::sort(s.perm.begin(), s.perm.end(),
              [&](std::int32_t a, std::int32_t b) {
                return t.members[static_cast<std::size_t>(a)] <
                       t.members[static_cast<std::size_t>(b)];
              });
  }
  for (std::size_t i = 1; i < sz; ++i) {
    NORS_CHECK_MSG(t.members[static_cast<std::size_t>(s.perm[i - 1])] !=
                       t.members[static_cast<std::size_t>(s.perm[i])],
                   "duplicate member in TreeSpec");
  }
  s.sorted_of_orig.resize(sz);
  for (std::size_t j = 0; j < sz; ++j) {
    s.sorted_of_orig[static_cast<std::size_t>(s.perm[j])] =
        static_cast<int>(j);
  }
  const auto find_pos = [&](Vertex v) -> int {
    const auto it = std::lower_bound(
        s.perm.begin(), s.perm.end(), v,
        [&](std::int32_t a, Vertex val) {
          return t.members[static_cast<std::size_t>(a)] < val;
        });
    if (it == s.perm.end() ||
        t.members[static_cast<std::size_t>(*it)] != v) {
      return -1;
    }
    return *it;
  };

  // Parent position + port per member position.
  s.par.assign(sz, -1);
  for (std::size_t i = 0; i < sz; ++i) {
    if (t.members[i] == t.root) continue;
    // A parent outside the members leaves v unreachable; the size check
    // after BFS reports it.
    s.par[i] = find_pos(t.parent[i]);
  }
  // Children in CSR layout; filling in sorted-vertex order leaves every
  // bucket sorted by child vertex id (the deterministic order every
  // traversal below inherits).
  s.cnt.assign(sz, 0);
  for (std::size_t i = 0; i < sz; ++i) {
    if (s.par[i] >= 0 && t.members[i] != t.root) {
      ++s.cnt[static_cast<std::size_t>(s.par[i])];
    }
  }
  s.off.assign(sz + 1, 0);
  for (std::size_t i = 0; i < sz; ++i) s.off[i + 1] = s.off[i] + s.cnt[i];
  s.child.resize(static_cast<std::size_t>(s.off[sz]));
  s.cursor.assign(s.off.begin(), s.off.end() - 1);
  for (std::size_t j = 0; j < sz; ++j) {
    const auto i = static_cast<std::size_t>(s.perm[j]);
    if (s.par[i] >= 0 && t.members[i] != t.root) {
      s.child[static_cast<std::size_t>(
          s.cursor[static_cast<std::size_t>(s.par[i])]++)] =
          static_cast<int>(i);
    }
  }
  // BFS from the root over member positions.
  const int root_pos = find_pos(t.root);
  s.bfs.clear();
  s.bfs.reserve(sz);
  if (root_pos >= 0) {
    s.bfs.push_back(root_pos);
    for (std::size_t h = 0; h < s.bfs.size(); ++h) {
      const auto v = static_cast<std::size_t>(s.bfs[h]);
      for (int c = s.off[v]; c < s.off[v + 1]; ++c) {
        s.bfs.push_back(s.child[static_cast<std::size_t>(c)]);
      }
    }
  }
  NORS_CHECK_MSG(s.bfs.size() == sz,
                 "TreeSpec is not a single tree rooted at " << t.root);
  // Re-index from member positions to BFS positions.
  s.bfs_pos.resize(sz);
  for (std::size_t i = 0; i < sz; ++i) {
    s.bfs_pos[static_cast<std::size_t>(s.bfs[i])] = static_cast<int>(i);
  }
  s.order.resize(sz);
  s.parent_pos.resize(sz);
  s.parent_port.resize(sz);
  s.orig_pos.resize(sz);
  for (std::size_t i = 0; i < sz; ++i) {
    const auto m = static_cast<std::size_t>(s.bfs[i]);
    s.order[i] = t.members[m];
    s.parent_pos[i] =
        s.par[m] < 0 ? -1 : s.bfs_pos[static_cast<std::size_t>(s.par[m])];
    s.parent_port[i] =
        s.order[i] == t.root ? graph::kNoPort : t.parent_port[m];
    s.orig_pos[i] = static_cast<int>(m);
  }
}

/// Subtree decomposition under the sample U: w_pos[i] is the position of
/// the nearest root-or-U ancestor (inclusive) of member i, depth[i] its
/// distance below it. Returns the maximum depth.
int subtree_roots(const TreeBuildScratch& s, graph::Vertex root,
                  const std::vector<char>& in_u, std::vector<int>& w_pos,
                  std::vector<int>& depth) {
  const std::size_t sz = s.order.size();
  w_pos.resize(sz);
  depth.assign(sz, 0);
  int max_depth = 0;
  for (std::size_t i = 0; i < sz; ++i) {
    const Vertex v = s.order[i];
    if (v == root || in_u[static_cast<std::size_t>(v)]) {
      w_pos[i] = static_cast<int>(i);
    } else {
      const auto p = static_cast<std::size_t>(s.parent_pos[i]);
      w_pos[i] = w_pos[p];
      depth[i] = depth[p] + 1;
      max_depth = std::max(max_depth, depth[i]);
    }
  }
  return max_depth;
}

/// Phase 1's staged schedule over a whole forest, drawn once. Each subtree
/// broadcast crosses the edge of its depth-t member at stage start(w) + t,
/// with start(w) drawn uniformly from [0, range) for every subtree root in
/// tree / BFS order. Returns each stage's length: the most broadcasts one
/// (child, parent) edge carries in it. Every forest edge is the edge of a
/// non-subtree-root position, so the positions are grouped by that edge as
/// packed (subtree-root slot, depth) records with each group's first record
/// flagged, and one pass counts every group's stages.
///
/// Consumes `sched` (each tree's view is released once read). The grouping
/// passes run on up to `threads` workers, each over one contiguous chunk of
/// trees cut at about equal position counts with its own cursor row, so the
/// groups come out the same for any pool (no atomics: a locked increment
/// per scattered record store serializes the stores' misses).
std::vector<int> staged_stage_lengths(const graph::WeightedGraph& g,
                                      std::vector<TreeSchedule>& sched,
                                      int threads, std::int64_t range,
                                      util::Rng& rng) {
  const std::size_t half_edges = g.total_half_edges();
  const std::size_t trees = sched.size();
  std::size_t positions = 0;
  for (const TreeSchedule& ts : sched) positions += ts.w_pos.size();
  NORS_CHECK_MSG(positions <= 0xffffffffull,
                 "too many forest positions for the staged schedule");
  // Parallel edges to one parent are one (child, parent) edge: each
  // half-edge stands for its tail's lowest port to the same head.
  std::vector<std::uint32_t> canon(half_edges);
  for (Vertex v = 0; v < g.n(); ++v) {
    const std::size_t base = g.edge_base(v);
    const auto adj = g.neighbors(v);
    for (std::size_t p = 0; p < adj.size(); ++p) {
      canon[base + p] = static_cast<std::uint32_t>(
          base + static_cast<std::size_t>(g.port_to(v, adj[p].to)));
    }
  }
  // Each chunk's cursor row costs 4 bytes per half-edge: at most 8 rows.
  const std::size_t chunks = std::clamp<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(threads), trees), 1, 8);
  std::vector<std::size_t> cut(chunks + 1, trees);
  cut[0] = 0;
  for (std::size_t t = 0, acc = 0, c = 1; t < trees && c < chunks; ++t) {
    acc += sched[t].w_pos.size();
    if (acc * chunks >= positions * c) cut[c++] = t + 1;
  }
  // Pass 1: subtree roots per tree and forest positions per (chunk, edge);
  // each position's half-edge becomes its canonical one.
  std::vector<std::size_t> slot_base(trees + 1, 0);
  std::vector<std::uint32_t> rows(chunks * half_edges, 0);
  const auto workers = static_cast<int>(chunks);
  util::parallel_for(workers, chunks, [&](int, std::size_t c) {
    std::uint32_t* row = rows.data() + c * half_edges;
    for (std::size_t t = cut[c]; t < cut[c + 1]; ++t) {
      TreeSchedule& ts = sched[t];
      for (std::size_t i = 0; i < ts.w_pos.size(); ++i) {
        if (ts.w_pos[i] == static_cast<int>(i)) {
          ++slot_base[t + 1];
        } else {
          ts.edge[i] = canon[ts.edge[i]];
          ++row[ts.edge[i]];
        }
      }
    }
  });
  // Global subtree-root slots in tree / BFS order (the order the start
  // stages are drawn in); chunk c's part of a group follows the earlier
  // chunks' parts.
  for (std::size_t t = 0; t < trees; ++t) slot_base[t + 1] += slot_base[t];
  std::vector<std::uint32_t> slot_depth(slot_base[trees], 0);
  std::vector<std::uint32_t> off(half_edges + 1);
  std::uint32_t at = 0;
  for (std::size_t e = 0; e < half_edges; ++e) {
    off[e] = at;
    for (std::size_t c = 0; c < chunks; ++c) {
      at += std::exchange(rows[c * half_edges + e], at);
    }
  }
  off[half_edges] = at;
  // Bit 31 of a record's depth word marks the first record of its group
  // (depths stay below 2^31: a tree has fewer than 2^31 members).
  constexpr std::uint64_t kGroupStart = 1u << 31;
  // Pass 2: each position's record lands in its edge's group; each slot
  // keeps its max depth.
  const auto records = std::make_unique_for_overwrite<std::uint64_t[]>(at);
  util::parallel_for(workers, chunks, [&](int, std::size_t c) {
    std::uint32_t* cursor = rows.data() + c * half_edges;
    std::vector<std::uint32_t> slot_of;
    for (std::size_t t = cut[c]; t < cut[c + 1]; ++t) {
      TreeSchedule& ts = sched[t];
      slot_of.resize(ts.w_pos.size());
      auto slot = static_cast<std::uint32_t>(slot_base[t]);
      for (std::size_t i = 0; i < ts.w_pos.size(); ++i) {
        const auto w = static_cast<std::size_t>(ts.w_pos[i]);
        if (w == i) {
          slot_of[i] = slot++;
          continue;
        }
        const auto depth = static_cast<std::uint32_t>(ts.depth[i]);
        auto& deepest = slot_depth[slot_of[w]];
        deepest = std::max(deepest, depth);
        records[cursor[ts.edge[i]]++] =
            static_cast<std::uint64_t>(slot_of[w]) << 32 | depth;
      }
      ts = TreeSchedule{};
    }
  });
  for (std::size_t e = 0; e < half_edges; ++e) {
    if (off[e + 1] != off[e]) records[off[e]] |= kGroupStart;
  }

  // The draw: one start per subtree root, in slot order.
  std::vector<std::int64_t> start(slot_depth.size());
  std::int64_t stages = 0;
  for (std::size_t w = 0; w < start.size(); ++w) {
    start[w] = static_cast<std::int64_t>(
        rng.uniform(static_cast<std::uint64_t>(range)));
    if (slot_depth[w] > 0) {
      stages = std::max<std::int64_t>(stages, start[w] + slot_depth[w] + 1);
    }
  }
  const auto stage = [&](std::size_t j) {
    return static_cast<std::size_t>(
        start[records[j] >> 32] +
        static_cast<std::int64_t>(records[j] & (kGroupStart - 1)));
  };
  // One counter per stage, cleared again after each group.
  std::vector<std::int32_t> count(static_cast<std::size_t>(stages), 0);
  std::vector<int> length(count.size(), 0);
  for (std::size_t first = 0, last; first < at; first = last) {
    last = first + 1;
    while (last < at && !(records[last] & kGroupStart)) ++last;
    for (std::size_t j = first; j < last; ++j) {
      const std::size_t st = stage(j);
      length[st] = std::max(length[st], ++count[st]);
    }
    for (std::size_t j = first; j < last; ++j) count[stage(j)] = 0;
  }
  return length;
}

}  // namespace

DistTreeScheme DistTreeScheme::build(const graph::WeightedGraph& g,
                                     const TreeSpec& tree,
                                     const std::vector<char>& in_u) {
  TreeBuildScratch scratch;
  return build(g, tree, in_u, scratch, nullptr);
}

DistTreeScheme DistTreeScheme::build(const graph::WeightedGraph& g,
                                     const TreeSpec& tree,
                                     const std::vector<char>& in_u,
                                     TreeBuildScratch& s,
                                     TreeSchedule* sched_out) {
  DistTreeScheme out;
  out.root_ = tree.root;
  index_tree(tree, s);
  const std::size_t sz = s.order.size();

  // Subtree root w(v): nearest ancestor (inclusive) in U(T) = (U ∩ T) ∪ {z},
  // as a position into s.order; plus the depth below it.
  out.max_subtree_depth_ = subtree_roots(s, tree.root, in_u, s.w_pos, s.depth);

  // Members of each subtree in BFS order (parents precede children), CSR
  // over the subtree-root positions; member_rank is the position of each
  // member inside its own subtree (= its index in the local TZ scheme).
  s.sub_cnt.assign(sz, 0);
  for (std::size_t i = 0; i < sz; ++i) {
    ++s.sub_cnt[static_cast<std::size_t>(s.w_pos[i])];
  }
  s.roots.clear();  // subtree-root positions, ascending (= BFS order)
  s.slot_of_pos.assign(sz, -1);
  for (std::size_t i = 0; i < sz; ++i) {
    if (s.w_pos[i] == static_cast<int>(i)) {
      s.slot_of_pos[i] = static_cast<int>(s.roots.size());
      s.roots.push_back(static_cast<int>(i));
    }
  }
  const int r = static_cast<int>(s.roots.size());
  out.u_count_ = r;
  s.sub_off.assign(sz + 1, 0);
  for (std::size_t i = 0; i < sz; ++i) {
    s.sub_off[i + 1] = s.sub_off[i] + s.sub_cnt[i];
  }
  s.sub_members.resize(sz);
  s.member_rank.resize(sz);
  s.cursor.assign(s.sub_off.begin(), s.sub_off.end() - 1);
  for (std::size_t i = 0; i < sz; ++i) {
    const int at = s.cursor[static_cast<std::size_t>(s.w_pos[i])]++;
    s.sub_members[static_cast<std::size_t>(at)] = static_cast<int>(i);
    s.member_rank[i] = at - s.sub_off[static_cast<std::size_t>(s.w_pos[i])];
  }

  // Local TZ schemes per subtree slot, built straight into flat tree-sized
  // arrays aligned with the subtree CSR (DESIGN.md §7): member vertices,
  // parent ranks and ports per flat index, plus the in-subtree rank lists
  // in ascending vertex order — one pass over the global sorted permutation
  // fills all of them, because sorted order restricted to a subtree is that
  // subtree's sorted order.
  s.sub_mem.resize(sz);
  s.sub_par.resize(sz);
  s.sub_port.resize(sz);
  s.sub_sorted.resize(sz);
  s.sorted_to_pos.resize(sz);
  for (std::size_t i = 0; i < sz; ++i) {
    s.sorted_to_pos[static_cast<std::size_t>(
        s.sorted_of_orig[static_cast<std::size_t>(s.orig_pos[i])])] =
        static_cast<int>(i);
  }
  for (std::size_t i = 0; i < sz; ++i) {
    const auto wpos = static_cast<std::size_t>(s.w_pos[i]);
    const int at = s.sub_off[wpos] + s.member_rank[i];
    s.sub_mem[static_cast<std::size_t>(at)] = s.order[i];
    if (i == wpos) {
      s.sub_par[static_cast<std::size_t>(at)] = -1;
      s.sub_port[static_cast<std::size_t>(at)] = graph::kNoPort;
    } else {
      s.sub_par[static_cast<std::size_t>(at)] =
          s.member_rank[static_cast<std::size_t>(s.parent_pos[i])];
      s.sub_port[static_cast<std::size_t>(at)] = s.parent_port[i];
    }
  }
  s.cursor.assign(s.sub_off.begin(), s.sub_off.end() - 1);
  for (std::size_t j = 0; j < sz; ++j) {
    const auto i = static_cast<std::size_t>(s.sorted_to_pos[j]);
    s.sub_sorted[static_cast<std::size_t>(
        s.cursor[static_cast<std::size_t>(s.w_pos[i])]++)] =
        s.member_rank[i];
  }
  s.tz_tables.assign(sz, TzTreeScheme::Table{});
  s.tz_labels.assign(sz, TzTreeScheme::Label{});
  for (int slot = 0; slot < r; ++slot) {
    const auto wi = static_cast<std::size_t>(s.roots[static_cast<std::size_t>(slot)]);
    const int off = s.sub_off[wi];
    const int cnt = s.sub_off[wi + 1] - off;
    NORS_CHECK(s.sub_par[static_cast<std::size_t>(off)] == -1);
    TzTreeScheme::build_core(
        g, s.sub_mem.data() + off, s.sub_par.data() + off,
        s.sub_port.data() + off, cnt, /*root_pos=*/0,
        s.sub_sorted.data() + off, s.tz, s.tz_tables.data() + off,
        s.tz_labels.data() + off);
  }

  // Virtual tree T' over subtree slots. parent'(u) = w(p_T(u)); the portal
  // of u is its T-parent. Buckets sorted by child root vertex id (the
  // historical deterministic order; slot 0 is always the tree root).
  s.t_parent_slot.assign(static_cast<std::size_t>(r), -1);
  for (int slot = 1; slot < r; ++slot) {
    const auto wi = static_cast<std::size_t>(s.roots[static_cast<std::size_t>(slot)]);
    const auto portal_pos = static_cast<std::size_t>(s.parent_pos[wi]);
    s.t_parent_slot[static_cast<std::size_t>(slot)] =
        s.slot_of_pos[static_cast<std::size_t>(s.w_pos[portal_pos])];
  }
  s.t_child_off.assign(static_cast<std::size_t>(r) + 1, 0);
  for (int slot = 1; slot < r; ++slot) {
    ++s.t_child_off[static_cast<std::size_t>(
        s.t_parent_slot[static_cast<std::size_t>(slot)]) + 1];
  }
  for (int i = 0; i < r; ++i) {
    s.t_child_off[static_cast<std::size_t>(i) + 1] +=
        s.t_child_off[static_cast<std::size_t>(i)];
  }
  s.t_child_list.resize(static_cast<std::size_t>(r > 0 ? r - 1 : 0));
  s.t_child_cursor.assign(s.t_child_off.begin(), s.t_child_off.end() - 1);
  for (int slot = 1; slot < r; ++slot) {
    const int p = s.t_parent_slot[static_cast<std::size_t>(slot)];
    s.t_child_list[static_cast<std::size_t>(
        s.t_child_cursor[static_cast<std::size_t>(p)]++)] = slot;
  }
  for (int i = 0; i < r; ++i) {
    std::sort(s.t_child_list.begin() + s.t_child_off[static_cast<std::size_t>(i)],
              s.t_child_list.begin() +
                  s.t_child_off[static_cast<std::size_t>(i) + 1],
              [&](int a, int b) {
                return s.order[static_cast<std::size_t>(
                           s.roots[static_cast<std::size_t>(a)])] <
                       s.order[static_cast<std::size_t>(
                           s.roots[static_cast<std::size_t>(b)])];
              });
  }

  // Sizes, heavy child, DFS intervals on T' (all keyed by slot).
  s.t_size.assign(static_cast<std::size_t>(r), 0);
  s.t_heavy.assign(static_cast<std::size_t>(r), -1);
  s.stack.clear();
  if (r > 0) s.stack.push_back({0, 0});
  while (!s.stack.empty()) {
    auto& [v, idx] = s.stack.back();
    const auto vi = static_cast<std::size_t>(v);
    if (idx < s.t_child_off[vi + 1] - s.t_child_off[vi]) {
      ++idx;
      s.stack.push_back(
          {s.t_child_list[static_cast<std::size_t>(s.t_child_off[vi]) +
                          static_cast<std::size_t>(idx) - 1],
           0});
    } else {
      std::int64_t sz_v = 1;
      int heavy = -1;
      std::int64_t best = -1;
      for (int c = s.t_child_off[vi]; c < s.t_child_off[vi + 1]; ++c) {
        const int ch = s.t_child_list[static_cast<std::size_t>(c)];
        sz_v += s.t_size[static_cast<std::size_t>(ch)];
        if (s.t_size[static_cast<std::size_t>(ch)] > best) {
          best = s.t_size[static_cast<std::size_t>(ch)];
          heavy = ch;
        }
      }
      s.t_size[vi] = sz_v;
      s.t_heavy[vi] = heavy;
      s.stack.pop_back();
    }
  }
  s.a_prime.assign(static_cast<std::size_t>(r), 0);
  s.b_prime.assign(static_cast<std::size_t>(r), 0);
  s.t_label.assign(static_cast<std::size_t>(r), {});
  {
    std::int64_t clock = 0;
    s.stack.clear();
    if (r > 0) s.stack.push_back({0, 0});
    while (!s.stack.empty()) {
      auto& [v, idx] = s.stack.back();
      const auto vi = static_cast<std::size_t>(v);
      if (idx == 0) s.a_prime[vi] = clock++;
      if (idx < s.t_child_off[vi + 1] - s.t_child_off[vi]) {
        ++idx;
        const int c =
            s.t_child_list[static_cast<std::size_t>(s.t_child_off[vi]) +
                           static_cast<std::size_t>(idx) - 1];
        const auto ci = static_cast<std::size_t>(c);
        std::vector<GlobalHop> lbl = s.t_label[vi];
        if (c != s.t_heavy[vi]) {
          const auto c_pos =
              static_cast<std::size_t>(s.roots[ci]);  // position of w_i
          const auto portal_pos = static_cast<std::size_t>(s.parent_pos[c_pos]);
          GlobalHop hop;
          hop.vi = s.order[static_cast<std::size_t>(s.roots[vi])];
          hop.wi = s.order[c_pos];
          hop.portal = s.order[portal_pos];
          hop.portal_label = s.tz_labels[static_cast<std::size_t>(
              s.sub_off[static_cast<std::size_t>(s.roots[vi])] +
              s.member_rank[portal_pos])];
          hop.port = g.edge(hop.wi, s.parent_port[c_pos]).rev;
          lbl.push_back(std::move(hop));
        }
        s.t_label[ci] = std::move(lbl);
        s.stack.push_back({c, 0});
      } else {
        s.b_prime[vi] = clock;
        s.stack.pop_back();
      }
    }
  }

  // Per-slot heavy-portal labels, copied out *before* assembly: assembly
  // moves each member's own local label out of the flat arena, and the
  // heavy portal is itself a member. These are the scheme's shared labels
  // (one per slot, not per member — DESIGN.md §9).
  //
  // The same portal labels make up Phase 2's payload (DESIGN.md §2.2): the
  // portal p(u) of every non-root T' node u broadcasts one record (z, u,
  // w(p(u)), p(u), its port toward u, ℓ(p(u))), which is all T' holds; each
  // member derives the light hops, intervals and heavy fields above from T'
  // and its own Phase-1 output. Records from different portals are not
  // merged into shared messages.
  constexpr std::int64_t kRecordWords = 5;
  if (sched_out != nullptr) sched_out->phase2.clear();
  for (int slot = 1; slot < r; ++slot) {
    const auto portal_pos = static_cast<std::size_t>(
        s.parent_pos[static_cast<std::size_t>(
            s.roots[static_cast<std::size_t>(slot)])]);
    const std::int64_t words =
        kRecordWords +
        s.tz_labels[static_cast<std::size_t>(
                        s.sub_off[static_cast<std::size_t>(
                            s.w_pos[portal_pos])] +
                        s.member_rank[portal_pos])]
            .words();
    const std::int64_t msgs =
        (words + congest::kMaxWords - 1) / congest::kMaxWords;
    out.phase2_messages_ += msgs;
    if (sched_out != nullptr) {
      sched_out->phase2.push_back(
          {s.order[portal_pos], static_cast<std::int32_t>(msgs)});
    }
  }
  out.slot_heavy_label_.assign(static_cast<std::size_t>(r),
                               TzTreeScheme::Label{});
  for (int slot = 0; slot < r; ++slot) {
    const int heavy_slot = s.t_heavy[static_cast<std::size_t>(slot)];
    if (heavy_slot < 0) continue;
    const auto h_pos =
        static_cast<std::size_t>(s.roots[static_cast<std::size_t>(heavy_slot)]);
    const auto portal_pos = static_cast<std::size_t>(s.parent_pos[h_pos]);
    out.slot_heavy_label_[static_cast<std::size_t>(slot)] =
        s.tz_labels[static_cast<std::size_t>(
            s.sub_off[static_cast<std::size_t>(
                s.roots[static_cast<std::size_t>(slot)])] +
            s.member_rank[portal_pos])];
  }

  // Assemble per-member tables and labels into the vertex-sorted arrays.
  // Each member's local label is consumed exactly once, so it moves out of
  // the flat arena instead of being copied.
  out.members_.resize(sz);
  for (std::size_t j = 0; j < sz; ++j) {
    out.members_[j] = tree.members[static_cast<std::size_t>(s.perm[j])];
  }
  out.info_.assign(sz, NodeInfo{});
  out.labels_.assign(sz, VLabel{});
  for (std::size_t i = 0; i < sz; ++i) {
    const auto wpos = static_cast<std::size_t>(s.w_pos[i]);
    const auto wslot = static_cast<std::size_t>(s.slot_of_pos[wpos]);
    const auto flat =
        static_cast<std::size_t>(s.sub_off[wpos] + s.member_rank[i]);
    NodeInfo ni;
    ni.subtree_root = s.order[wpos];
    ni.local = s.tz_tables[flat];
    ni.a_prime = static_cast<std::int32_t>(s.a_prime[wslot]);
    ni.b_prime = static_cast<std::int32_t>(s.b_prime[wslot]);
    ni.subtree_slot = static_cast<std::int32_t>(wslot);
    const int heavy_slot = s.t_heavy[wslot];
    if (heavy_slot >= 0) {
      const auto h_pos =
          static_cast<std::size_t>(s.roots[static_cast<std::size_t>(heavy_slot)]);
      const auto portal_pos = static_cast<std::size_t>(s.parent_pos[h_pos]);
      ni.heavy_prime = s.order[h_pos];
      ni.heavy_portal = s.order[portal_pos];
      ni.heavy_port = g.edge(ni.heavy_prime, s.parent_port[h_pos]).rev;
    }
    if (s.order[wpos] != tree.root) {
      // At the subtree root, the way "up" in T leaves the subtree.
      ni.up_port = (i == wpos) ? s.parent_port[i] : graph::kNoPort;
    }
    VLabel lbl;
    lbl.a_prime = s.a_prime[wslot];
    lbl.global_light = s.t_label[wslot];
    lbl.local = std::move(s.tz_labels[flat]);
    // The light list was built by appends (capacity ≈ 2× size for any
    // label that extended its parent's); these labels stay resident for
    // the scheme's lifetime, so trade one exact-fit copy for the slack.
    lbl.local.light.shrink_to_fit();
    out.max_local_label_words_ =
        std::max(out.max_local_label_words_, lbl.local.words());
    const auto sidx =
        static_cast<std::size_t>(s.sorted_of_orig[static_cast<std::size_t>(
            s.orig_pos[i])]);
    out.info_[sidx] = std::move(ni);
    out.labels_[sidx] = std::move(lbl);
  }

  if (sched_out != nullptr) {
    sched_out->order = s.order;
    sched_out->w_pos = s.w_pos;
    sched_out->depth = s.depth;
    sched_out->edge.assign(sz, 0);
    for (std::size_t i = 1; i < sz; ++i) {
      const Vertex v = s.order[i];
      const std::int32_t port = s.parent_port[i];
      NORS_CHECK_MSG(port >= 0 && port < g.degree(v),
                     "bad parent port " << port << " at vertex " << v);
      sched_out->edge[i] =
          static_cast<std::uint32_t>(g.edge_base(v)) +
          static_cast<std::uint32_t>(port);
    }
  }
  return out;
}

std::int32_t DistTreeScheme::next_hop(Vertex x, const VLabel& dest) const {
  const NodeInfo& nx = info(x);
  if (dest.a_prime == nx.a_prime) {
    // Same subtree: pure local interval routing.
    return TzTreeScheme::next_hop(nx.local, dest.local);
  }
  if (dest.a_prime < nx.a_prime || dest.a_prime >= nx.b_prime) {
    // Destination subtree is not below w(x) in T': go up. Inside the
    // subtree that means toward w; at w it means crossing to w's T-parent.
    if (nx.local.parent_port != graph::kNoPort) return nx.local.parent_port;
    NORS_CHECK_MSG(nx.up_port != graph::kNoPort,
                   "route-up requested at the tree root");
    return nx.up_port;
  }
  // Destination subtree is strictly below w(x) in T': find the T'-edge to
  // take — a light entry recorded in the destination label, else heavy.
  for (const auto& hop : dest.global_light) {
    if (hop.vi == nx.subtree_root) {
      const std::int32_t p = TzTreeScheme::next_hop(nx.local, hop.portal_label);
      return p == graph::kNoPort ? hop.port : p;
    }
  }
  NORS_CHECK_MSG(nx.heavy_prime != graph::kNoVertex,
                 "descend requested but w(x) has no T' children");
  const std::int32_t p = TzTreeScheme::next_hop(
      nx.local,
      slot_heavy_label_[static_cast<std::size_t>(nx.subtree_slot)]);
  return p == graph::kNoPort ? nx.heavy_port : p;
}

std::int32_t DistTreeScheme::next_hop_to_root(Vertex x) const {
  const NodeInfo& nx = info(x);
  if (nx.local.parent_port != graph::kNoPort) return nx.local.parent_port;
  return nx.up_port;  // kNoPort at the global root
}

int DistTreeScheme::find(Vertex v) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), v);
  if (it == members_.end() || *it != v) return -1;
  return static_cast<int>(it - members_.begin());
}

const DistTreeScheme::VLabel& DistTreeScheme::label(Vertex v) const {
  const int i = find(v);
  NORS_CHECK_MSG(i >= 0, "vertex " << v << " not in tree");
  return labels_[static_cast<std::size_t>(i)];
}

const DistTreeScheme::NodeInfo& DistTreeScheme::info(Vertex v) const {
  const int i = find(v);
  NORS_CHECK_MSG(i >= 0, "vertex " << v << " not in tree");
  return info_[static_cast<std::size_t>(i)];
}

const TzTreeScheme::Label& DistTreeScheme::heavy_portal_label(
    Vertex v) const {
  const int i = find(v);
  NORS_CHECK_MSG(i >= 0, "vertex " << v << " not in tree");
  return heavy_portal_label_at(static_cast<std::size_t>(i));
}

DistTreeBatch build_dist_tree_batch(const graph::WeightedGraph& g,
                                    std::vector<TreeSpec> specs,
                                    const DistTreeBatchParams& params,
                                    const primitives::BfsTree& bfs,
                                    util::Rng& rng) {
  DistTreeBatch out;
  const int n = g.n();

  // Overlap s: max number of trees containing a vertex.
  std::vector<int> overlap(static_cast<std::size_t>(n), 0);
  for (const auto& t : specs) {
    for (Vertex v : t.members) ++overlap[static_cast<std::size_t>(v)];
  }
  out.max_overlap = 1;
  for (int o : overlap) out.max_overlap = std::max(out.max_overlap, o);

  // γ = sqrt(n / s) per Remark 3 unless overridden; sample U once.
  const double gamma =
      params.gamma > 0
          ? params.gamma
          : std::sqrt(static_cast<double>(n) /
                      static_cast<double>(out.max_overlap));
  const double p_u = std::min(1.0, gamma / static_cast<double>(n));
  std::vector<char> in_u(static_cast<std::size_t>(n), 0);
  for (Vertex v = 0; v < n; ++v) in_u[static_cast<std::size_t>(v)] =
      rng.bernoulli(p_u) ? 1 : 0;

  NORS_CHECK_MSG(g.total_half_edges() <= 0xffffffffull,
                 "too many half-edges for the schedule's edge ids");

  // Per-tree builds: independent, so they run on the worker pool with one
  // scratch arena per thread. Every result lands in its spec's slot and all
  // folds below run serially in spec order, so schemes, stats and ledger
  // are bit-identical for any pool size (DESIGN.md §7).
  out.schemes.resize(specs.size());
  std::vector<TreeSchedule> sched(specs.size());
  const int nthreads = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(util::resolve_threads(params.threads)),
      std::max<std::size_t>(specs.size(), 1)));
  std::vector<TreeBuildScratch> scratches(
      static_cast<std::size_t>(std::max(1, nthreads)));
  util::parallel_for(nthreads, specs.size(), [&](int t, std::size_t i) {
    out.schemes[i] = DistTreeScheme::build(
        g, specs[i], in_u, scratches[static_cast<std::size_t>(t)], &sched[i]);
    // The spec is consumed: release its storage now so the spec arrays and
    // the finished schemes never coexist at the batch's RSS peak.
    specs[i] = TreeSpec{};
  });

  // Per-tree measures fold by sums and maxima only, so the ledger does not
  // depend on the spec order. Phase 2 broadcasts each tree's records (one
  // per non-root T' node, sent by its portal, counted by
  // DistTreeScheme::build); a one-node T' has none, and its global scheme
  // (a' = 0, no light hops, no heavy child) is known locally.
  std::int64_t phase2_msgs = 0;
  std::int64_t phase2_rounds = 0;
  {
    std::vector<int> tokens(static_cast<std::size_t>(n), 0);
    for (TreeSchedule& ts : sched) {
      for (const auto& [portal, msgs] : ts.phase2) {
        tokens[static_cast<std::size_t>(portal)] += msgs;
      }
      ts.phase2 = {};
    }
    phase2_rounds = primitives::pipelined_broadcast_rounds(bfs, tokens);
  }
  std::int64_t records = 0;
  std::int64_t max_local_label_words = 1;
  for (const auto& s : out.schemes) {
    out.max_subtree_depth =
        std::max(out.max_subtree_depth, s.max_subtree_depth());
    out.u_total += s.u_count();
    records += s.u_count() - 1;
    max_local_label_words =
        std::max(max_local_label_words, s.max_local_label_words());
    phase2_msgs += s.phase2_messages();
  }

  // Phase 1's staged schedule, drawn once. Three max-aggregations over the
  // BFS tree, a convergecast and a broadcast each, are charged here: s
  // before U is drawn (γ = √(n/s) needs it), the batch's max subtree depth
  // d before the start stages are drawn, and the termination convergecast
  // that ends Phase 1 before Phase 2. The start-stage range is the largest
  // power of two ≤ max(1, min(s, d/2)): at most s broadcasts share an
  // edge, so a wider range only adds stages.
  const std::int64_t cap = std::max<std::int64_t>(
      1, std::min<std::int64_t>(out.max_overlap, out.max_subtree_depth / 2));
  std::int64_t range = 1;
  while (2 * range <= cap) range *= 2;
  util::Rng sched_rng = rng.fork(99);
  const std::vector<int> lengths =
      staged_stage_lengths(g, sched, nthreads, range, sched_rng);
  out.stages = static_cast<std::int64_t>(lengths.size());
  out.ledger.add("treeroute/phase1 schedule", congest::CostKind::kAccounted,
                 6LL * bfs.height, 0,
                 "range=" + std::to_string(range) +
                     " s=" + std::to_string(out.max_overlap) +
                     " depth=" + std::to_string(out.max_subtree_depth));

  // Phases 0+1 (start-time dissemination, size convergecast, parallel DFS,
  // local label distribution): four staged passes, the label pass carrying
  // the local TZ labels. Every edge sends its lowest-stage ready message
  // first (the size convergecast mirrors the stages and sends its highest
  // first), so by induction every stage-j message arrives by
  // Σ_{i≤j} len_i, len_i being stage i's length, and one pass takes
  // Σ_j len_j rounds (DESIGN.md §2.2).
  for (const int len : lengths) {
    out.stage_rounds += len;
    out.stage_length = std::max(out.stage_length, len);
  }
  const std::int64_t label_factor =
      (max_local_label_words + congest::kMaxWords - 1) / congest::kMaxWords;
  out.ledger.add("treeroute/phase1 staged subtree passes",
                 congest::CostKind::kAccounted,
                 out.stage_rounds * (3 + label_factor), 0,
                 "stages=" + std::to_string(out.stages) +
                     " pass=" + std::to_string(out.stage_rounds) +
                     " max_load=" + std::to_string(out.stage_length));

  // Phase 2: every tree's records over the BFS backbone (Lemma 1).
  out.ledger.add("treeroute/phase2 global broadcast",
                 congest::CostKind::kAccounted, phase2_rounds, phase2_msgs,
                 "u_total=" + std::to_string(out.u_total) +
                     " records=" + std::to_string(records));
  return out;
}

}  // namespace nors::treeroute
