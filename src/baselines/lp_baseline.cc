#include "baselines/lp_baseline.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <tuple>

#include "graph/shortest_paths.h"
#include "primitives/pipelined.h"
#include "util/random.h"

namespace nors::baselines {

namespace {

using graph::Dist;
using graph::Vertex;

}  // namespace

LpBaselineScheme LpBaselineScheme::build(const graph::WeightedGraph& g,
                                         const Params& params,
                                         const primitives::BfsTree& bfs) {
  NORS_CHECK(params.k >= 1);
  LpBaselineScheme s;
  s.g_ = &g;
  s.params_ = params;
  const int n = g.n();
  util::Rng rng(params.seed);

  // 1. Skeleton sample: ≈ factor · √n · ln n vertices.
  const double p = std::min(
      1.0, params.skeleton_factor * std::log(std::max(2, n)) /
               std::sqrt(static_cast<double>(n)));
  for (Vertex v = 0; v < n; ++v) {
    if (rng.bernoulli(p)) s.skeleton_.push_back(v);
  }
  if (s.skeleton_.empty()) s.skeleton_.push_back(0);

  // 2. Voronoi forest around the skeleton.
  const auto vor = graph::multi_source_dijkstra(g, s.skeleton_);
  s.vor_root_ = vor.source;
  s.vor_dist_ = vor.dist;
  std::map<Vertex, std::vector<Vertex>> members;
  for (Vertex v = 0; v < n; ++v) {
    members[vor.source[static_cast<std::size_t>(v)]].push_back(v);
  }
  for (const auto& [root, mem] : members) {
    std::unordered_map<Vertex, Vertex> par;
    std::unordered_map<Vertex, std::int32_t> ports;
    for (Vertex v : mem) {
      if (v == root) continue;
      par[v] = vor.parent[static_cast<std::size_t>(v)];
      ports[v] = vor.parent_port[static_cast<std::size_t>(v)];
    }
    s.vor_trees_.emplace(
        root, treeroute::TzTreeScheme::build(g, mem, par, ports, root));
  }

  // 3. Virtual skeleton graph: contract Voronoi regions; keep the lightest
  // realizing edge per skeleton pair, remembered per direction.
  struct Realization {
    Dist w = graph::kDistInf;
    Vertex x = graph::kNoVertex, y = graph::kNoVertex;
    std::int32_t xy_port = graph::kNoPort;
  };
  std::map<std::pair<Vertex, Vertex>, Realization> virt;  // r1 < r2
  for (Vertex x = 0; x < n; ++x) {
    for (std::int32_t pp = 0; pp < g.degree(x); ++pp) {
      const auto& e = g.edge(x, pp);
      const Vertex r1 = vor.source[static_cast<std::size_t>(x)];
      const Vertex r2 = vor.source[static_cast<std::size_t>(e.to)];
      if (r1 == r2) continue;
      const Dist w = vor.dist[static_cast<std::size_t>(x)] + e.w +
                     vor.dist[static_cast<std::size_t>(e.to)];
      auto key = r1 < r2 ? std::make_pair(r1, r2) : std::make_pair(r2, r1);
      auto& cur = virt[key];
      if (w < cur.w) {
        // Store oriented from key.first.
        if (r1 == key.first) {
          cur = {w, x, e.to, pp};
        } else {
          cur = {w, e.to, x, e.rev};
        }
      }
    }
  }

  // 4. Spanner over the virtual skeleton graph (indices = skeleton order).
  std::unordered_map<Vertex, int> sk_index;
  for (std::size_t i = 0; i < s.skeleton_.size(); ++i) {
    sk_index[s.skeleton_[i]] = static_cast<int>(i);
  }
  graph::WeightedGraph vg(static_cast<int>(s.skeleton_.size()));
  std::vector<std::pair<Vertex, Vertex>> vg_keys;
  for (const auto& [key, real] : virt) {
    vg.add_edge(sk_index.at(key.first), sk_index.at(key.second),
                std::max<Dist>(1, real.w));
    vg_keys.push_back(key);
  }
  vg.freeze();
  util::Rng sp_rng = rng.fork(17);
  const auto vsp = baswana_sen_spanner(vg, params.k, sp_rng);
  s.spanner_ = vsp;

  // 5. Materialize skeleton edges with both-direction realization info.
  for (const auto& e : vsp) {
    const Vertex r1 = s.skeleton_[static_cast<std::size_t>(e.u)];
    const Vertex r2 = s.skeleton_[static_cast<std::size_t>(e.v)];
    const auto key = r1 < r2 ? std::make_pair(r1, r2) : std::make_pair(r2, r1);
    const auto& real = virt.at(key);
    // Oriented from key.first = min(r1,r2).
    SkeletonEdge fwd;
    fwd.r1 = key.first;
    fwd.r2 = key.second;
    fwd.w = real.w;
    fwd.x = real.x;
    fwd.y = real.y;
    fwd.x_label = s.vor_trees_.at(key.first).label(real.x);
    fwd.xy_port = real.xy_port;
    const int idx = static_cast<int>(s.skeleton_edges_.size());
    s.skeleton_edges_.push_back(fwd);
    // Reverse orientation entry.
    SkeletonEdge rev;
    rev.r1 = key.second;
    rev.r2 = key.first;
    rev.w = real.w;
    rev.x = real.y;
    rev.y = real.x;
    rev.x_label = s.vor_trees_.at(key.second).label(real.y);
    rev.xy_port = g.edge(real.x, real.xy_port).rev;
    const int ridx = static_cast<int>(s.skeleton_edges_.size());
    s.skeleton_edges_.push_back(rev);
    s.skeleton_adj_[fwd.r1].push_back(idx);
    s.skeleton_adj_[rev.r1].push_back(ridx);
  }

  // 6. Round-cost charges (see DESIGN.md): skeleton Voronoi growth, virtual
  // graph assembly, k spanner phases, spanner broadcast to all vertices.
  // The broadcasts are pipelined over `bfs` (Lemma 1) from their senders:
  // each virtual edge's realizing endpoint x, every skeleton vertex in each
  // of the k sequential phases, and x again for each skeleton-edge record.
  int max_hops = 0;
  for (Vertex v = 0; v < n; ++v) {
    max_hops = std::max(max_hops,
                        static_cast<int>(vor.hops[static_cast<std::size_t>(v)]));
  }
  s.ledger_.add("lp13/voronoi growth", congest::CostKind::kAccounted,
                static_cast<std::int64_t>(max_hops) + 1, 0,
                "hops=" + std::to_string(max_hops));
  std::vector<int> tokens(static_cast<std::size_t>(n), 0);
  for (const auto& [key, real] : virt) {
    ++tokens[static_cast<std::size_t>(real.x)];
  }
  s.ledger_.add("lp13/virtual graph", congest::CostKind::kAccounted,
                primitives::pipelined_broadcast_rounds(bfs, tokens),
                static_cast<std::int64_t>(virt.size()));
  std::fill(tokens.begin(), tokens.end(), 0);
  for (const Vertex r : s.skeleton_) ++tokens[static_cast<std::size_t>(r)];
  s.ledger_.add("lp13/spanner phases", congest::CostKind::kAccounted,
                static_cast<std::int64_t>(params.k) *
                    primitives::pipelined_broadcast_rounds(bfs, tokens),
                static_cast<std::int64_t>(params.k) *
                    static_cast<std::int64_t>(s.skeleton_.size()));
  // Each spanner edge record: (r1, r2, w, x, y, port, label) in its own
  // ⌈words / kMaxWords⌉ messages.
  std::fill(tokens.begin(), tokens.end(), 0);
  std::int64_t messages = 0;
  for (const auto& e : s.skeleton_edges_) {
    const std::int64_t words = 6 + e.x_label.words();
    const auto msgs = static_cast<int>((words + congest::kMaxWords - 1) /
                                       congest::kMaxWords);
    tokens[static_cast<std::size_t>(e.x)] += msgs;
    messages += msgs;
  }
  s.ledger_.add("lp13/spanner broadcast", congest::CostKind::kAccounted,
                primitives::pipelined_broadcast_rounds(bfs, tokens), messages);
  return s;
}

std::vector<Vertex> LpBaselineScheme::spanner_path(Vertex r_from,
                                                   Vertex r_to) const {
  // Local Dijkstra over the (globally known) skeleton spanner.
  std::unordered_map<Vertex, Dist> dist;
  std::unordered_map<Vertex, int> via;  // edge index into skeleton_edges_
  using Item = std::tuple<Dist, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  dist[r_from] = 0;
  pq.emplace(0, r_from);
  while (!pq.empty()) {
    const auto [d, r] = pq.top();
    pq.pop();
    if (d != dist.at(r)) continue;
    if (r == r_to) break;
    auto it = skeleton_adj_.find(r);
    if (it == skeleton_adj_.end()) continue;
    for (int idx : it->second) {
      const auto& e = skeleton_edges_[static_cast<std::size_t>(idx)];
      const Dist nd = d + e.w;
      auto jt = dist.find(e.r2);
      if (jt == dist.end() || nd < jt->second) {
        dist[e.r2] = nd;
        via[e.r2] = idx;
        pq.emplace(nd, e.r2);
      }
    }
  }
  NORS_CHECK_MSG(dist.count(r_to), "skeleton spanner is disconnected");
  std::vector<Vertex> path;  // edge indices reversed into roots
  std::vector<Vertex> rev;
  Vertex cur = r_to;
  while (cur != r_from) {
    rev.push_back(cur);
    cur = skeleton_edges_[static_cast<std::size_t>(via.at(cur))].r1;
  }
  rev.push_back(r_from);
  path.assign(rev.rbegin(), rev.rend());
  return path;
}

LpBaselineScheme::RouteResult LpBaselineScheme::route(Vertex u,
                                                      Vertex v) const {
  RouteResult r;
  if (u == v) {
    r.ok = true;
    return r;
  }
  const Vertex ru = vor_root_[static_cast<std::size_t>(u)];
  const Vertex rv = vor_root_[static_cast<std::size_t>(v)];
  Vertex x = u;
  auto step = [&](std::int32_t port) {
    const auto& e = g_->edge(x, port);
    r.length += e.w;
    ++r.hops;
    x = e.to;
    NORS_CHECK_MSG(r.hops <= 8 * g_->n(), "routing loop detected");
  };

  if (ru == rv) {
    // Same Voronoi region: pure tree routing.
    const auto& tree = vor_trees_.at(ru);
    const auto dest = tree.label(v);
    while (x != v) {
      step(treeroute::TzTreeScheme::next_hop(tree.table(x), dest));
    }
    r.ok = true;
    return r;
  }

  // Leg A: climb to the skeleton root of u's region.
  {
    const auto& tree = vor_trees_.at(ru);
    while (x != ru) step(tree.table(x).parent_port);
  }
  // Leg B: follow the spanner path, realizing each virtual edge.
  const std::vector<Vertex> path = spanner_path(ru, rv);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Vertex rc = path[i];
    const Vertex rn = path[i + 1];
    // Find the oriented skeleton edge rc -> rn (the router recomputes this
    // locally from its global spanner copy).
    const SkeletonEdge* edge = nullptr;
    for (int idx : skeleton_adj_.at(rc)) {
      const auto& e = skeleton_edges_[static_cast<std::size_t>(idx)];
      if (e.r2 == rn && (edge == nullptr || e.w < edge->w)) edge = &e;
    }
    NORS_CHECK(edge != nullptr);
    // Down Vor(rc) to the realizing endpoint x*, cross, up Vor(rn).
    const auto& tree_c = vor_trees_.at(rc);
    while (x != edge->x) {
      step(treeroute::TzTreeScheme::next_hop(tree_c.table(x), edge->x_label));
    }
    step(edge->xy_port);
    const auto& tree_n = vor_trees_.at(rn);
    while (x != rn) step(tree_n.table(x).parent_port);
  }
  // Leg C: descend to v.
  {
    const auto& tree = vor_trees_.at(rv);
    const auto dest = tree.label(v);
    while (x != v) {
      step(treeroute::TzTreeScheme::next_hop(tree.table(x), dest));
    }
  }
  r.ok = true;
  return r;
}

std::int64_t LpBaselineScheme::table_words(Vertex v) const {
  // Every vertex stores: its Voronoi table + root + dist, and the entire
  // skeleton spanner with realization labels (the Ω(√n) part).
  std::int64_t words = 2 + 6;  // root, dist, local tree table
  for (const auto& e : skeleton_edges_) words += 6 + e.x_label.words();
  (void)v;
  return words;
}

std::int64_t LpBaselineScheme::label_words(Vertex v) const {
  const Vertex rv = vor_root_[static_cast<std::size_t>(v)];
  return 2 + vor_trees_.at(rv).label(v).words();
}

}  // namespace nors::baselines
