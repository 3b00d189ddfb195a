#include "graph/generators.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace nors::graph {

namespace {

// Canonical undirected key for dedup.
std::pair<Vertex, Vertex> key(Vertex u, Vertex v) {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

/// Insert-only set of undirected edges for the G(n, m) generators: open
/// addressing with linear probing over one flat u64 array, sized up front
/// for the edge budget, so the dedup allocates once and every probe is a
/// cache-line read (a std::set pays a node allocation and a pointer chase
/// per level). insert() answers exactly like std::set::insert(...).second,
/// so the generators consume the same RNG draws and emit the same graph.
class EdgeSet {
 public:
  explicit EdgeSet(std::int64_t capacity) {
    std::size_t slots = 16;
    while (slots < 2 * static_cast<std::size_t>(capacity)) slots *= 2;
    keys_.assign(slots, kEmpty);
    shift_ = 64 - std::countr_zero(slots);
  }

  /// Adds {u, v}; false if it was already present.
  bool insert(Vertex u, Vertex v) {
    const auto [a, b] = key(u, v);
    const std::uint64_t k = static_cast<std::uint64_t>(a) << 32 |
                            static_cast<std::uint32_t>(b);
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = (k * 0x9e3779b97f4a7c15ull) >> shift_;;
         i = (i + 1) & mask) {
      if (keys_[i] == k) return false;
      if (keys_[i] == kEmpty) {
        NORS_CHECK_MSG(2 * (size_ + 1) <= keys_.size(),
                       "edge set over capacity");
        keys_[i] = k;
        ++size_;
        return true;
      }
    }
  }

  std::int64_t size() const { return static_cast<std::int64_t>(size_); }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::vector<std::uint64_t> keys_;
  std::size_t size_ = 0;
  int shift_ = 0;
};

// Edge-adding helpers shared by generators that compose topologies (cycle =
// path + closing edge, torus = grid + wrap edges). The composite generator
// freezes once, at the end.
void add_path_edges(WeightedGraph& g, int n, const WeightSpec& ws,
                    util::Rng& rng) {
  for (Vertex v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1, ws.draw(rng));
}

void add_grid_edges(WeightedGraph& g, int rows, int cols, const WeightSpec& ws,
                    util::Rng& rng) {
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1), ws.draw(rng));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c), ws.draw(rng));
    }
  }
}

}  // namespace

WeightedGraph path(int n, const WeightSpec& ws, util::Rng& rng) {
  NORS_CHECK(n >= 1);
  WeightedGraph g(n);
  add_path_edges(g, n, ws, rng);
  g.freeze();
  return g;
}

WeightedGraph cycle(int n, const WeightSpec& ws, util::Rng& rng) {
  NORS_CHECK(n >= 3);
  WeightedGraph g(n);
  add_path_edges(g, n, ws, rng);
  g.add_edge(n - 1, 0, ws.draw(rng));
  g.freeze();
  return g;
}

WeightedGraph grid(int rows, int cols, const WeightSpec& ws, util::Rng& rng) {
  NORS_CHECK(rows >= 1 && cols >= 1);
  WeightedGraph g(rows * cols);
  add_grid_edges(g, rows, cols, ws, rng);
  g.freeze();
  return g;
}

WeightedGraph torus(int rows, int cols, const WeightSpec& ws, util::Rng& rng) {
  NORS_CHECK(rows >= 3 && cols >= 3);
  WeightedGraph g(rows * cols);
  add_grid_edges(g, rows, cols, ws, rng);
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) g.add_edge(id(r, cols - 1), id(r, 0), ws.draw(rng));
  for (int c = 0; c < cols; ++c) g.add_edge(id(rows - 1, c), id(0, c), ws.draw(rng));
  g.freeze();
  return g;
}

WeightedGraph hypercube(int d, const WeightSpec& ws, util::Rng& rng) {
  NORS_CHECK(d >= 1 && d <= 20);
  const int n = 1 << d;
  WeightedGraph g(n);
  for (Vertex v = 0; v < n; ++v) {
    for (int b = 0; b < d; ++b) {
      const Vertex u = v ^ (1 << b);
      if (v < u) g.add_edge(v, u, ws.draw(rng));
    }
  }
  g.freeze();
  return g;
}

WeightedGraph complete(int n, const WeightSpec& ws, util::Rng& rng) {
  NORS_CHECK(n >= 2);
  WeightedGraph g(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) g.add_edge(u, v, ws.draw(rng));
  }
  g.freeze();
  return g;
}

WeightedGraph fat_tree(int pods, int tors, int hosts, int cores,
                       const WeightSpec& ws, util::Rng& rng) {
  NORS_CHECK(pods >= 1 && tors >= 1 && hosts >= 0 && cores >= 1);
  // Layout: [cores][pods aggregators][pods*tors ToRs][pods*tors*hosts hosts]
  const int n = cores + pods + pods * tors + pods * tors * hosts;
  WeightedGraph g(n);
  const int agg0 = cores;
  const int tor0 = agg0 + pods;
  const int host0 = tor0 + pods * tors;
  for (int p = 0; p < pods; ++p) {
    for (int c = 0; c < cores; ++c) g.add_edge(c, agg0 + p, 1);
    for (int t = 0; t < tors; ++t) {
      const int tor = tor0 + p * tors + t;
      g.add_edge(agg0 + p, tor, 1);
      for (int h = 0; h < hosts; ++h) {
        const int host = host0 + (p * tors + t) * hosts + h;
        g.add_edge(tor, host, ws.draw(rng));
      }
    }
  }
  g.freeze();
  return g;
}

WeightedGraph random_tree(int n, const WeightSpec& ws, util::Rng& rng) {
  NORS_CHECK(n >= 1);
  WeightedGraph g(n);
  std::vector<Vertex> order(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  rng.shuffle(order);
  for (int i = 1; i < n; ++i) {
    const Vertex child = order[static_cast<std::size_t>(i)];
    const Vertex parent =
        order[rng.uniform(static_cast<std::uint64_t>(i))];
    g.add_edge(parent, child, ws.draw(rng));
  }
  g.freeze();
  return g;
}

WeightedGraph erdos_renyi_gnm(int n, std::int64_t m, const WeightSpec& ws,
                              util::Rng& rng) {
  NORS_CHECK(n >= 2);
  const std::int64_t max_m = std::int64_t{n} * (n - 1) / 2;
  NORS_CHECK_MSG(m <= max_m, "too many edges requested");
  WeightedGraph g(n);
  EdgeSet used(m);
  while (used.size() < m) {
    const auto u = static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (used.insert(u, v)) g.add_edge(u, v, ws.draw(rng));
  }
  g.freeze();
  return g;
}

WeightedGraph connected_gnm(int n, std::int64_t extra_edges,
                            const WeightSpec& ws, util::Rng& rng) {
  NORS_CHECK(n >= 2);
  WeightedGraph g(n);
  // A spanning tree has n - 1 edges, so the target is known up front.
  const std::int64_t max_m = std::int64_t{n} * (n - 1) / 2;
  const std::int64_t target = std::min(max_m, n - 1 + extra_edges);
  EdgeSet used(std::max<std::int64_t>(target, n - 1));
  // Random spanning tree (uniform attachment over shuffled order).
  std::vector<Vertex> order(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  rng.shuffle(order);
  for (int i = 1; i < n; ++i) {
    const Vertex child = order[static_cast<std::size_t>(i)];
    const Vertex parent = order[rng.uniform(static_cast<std::uint64_t>(i))];
    used.insert(parent, child);
    g.add_edge(parent, child, ws.draw(rng));
  }
  while (used.size() < target) {
    const auto u = static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<Vertex>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (used.insert(u, v)) g.add_edge(u, v, ws.draw(rng));
  }
  g.freeze();
  return g;
}

WeightedGraph random_geometric(int n, double radius, Weight w_scale,
                               util::Rng& rng) {
  NORS_CHECK(n >= 2);
  NORS_CHECK(radius > 0.0 && w_scale >= 1);
  std::vector<std::pair<double, double>> pts(static_cast<std::size_t>(n));
  for (auto& p : pts) p = {rng.uniform01(), rng.uniform01()};
  auto euclid = [&](int a, int b) {
    const double dx = pts[static_cast<std::size_t>(a)].first -
                      pts[static_cast<std::size_t>(b)].first;
    const double dy = pts[static_cast<std::size_t>(a)].second -
                      pts[static_cast<std::size_t>(b)].second;
    return std::sqrt(dx * dx + dy * dy);
  };
  auto w_of = [&](double d) {
    return std::max<Weight>(
        1, static_cast<Weight>(std::llround(d * static_cast<double>(w_scale))));
  };
  // The stitching pass below needs adjacency before the graph is frozen, so
  // build a scratch neighbor list alongside the pending edges.
  WeightedGraph g(n);
  std::vector<std::vector<Vertex>> adj(static_cast<std::size_t>(n));
  auto link = [&](int a, int b, Weight w) {
    g.add_edge(a, b, w);
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  };
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const double d = euclid(a, b);
      if (d <= radius) link(a, b, w_of(d));
    }
  }
  // Stitch components together via nearest cross-component pairs so the
  // graph is usable even when the radius was chosen below the connectivity
  // threshold.
  std::vector<int> comp(static_cast<std::size_t>(n), -1);
  for (;;) {
    std::fill(comp.begin(), comp.end(), -1);
    int ncomp = 0;
    for (Vertex s = 0; s < n; ++s) {
      if (comp[static_cast<std::size_t>(s)] != -1) continue;
      std::vector<Vertex> stack{s};
      comp[static_cast<std::size_t>(s)] = ncomp;
      while (!stack.empty()) {
        const Vertex v = stack.back();
        stack.pop_back();
        for (const Vertex to : adj[static_cast<std::size_t>(v)]) {
          if (comp[static_cast<std::size_t>(to)] == -1) {
            comp[static_cast<std::size_t>(to)] = ncomp;
            stack.push_back(to);
          }
        }
      }
      ++ncomp;
    }
    if (ncomp == 1) break;
    // Join component 0 to the closest vertex in another component.
    double best = 1e18;
    int ba = -1, bb = -1;
    for (int a = 0; a < n; ++a) {
      if (comp[static_cast<std::size_t>(a)] != 0) continue;
      for (int b = 0; b < n; ++b) {
        if (comp[static_cast<std::size_t>(b)] == 0) continue;
        const double d = euclid(a, b);
        if (d < best) {
          best = d;
          ba = a;
          bb = b;
        }
      }
    }
    link(ba, bb, w_of(best));
  }
  g.freeze();
  return g;
}

WeightedGraph barabasi_albert(int n, int attach, const WeightSpec& ws,
                              util::Rng& rng) {
  NORS_CHECK(n >= 2 && attach >= 1 && attach < n);
  WeightedGraph g(n);
  // Repeated-endpoint list for preferential attachment.
  std::vector<Vertex> endpoints;
  // Seed: a small clique on attach+1 vertices.
  for (Vertex u = 0; u <= attach; ++u) {
    for (Vertex v = u + 1; v <= attach; ++v) {
      g.add_edge(u, v, ws.draw(rng));
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (Vertex v = static_cast<Vertex>(attach + 1); v < n; ++v) {
    std::set<Vertex> targets;
    while (static_cast<int>(targets.size()) < attach) {
      const Vertex t = endpoints[rng.uniform(endpoints.size())];
      if (t != v) targets.insert(t);
    }
    for (Vertex t : targets) {
      g.add_edge(v, t, ws.draw(rng));
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  g.freeze();
  return g;
}

WeightedGraph clustered(int n, int clusters, double p_in, Weight inter_w,
                        const WeightSpec& ws, util::Rng& rng) {
  NORS_CHECK(n >= clusters && clusters >= 2);
  NORS_CHECK(inter_w >= 1);
  WeightedGraph g(n);
  std::vector<int> cluster_of(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) cluster_of[static_cast<std::size_t>(v)] = v % clusters;
  // Intra-cluster: spanning path + ER(p_in).
  std::vector<std::vector<Vertex>> members(static_cast<std::size_t>(clusters));
  for (Vertex v = 0; v < n; ++v) {
    members[static_cast<std::size_t>(cluster_of[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  for (const auto& mem : members) {
    for (std::size_t i = 1; i < mem.size(); ++i) {
      g.add_edge(mem[i - 1], mem[i], ws.draw(rng));
    }
    for (std::size_t i = 0; i < mem.size(); ++i) {
      for (std::size_t j = i + 2; j < mem.size(); ++j) {
        if (rng.bernoulli(p_in)) g.add_edge(mem[i], mem[j], ws.draw(rng));
      }
    }
  }
  // Inter-cluster backbone: ring over cluster representatives + a few chords.
  // Tracked in a local set (the graph is still in its builder phase, so
  // port_to is unavailable — and the ER pass above never links a's tail to
  // c+2's tail anyway, making the dedup a backbone-only concern).
  std::set<std::pair<Vertex, Vertex>> backbone;
  for (int c = 0; c < clusters; ++c) {
    const Vertex a = members[static_cast<std::size_t>(c)][0];
    const Vertex b = members[static_cast<std::size_t>((c + 1) % clusters)][0];
    backbone.insert(key(a, b));
    g.add_edge(a, b, inter_w);
  }
  for (int c = 0; c + 2 < clusters; c += 2) {
    const Vertex a = members[static_cast<std::size_t>(c)].back();
    const Vertex b = members[static_cast<std::size_t>(c + 2)].back();
    if (backbone.insert(key(a, b)).second) g.add_edge(a, b, inter_w);
  }
  g.freeze();
  return g;
}

WeightedGraph lollipop(int n, int clique, const WeightSpec& ws,
                       util::Rng& rng) {
  NORS_CHECK(n > clique && clique >= 2);
  WeightedGraph g(n);
  for (Vertex u = 0; u < clique; ++u) {
    for (Vertex v = u + 1; v < clique; ++v) g.add_edge(u, v, ws.draw(rng));
  }
  for (Vertex v = clique; v < n; ++v) g.add_edge(v - 1, v, ws.draw(rng));
  g.freeze();
  return g;
}

}  // namespace nors::graph
