#include "primitives/bfs_tree.h"

#include <algorithm>
#include <queue>

#include "util/threads.h"

namespace nors::primitives {

namespace {

using graph::Vertex;

/// Flooding BFS: the root announces depth 0; every vertex adopts the first
/// announcement it hears (smallest sender id among the first round's
/// arrivals, for determinism) and re-announces depth+1. A handler touches
/// only v's slots (announced_ only at the root), so rounds may be pooled.
class BfsProgram : public congest::NodeProgram {
 public:
  BfsProgram(int n, Vertex root) : root_(root) {
    parent_.assign(static_cast<std::size_t>(n), graph::kNoVertex);
    parent_port_.assign(static_cast<std::size_t>(n), graph::kNoPort);
    depth_.assign(static_cast<std::size_t>(n), -1);
  }

  void begin(congest::Network& net) override {
    depth_[static_cast<std::size_t>(root_)] = 0;
    net.wake(root_);
  }

  void on_round(Vertex v, congest::MessageView inbox,
                congest::Sender& out) override {
    if (depth_[static_cast<std::size_t>(v)] == -1) {
      // Adopt the announcement with the smallest (depth, sender) pair.
      const congest::Message* best = nullptr;
      for (const auto& m : inbox) {
        if (best == nullptr || m.w[0] < best->w[0] ||
            (m.w[0] == best->w[0] && m.from < best->from)) {
          best = &m;
        }
      }
      if (best == nullptr) return;
      depth_[static_cast<std::size_t>(v)] =
          static_cast<int>(best->w[0]) + 1;
      parent_[static_cast<std::size_t>(v)] = best->from;
      parent_port_[static_cast<std::size_t>(v)] = best->arrival_port;
      out.send_all(congest::Message::make(
          0, {depth_[static_cast<std::size_t>(v)]}));
    } else if (v == root_ && !announced_) {
      announced_ = true;
      out.send_all(congest::Message::make(0, {0}));
    }
  }

  Vertex root_;
  std::vector<Vertex> parent_;
  std::vector<std::int32_t> parent_port_;
  std::vector<int> depth_;
  bool announced_ = false;
};

BfsTree finish(const graph::WeightedGraph& g, Vertex root,
               std::vector<Vertex> parent, std::vector<std::int32_t> ports,
               std::vector<int> depth, std::int64_t rounds) {
  BfsTree t;
  t.root = root;
  t.parent = std::move(parent);
  t.parent_port = std::move(ports);
  t.depth = std::move(depth);
  t.children.assign(static_cast<std::size_t>(g.n()), {});
  for (Vertex v = 0; v < g.n(); ++v) {
    NORS_CHECK_MSG(t.depth[static_cast<std::size_t>(v)] >= 0,
                   "graph must be connected to build a BFS tree");
    t.height = std::max(t.height, t.depth[static_cast<std::size_t>(v)]);
    const Vertex p = t.parent[static_cast<std::size_t>(v)];
    if (p != graph::kNoVertex) {
      t.children[static_cast<std::size_t>(p)].push_back(v);
    }
  }
  t.construction_rounds = rounds;
  return t;
}

}  // namespace

BfsTree distributed_bfs_tree(const graph::WeightedGraph& g, Vertex root,
                             int threads) {
  NORS_CHECK(g.valid_vertex(root));
  BfsProgram prog(g.n(), root);
  congest::Network net(g, {.threads = util::resolve_threads(threads)});
  const congest::NetworkStats stats = net.run(prog);
  return finish(g, root, std::move(prog.parent_), std::move(prog.parent_port_),
                std::move(prog.depth_), stats.rounds);
}

BfsTree centralized_bfs_tree(const graph::WeightedGraph& g, Vertex root) {
  NORS_CHECK(g.valid_vertex(root));
  const auto n = static_cast<std::size_t>(g.n());
  std::vector<Vertex> parent(n, graph::kNoVertex);
  std::vector<std::int32_t> ports(n, graph::kNoPort);
  std::vector<int> depth(n, -1);
  std::queue<Vertex> q;
  depth[static_cast<std::size_t>(root)] = 0;
  q.push(root);
  while (!q.empty()) {
    const Vertex v = q.front();
    q.pop();
    for (const auto& e : g.neighbors(v)) {
      if (depth[static_cast<std::size_t>(e.to)] == -1) {
        depth[static_cast<std::size_t>(e.to)] =
            depth[static_cast<std::size_t>(v)] + 1;
        parent[static_cast<std::size_t>(e.to)] = v;
        ports[static_cast<std::size_t>(e.to)] = e.rev;
        q.push(e.to);
      }
    }
  }
  return finish(g, root, std::move(parent), std::move(ports),
                std::move(depth), /*rounds=*/0);
}

}  // namespace nors::primitives
