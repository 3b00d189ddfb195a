#include "primitives/pipelined.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

namespace nors::primitives {

namespace {

using graph::Vertex;

/// Upcast tokens to the root along tree edges, then broadcast each token
/// back down the whole tree. One token per edge per round (CONGEST).
class PipelineProgram : public congest::NodeProgram {
 public:
  PipelineProgram(const graph::WeightedGraph& g, const BfsTree& tree,
                  const std::vector<int>& tokens)
      : tree_(tree) {
    const auto n = tree.parent.size();
    up_queue_.resize(n);
    down_queue_.resize(n);
    received_.assign(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      for (int t = 0; t < tokens[v]; ++t) {
        up_queue_[v].push_back(static_cast<std::int64_t>(v));
      }
    }
    // (parent, child) -> port at parent, recovered from the child's
    // parent_port through the graph.
    for (Vertex v = 0; v < g.n(); ++v) {
      const Vertex p = tree.parent[static_cast<std::size_t>(v)];
      if (p == graph::kNoVertex) continue;
      const std::int32_t port_at_parent =
          g.edge(v, tree.parent_port[static_cast<std::size_t>(v)]).rev;
      child_port_[pack(p, v)] = port_at_parent;
    }
  }

  void begin(congest::Network& net) override {
    for (std::size_t v = 0; v < up_queue_.size(); ++v) {
      if (!up_queue_[v].empty()) net.wake(static_cast<Vertex>(v));
    }
  }

  void on_round(Vertex v, congest::MessageView inbox,
                congest::Sender& out) override {
    auto& up = up_queue_[static_cast<std::size_t>(v)];
    auto& down = down_queue_[static_cast<std::size_t>(v)];
    for (const auto& m : inbox) {
      if (m.tag == kUp) {
        if (v == tree_.root) {
          down.push_back(m.w[0]);
        } else {
          up.push_back(m.w[0]);
        }
      } else {
        ++received_[static_cast<std::size_t>(v)];
        down.push_back(m.w[0]);
      }
    }
    if (v == tree_.root && !up.empty()) {
      // The root's own tokens skip the up phase.
      for (std::int64_t t : up) down.push_back(t);
      up.clear();
    }
    bool more = false;
    if (!up.empty()) {
      out.send(tree_.parent_port[static_cast<std::size_t>(v)],
               congest::Message::make(kUp, {up.front()}));
      up.pop_front();
      more = more || !up.empty();
    }
    if (!down.empty()) {
      const std::int64_t t = down.front();
      down.pop_front();
      for (Vertex c : tree_.children[static_cast<std::size_t>(v)]) {
        out.send(child_port_.at(pack(v, c)),
                 congest::Message::make(kDown, {t}));
      }
      more = more || !down.empty();
    }
    if (more) out.wake_self();
  }

  std::int64_t received(Vertex v) const {
    return received_[static_cast<std::size_t>(v)];
  }

 private:
  static constexpr std::uint16_t kUp = 1;
  static constexpr std::uint16_t kDown = 2;

  static std::int64_t pack(Vertex a, Vertex b) {
    return (static_cast<std::int64_t>(a) << 32) |
           static_cast<std::uint32_t>(b);
  }

  const BfsTree& tree_;
  std::vector<std::deque<std::int64_t>> up_queue_;
  std::vector<std::deque<std::int64_t>> down_queue_;
  std::vector<std::int64_t> received_;
  std::unordered_map<std::int64_t, std::int32_t> child_port_;
};

}  // namespace

std::int64_t pipelined_broadcast_rounds(const BfsTree& tree,
                                        const std::vector<int>& tokens) {
  const std::size_t n = tree.parent.size();
  NORS_CHECK(tokens.size() == n);
  if (n == 0) return 0;
  // A run of `count` tokens leaving a vertex in consecutive rounds from
  // `first` on (round 1 is the first round of the broadcast).
  struct Run {
    std::int64_t first = 0;
    std::int64_t count = 0;
  };
  std::vector<Vertex> order{tree.root};
  order.reserve(n);
  for (std::size_t h = 0; h < order.size(); ++h) {
    const auto& ch = tree.children[static_cast<std::size_t>(order[h])];
    order.insert(order.end(), ch.begin(), ch.end());
  }
  // Children before parents: a vertex's arrivals are its own tokens in
  // round 1 and each child's sends one round later. It forwards one token
  // per round while its queue is non-empty, so its sends are the arrivals
  // merged by start: a run starting no later than the current busy period
  // ends extends it by its count, a later one opens a new period. At the
  // root the sends are the down emissions.
  std::vector<std::vector<Run>> sends(n);
  std::vector<Run> arrivals;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const auto v = static_cast<std::size_t>(*it);
    arrivals.clear();
    NORS_CHECK(tokens[v] >= 0);
    if (tokens[v] > 0) arrivals.push_back({1, tokens[v]});
    for (const Vertex c : tree.children[v]) {
      auto& sc = sends[static_cast<std::size_t>(c)];
      for (const Run& r : sc) arrivals.push_back({r.first + 1, r.count});
      std::vector<Run>().swap(sc);
    }
    if (arrivals.empty()) continue;
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Run& a, const Run& b) { return a.first < b.first; });
    auto& out = sends[v];
    Run cur = arrivals.front();
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      const Run& r = arrivals[i];
      if (r.first <= cur.first + cur.count) {
        cur.count += r.count;
      } else {
        out.push_back(cur);
        cur = r;
      }
    }
    out.push_back(cur);
  }
  const auto& emitted = sends[static_cast<std::size_t>(tree.root)];
  if (emitted.empty()) return 0;
  return emitted.back().first + emitted.back().count - 1 + tree.height;
}

std::int64_t simulate_pipelined_broadcast(const graph::WeightedGraph& g,
                                          const BfsTree& tree,
                                          const std::vector<int>& tokens) {
  NORS_CHECK(static_cast<int>(tokens.size()) == g.n());
  PipelineProgram prog(g, tree, tokens);
  congest::Network net(g, {});
  const auto stats = net.run(prog);
  // Sanity: every non-root vertex received every token.
  std::int64_t total = 0;
  for (int t : tokens) total += t;
  for (Vertex v = 0; v < g.n(); ++v) {
    if (v == tree.root) continue;
    NORS_CHECK_MSG(prog.received(v) == total,
                   "broadcast lost tokens at vertex " << v);
  }
  return stats.rounds;
}

}  // namespace nors::primitives
