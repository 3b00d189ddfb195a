#include "treeroute/dist_tree_sim.h"

#include <algorithm>

#include "congest/network.h"

namespace nors::treeroute {

namespace {

using graph::Vertex;

class Phase1Program : public congest::NodeProgram {
 public:
  Phase1Program(const TreeSpec& tree, const std::vector<char>& in_u) {
    for (std::size_t i = 0; i < tree.members.size(); ++i) {
      const Vertex v = tree.members[i];
      auto& st = state_[v];
      st.is_subtree_root =
          (v == tree.root) || in_u[static_cast<std::size_t>(v)];
      if (v != tree.root) {
        st.parent = tree.parent[i];
        st.parent_port = tree.parent_port[i];
      }
    }
    // Forest children: tree children that are not subtree roots.
    for (Vertex v : tree.members) {
      if (v == tree.root) continue;
      if (!state_.at(v).is_subtree_root) {
        state_.at(state_.at(v).parent).children.push_back(v);
      }
    }
    for (auto& [v, st] : state_) {
      std::sort(st.children.begin(), st.children.end());
      st.pending_children = static_cast<int>(st.children.size());
    }
  }

  void begin(congest::Network& net) override {
    // Forest leaves start the size convergecast.
    for (auto& [v, st] : state_) {
      if (st.pending_children == 0) net.wake(v);
    }
  }

  void on_round(Vertex v, congest::MessageView inbox,
                congest::Sender& out) override {
    auto it = state_.find(v);
    if (it == state_.end()) return;  // not a tree member
    auto& st = it->second;
    for (const auto& m : inbox) {
      if (m.tag == kSize) {
        st.child_size[m.from] = m.w[0];
        st.child_port[m.from] = m.arrival_port;
        --st.pending_children;
      } else {
        // One part of the merged DFS + label message: [a, b) and then the
        // light list's (vertex, port) pairs, kLabelLast on the final part.
        st.received.insert(st.received.end(), m.w.begin(),
                           m.w.begin() + m.len);
        if (m.tag == kLabelLast) {
          st.a = st.received[0];
          st.b = st.received[1];
          for (std::size_t j = 2; j + 1 < st.received.size(); j += 2) {
            st.light.emplace_back(static_cast<Vertex>(st.received[j]),
                                  static_cast<std::int32_t>(st.received[j + 1]));
          }
          st.have_interval = true;
        }
      }
    }

    // Pass 1: all children reported — report upward (or, at a subtree
    // root, seed the DFS pass).
    if (!st.size_done && st.pending_children == 0) {
      st.size_done = true;
      std::int64_t total = 1;
      for (const auto& [c, s] : st.child_size) total += s;
      st.size = total;
      if (st.is_subtree_root) {
        st.a = 0;
        st.b = total;
        st.have_interval = true;
      } else {
        out.send(st.parent_port, congest::Message::make(kSize, {total}));
      }
    }

    // Pass 2: interval, light list and sizes known — compose each child's
    // message: its interval (heavy child first, then ascending — the
    // TzTreeScheme order) and this light list, extended by (v, port toward
    // the child) unless the child is heavy.
    if (st.have_interval && st.size_done && !st.assigned) {
      st.assigned = true;
      std::vector<Vertex> order = st.children;
      if (!order.empty()) {
        Vertex heavy = order.front();
        for (Vertex c : order) {
          if (st.child_size.at(c) > st.child_size.at(heavy)) heavy = c;
        }
        auto hit = std::find(order.begin(), order.end(), heavy);
        std::iter_swap(order.begin(), hit);
      }
      std::int64_t next_a = st.a + 1;
      for (Vertex c : order) {
        const std::int64_t sz = st.child_size.at(c);
        Outgoing o;
        o.port = st.child_port.at(c);
        o.words = {next_a, next_a + sz};
        for (const auto& [x, port] : st.light) {
          o.words.push_back(x);
          o.words.push_back(port);
        }
        if (c != order.front()) {
          o.words.push_back(v);
          o.words.push_back(o.port);
        }
        st.outgoing.push_back(std::move(o));
        next_a += sz;
      }
    }

    // One part per child edge per round, in order.
    bool more = false;
    for (auto& o : st.outgoing) {
      if (o.sent == o.words.size()) continue;
      const std::size_t take =
          std::min<std::size_t>(congest::kMaxWords, o.words.size() - o.sent);
      congest::Message m;
      m.len = static_cast<std::uint8_t>(take);
      std::copy_n(o.words.begin() + static_cast<std::ptrdiff_t>(o.sent), take,
                  m.w.begin());
      o.sent += take;
      m.tag = o.sent == o.words.size() ? kLabelLast : kLabelPart;
      out.send(o.port, m);
      more = more || o.sent < o.words.size();
    }
    if (more) out.wake_self();
  }

  /// A child's merged DFS + label message and how much of it has gone out.
  struct Outgoing {
    std::int32_t port = graph::kNoPort;
    std::vector<std::int64_t> words;
    std::size_t sent = 0;
  };

  struct NodeState {
    bool is_subtree_root = false;
    Vertex parent = graph::kNoVertex;
    std::int32_t parent_port = graph::kNoPort;
    std::vector<Vertex> children;
    std::unordered_map<Vertex, std::int64_t> child_size;
    // Port toward each forest child: the one its size report arrived on.
    std::unordered_map<Vertex, std::int32_t> child_port;
    int pending_children = 0;
    bool size_done = false;
    bool have_interval = false;
    bool assigned = false;
    std::int64_t size = 0;
    std::int64_t a = -1, b = -1;
    std::vector<std::pair<Vertex, std::int32_t>> light;
    std::vector<std::int64_t> received;  // merged-message parts so far
    std::vector<Outgoing> outgoing;
  };

  std::unordered_map<Vertex, NodeState> state_;

 private:
  static constexpr std::uint16_t kSize = 1;
  static constexpr std::uint16_t kLabelPart = 2;
  static constexpr std::uint16_t kLabelLast = 3;
};

}  // namespace

Phase1SimResult simulate_phase1(const graph::WeightedGraph& g,
                                const TreeSpec& tree,
                                const std::vector<char>& in_u) {
  Phase1Program prog(tree, in_u);
  congest::Network net(g, {});
  const auto stats = net.run(prog);
  Phase1SimResult r;
  r.rounds = stats.rounds;
  r.messages = stats.messages_sent;
  for (const auto& [v, st] : prog.state_) {
    NORS_CHECK_MSG(st.size_done && st.have_interval,
                   "phase-1 simulation did not converge at vertex " << v);
    r.a[v] = st.a;
    r.b[v] = st.b;
    r.size[v] = st.size;
    r.light[v] = st.light;
  }
  return r;
}

}  // namespace nors::treeroute
