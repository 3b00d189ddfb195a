#include "primitives/set_bf.h"

#include "util/threads.h"

namespace nors::primitives {

namespace {

using graph::Dist;
using graph::Vertex;

class SetBfProgram : public congest::NodeProgram {
 public:
  SetBfProgram(int n, const std::vector<Vertex>& set) {
    dist_.assign(static_cast<std::size_t>(n), graph::kDistInf);
    source_.assign(static_cast<std::size_t>(n), graph::kNoVertex);
    parent_.assign(static_cast<std::size_t>(n), graph::kNoVertex);
    parent_port_.assign(static_cast<std::size_t>(n), graph::kNoPort);
    dirty_.assign(static_cast<std::size_t>(n), 0);
    for (Vertex s : set) {
      dist_[static_cast<std::size_t>(s)] = 0;
      source_[static_cast<std::size_t>(s)] = s;
      dirty_[static_cast<std::size_t>(s)] = 1;
    }
  }

  void begin(congest::Network& net) override {
    for (std::size_t v = 0; v < dirty_.size(); ++v) {
      if (dirty_[v]) net.wake(static_cast<Vertex>(v));
    }
  }

  void on_round(Vertex v, congest::MessageView inbox,
                congest::Sender& out) override {
    const auto vi = static_cast<std::size_t>(v);
    for (const auto& m : inbox) {
      const Dist d = m.w[0];
      const Vertex src = static_cast<Vertex>(m.w[1]);
      // Tie-break on source id so the assignment is deterministic.
      if (d < dist_[vi] || (d == dist_[vi] && src < source_[vi])) {
        dist_[vi] = d;
        source_[vi] = src;
        parent_[vi] = m.from;
        parent_port_[vi] = m.arrival_port;
        dirty_[vi] = 1;
      }
    }
    if (dirty_[vi]) {
      dirty_[vi] = 0;
      // Announce (dist + w(v,u), source) to each neighbor u. The neighbor
      // adds nothing: sending the incremented value keeps messages at two
      // words and matches "the name of the vertex in A_i and the current
      // distance to it" (paper §3.1).
      std::int32_t p = 0;
      for (const auto& e : net_->graph().neighbors(v)) {
        out.send(p++, congest::Message::make(
                          0, {dist_[vi] + e.w, source_[vi]}));
      }
    }
  }

  void attach(congest::Network& net) { net_ = &net; }

  std::vector<Dist> dist_;
  std::vector<Vertex> source_;
  std::vector<Vertex> parent_;
  std::vector<std::int32_t> parent_port_;
  std::vector<char> dirty_;

 private:
  congest::Network* net_ = nullptr;
};

}  // namespace

SetBfResult distributed_set_bellman_ford(const graph::WeightedGraph& g,
                                         const std::vector<Vertex>& set,
                                         int edge_capacity, int threads) {
  NORS_CHECK_MSG(!set.empty(), "source set must be non-empty");
  SetBfProgram prog(g.n(), set);
  congest::Network net(g, {.edge_capacity = edge_capacity,
                           .threads = util::resolve_threads(threads)});
  prog.attach(net);
  const auto stats = net.run(prog);
  SetBfResult r;
  r.dist = std::move(prog.dist_);
  r.source = std::move(prog.source_);
  r.parent = std::move(prog.parent_);
  r.parent_port = std::move(prog.parent_port_);
  r.rounds = stats.rounds;
  r.messages = stats.messages_sent;
  return r;
}

}  // namespace nors::primitives
