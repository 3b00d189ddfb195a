#include "primitives/cluster_bf.h"

#include <cstring>

#include "util/arena.h"
#include "util/threads.h"

namespace nors::primitives {

namespace {

using graph::Dist;
using graph::Vertex;

/// One membership record: the cluster entry plus its announcement-queue
/// link (next_q chains the owning vertex's pending announcements by local
/// index; kNotQueued when idle).
struct Entry {
  std::int32_t slot = -1;   // dense root slot
  std::int32_t next_q = 0;  // queue link (see constants below)
  ClusterEntry rec;
};

constexpr std::int32_t kNotQueued = -2;  // next_q: not in the queue
constexpr std::int32_t kQueueTail = -1;  // next_q: queued, last in line

class ClusterBfProgram : public congest::NodeProgram {
 public:
  ClusterBfProgram(const graph::WeightedGraph& g,
                   const std::vector<Vertex>& roots, const AdmitFn& admit,
                   int workers)
      : g_(g),
        admit_(admit),
        roots_(roots),
        arenas_(static_cast<std::size_t>(workers)) {
    const auto n = static_cast<std::size_t>(g.n());
    list_.assign_fill(n, List{});
    q_head_.assign_fill(n, -1);
    q_tail_.assign_fill(n, -1);
    root_slot_.assign_fill(n, -1);
    for (std::size_t s = 0; s < roots.size(); ++s) {
      const Vertex u = roots[s];
      NORS_CHECK_MSG(root_slot_[static_cast<std::size_t>(u)] < 0,
                     "duplicate root " << u);
      root_slot_[static_cast<std::size_t>(u)] = static_cast<int>(s);
      const std::int32_t at = append_entry(
          u, static_cast<std::int32_t>(s),
          ClusterEntry{0, graph::kNoVertex, graph::kNoPort}, arenas_[0]);
      push_announce(u, at);
    }
  }

  void begin(congest::Network& net) override {
    const auto n = static_cast<std::size_t>(g_.n());
    for (std::size_t v = 0; v < n; ++v) {
      if (q_head_[v] >= 0) net.wake(static_cast<Vertex>(v));
    }
  }

  void on_round(Vertex v, congest::MessageView inbox,
                congest::Sender& out) override {
    const auto vi = static_cast<std::size_t>(v);
    List& list = list_[vi];
    for (const auto& m : inbox) {
      const Vertex root = static_cast<Vertex>(m.w[0]);
      const Dist d = m.w[1];
      const std::int32_t slot = root_slot_[static_cast<std::size_t>(root)];
      // Linear scan of v's contiguous entry block: a vertex belongs to
      // Õ(n^{1/k}) clusters whp (Claim 2), so a short scan beats hashing.
      std::int32_t at = -1;
      for (std::int32_t i = 0; i < list.cnt; ++i) {
        if (list.ptr[i].slot == slot) {
          at = i;
          break;
        }
      }
      const Dist current =
          at < 0 ? graph::kDistInf
                 : list.ptr[at].rec.dist;
      if (d >= current) continue;
      if (v != root && !admit_(v, root, d)) continue;
      if (at < 0) {
        at = append_entry(v, slot, ClusterEntry{},
                          arenas_[static_cast<std::size_t>(out.worker())]);
      }
      auto& e = list_[vi].ptr[at].rec;
      e.dist = d;
      e.parent = m.from;
      e.parent_port = m.arrival_port;
      push_announce(v, at);
    }
    // Flush one announcement per neighbor edge per round; the network's
    // per-edge capacity queues any burst beyond that, so congestion from
    // overlapping clusters is borne by the link queues exactly as in the
    // model. We emit the *current* best distance at send time, so a stale
    // queued announcement is upgraded rather than re-sent.
    const std::int32_t at = q_head_[vi];
    if (at >= 0) {
      Entry& entry = list_[vi].ptr[at];
      q_head_[vi] = entry.next_q == kQueueTail ? -1 : entry.next_q;
      if (q_head_[vi] < 0) q_tail_[vi] = -1;
      entry.next_q = kNotQueued;
      const Vertex root = roots_[static_cast<std::size_t>(entry.slot)];
      const Dist d = entry.rec.dist;
      // One prebuilt message, retargeted per port (the make() path would
      // re-validate and re-fill the payload 2m times per announcement wave).
      congest::Message m = congest::Message::make(0, {root, 0});
      std::int32_t p = 0;
      for (const auto& e : g_.neighbors(v)) {
        m.w[1] = d + e.w;
        out.send(p++, m);
      }
      if (q_head_[vi] >= 0) out.wake_self();
    }
  }

  /// Flattens the per-vertex blocks into the CSR result (join order within
  /// each vertex = block order).
  void flatten(ClusterBfResult& r) const {
    const auto n = static_cast<std::size_t>(g_.n());
    r.off.assign(n + 1, 0);
    std::size_t total = 0;
    for (std::size_t v = 0; v < n; ++v) {
      r.off[v] = total;
      total += static_cast<std::size_t>(list_[v].cnt);
    }
    r.off[n] = total;
    r.slot.resize(total);
    r.rec.resize(total);
    std::size_t w = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const List& list = list_[v];
      for (std::int32_t i = 0; i < list.cnt; ++i, ++w) {
        r.slot[w] = list.ptr[i].slot;
        r.rec[w] = list.ptr[i].rec;
      }
    }
  }

 private:
  /// Per-vertex contiguous entry block in the executing worker's arena;
  /// doubled on growth (the superseded block stays arena garbage until
  /// the arena is freed — bounded by 2× the final footprint). A block may
  /// outgrow into another worker's arena in a later round; every arena
  /// lives as long as the program, and flatten() copies the entries out in
  /// vertex order, so placement never shows.
  struct List {
    Entry* ptr = nullptr;
    std::int32_t cnt = 0;
    std::int32_t cap = 0;
  };

  std::int32_t append_entry(Vertex v, std::int32_t slot,
                            const ClusterEntry& rec, util::Arena& arena) {
    List& list = list_[static_cast<std::size_t>(v)];
    if (list.cnt == list.cap) {
      const std::int32_t cap = std::max<std::int32_t>(4, 2 * list.cap);
      Entry* bigger = arena.alloc<Entry>(static_cast<std::size_t>(cap));
      if (list.cnt > 0) {
        std::memcpy(bigger, list.ptr,
                    static_cast<std::size_t>(list.cnt) * sizeof(Entry));
      }
      list.ptr = bigger;
      list.cap = cap;
    }
    const std::int32_t at = list.cnt++;
    list.ptr[at] = {slot, kNotQueued, rec};
    return at;
  }

  void push_announce(Vertex v, std::int32_t at) {
    const auto vi = static_cast<std::size_t>(v);
    Entry& e = list_[vi].ptr[at];
    if (e.next_q != kNotQueued) return;  // already queued: it will carry
                                         // the freshest distance at send
    e.next_q = kQueueTail;
    if (q_head_[vi] < 0) {
      q_head_[vi] = at;
    } else {
      list_[vi].ptr[q_tail_[vi]].next_q = at;
    }
    q_tail_[vi] = at;
  }

  const graph::WeightedGraph& g_;
  const AdmitFn& admit_;
  const std::vector<Vertex>& roots_;
  std::vector<util::Arena> arenas_;  // entry blocks, one arena per worker
  util::Buffer<std::int32_t> root_slot_;  // graph vertex -> slot, or -1
  util::Buffer<List> list_;               // per-vertex entry block
  util::Buffer<std::int32_t> q_head_, q_tail_;  // per-vertex queue, by
                                                // local entry index
};

}  // namespace

ClusterBfResult distributed_cluster_bellman_ford(
    const graph::WeightedGraph& g, const std::vector<Vertex>& roots,
    const AdmitFn& admit, int edge_capacity, int threads) {
  const int workers = util::resolve_threads(threads);
  ClusterBfProgram prog(g, roots, admit, workers);
  congest::Network net(
      g, {.edge_capacity = edge_capacity, .threads = workers});
  const auto stats = net.run(prog);
  ClusterBfResult r;
  r.roots = roots;
  prog.flatten(r);
  r.rounds = stats.rounds;
  r.messages = stats.messages_sent;
  r.max_link_backlog = stats.max_link_backlog;
  return r;
}

}  // namespace nors::primitives
