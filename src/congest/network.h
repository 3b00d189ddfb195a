#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "congest/message.h"
#include "graph/graph.h"
#include "util/arena.h"
#include "util/threads.h"

namespace nors::congest {

/// Per-run statistics of a simulated execution.
struct NetworkStats {
  std::int64_t rounds = 0;
  std::int64_t messages_sent = 0;
  std::int64_t messages_delivered = 0;
  std::int64_t max_link_backlog = 0;  // worst per-link queue length observed
};

class Network;

namespace internal {

/// Per-thread staging buffer for one round's sends and wakes; merged into
/// the shared queue arena at the round barrier.
struct Outbox {
  std::vector<std::int32_t> link;  // destination link per staged message
  std::vector<Message> msg;
  std::vector<graph::Vertex> wakes;
  std::int64_t sent = 0;

  void clear() {
    link.clear();
    msg.clear();
    wakes.clear();
    sent = 0;
  }
};

/// One delivery: `d` messages of the link whose queue starts at cur_[src],
/// bound for `dst`. Pooled delivery stages these grouped by receiver range.
struct Delivery {
  std::size_t src = 0;
  graph::Vertex dst = graph::kNoVertex;
  std::int32_t d = 0;
};

/// Everything one pool worker owns across the phases of a pooled round.
/// Sized on the calling thread before each phase: vectors grown on a worker
/// come from that thread's malloc arena, where the freed buffers stay
/// resident (~6 MB of peak RSS on an n = 2^15 construction).
struct Worker {
  Outbox ob;
  // Delivery, as the owner of an active-list slice: per receiver range r,
  // the slice's link and message counts (then its write cursor into the
  // staging slab); its survivor count (then its cursor into the survivor
  // list).
  std::vector<std::size_t> recs, msgs;
  std::size_t survivors = 0;
  // Delivery, as the owner of receiver range r: its staged deliveries
  // [stage_lo, stage_hi), its first inbox slot and its receivers.
  std::size_t stage_lo = 0, stage_hi = 0, inbox_lo = 0;
  std::vector<graph::Vertex> receivers;
  std::vector<graph::Vertex> woken;  // vertices this worker scheduled
  // Merge: this worker's link range and its share of the next active list.
  std::size_t link_lo = 0, link_hi = 0;  // [lo, hi) link ids
  std::size_t surv_lo = 0, surv_hi = 0;  // survivors inside, by index
  std::size_t act_off = 0;               // first slot in merged_links_
  std::size_t msg_off = 0;               // first slot in the next slab
  std::size_t msgs_total = 0;
  std::vector<std::int32_t> new_links, sort_scratch;
  std::int64_t backlog = 0;
};

}  // namespace internal

/// Send-side interface handed to a node while it executes one round. All
/// sends are staged in the round's outbox slab and delivered subject to the
/// per-round per-edge capacity (1 message per direction per round in the
/// standard CONGEST model).
class Sender {
 public:
  /// Send over `port` of the executing vertex.
  void send(std::int32_t port, const Message& m);
  /// Send the same message over every port of the executing vertex.
  void send_all(const Message& m);
  /// Ask the engine to run this vertex again next round even without inbox
  /// traffic (used by sources that emit over several rounds).
  void wake_self();
  /// Dense id (0..Options::threads-1) of the pool worker executing this
  /// round's handler — for per-worker scratch such as allocation arenas.
  /// Vertices never migrate mid-handler, but the worker serving a vertex
  /// varies from round to round; state owned by v must not key on it.
  int worker() const { return worker_; }

 private:
  friend class Network;
  Sender(Network& net, graph::Vertex v, internal::Outbox& ob, int worker)
      : net_(net), v_(v), ob_(ob), worker_(worker) {}

  Network& net_;
  graph::Vertex v_;
  internal::Outbox& ob_;
  int worker_;
};

/// A distributed algorithm: per-vertex handler invoked once per round with
/// the messages delivered this round. State lives inside the NodeProgram
/// implementation (indexed by vertex), mirroring "local memory" in the model.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once before round 0; use to initialize and wake source vertices
  /// (via Network::wake).
  virtual void begin(Network& net) = 0;

  /// One round at vertex v. `inbox` holds the messages delivered to v this
  /// round (at most edge_capacity per incident edge, by the capacity
  /// constraint). When Options::threads > 1 this runs concurrently across
  /// vertices, so the handler must only touch state owned by v.
  virtual void on_round(graph::Vertex v, MessageView inbox, Sender& out) = 0;
};

/// Synchronous CONGEST simulator over flat memory. Messages in flight live
/// in one contiguous slab grouped by directed link; each round:
///   1. deliver: every queued link delivers up to `edge_capacity` messages
///      into a per-round inbox slab, and the receivers are scheduled,
///   2. execute: every scheduled vertex runs on_round (in vertex order)
///      with per-worker outboxes,
///   3. merge: undelivered leftovers and the round's outboxes are merged
///      into the next queue slab (double buffer). The active link list
///      stays sorted by construction: delivery compacts the (already
///      ascending) survivors and the round's newly activated links are
///      sorted alone — is_sorted fast path for the common ascending staging
///      order, radix for large batches — then merged with the survivors.
///      No O(A log A) re-sort of the full list.
/// Execution stops when no messages are queued and no vertex is awake.
///
/// With Options::threads > 1, run() starts one util::WorkerTeam, parks it
/// between pooled phases and joins it before returning. Each phase is
/// pooled once it is large enough (kMinParallelVertices), else it runs
/// inline on the calling thread:
///   - deliver (at least that many active links): workers take equal
///     slices of the active list, count and stage their deliveries grouped
///     by receiver range (fixed vertex ranges of equal link count), then
///     each worker fills the inbox windows of its own range. A range's
///     staged deliveries are link-ascending (slice order, then list order),
///     so every inbox keeps link-ascending, FIFO-per-link order;
///   - execute and merge (at least that many scheduled vertices): worker t
///     runs a contiguous chunk of the sorted schedule, and because a link
///     has a unique sender, the chunk's vertices own one contiguous link
///     range — worker t merges exactly that range (its survivors, its
///     outbox, its slice of the next slab and active list).
/// Counts are prefix-summed between phases in a fixed order, so any pool
/// size yields the same inboxes, wakes, rounds and NetworkStats.
///
/// Per-round work is proportional to the number of active links and
/// scheduled vertices — never to n or m — and steady-state execution
/// performs no allocation once slab capacities have peaked. Message slabs
/// and link tables are util::Buffer blocks (util/arena.h): grown by
/// discard-on-grow with power-of-two capacity, never zero-filled
/// (DESIGN.md §9).
class Network {
 public:
  struct Options {
    int edge_capacity = 1;          // messages per directed edge per round
    std::int64_t max_rounds = 50'000'000;
    /// Pool workers for the round's phases. Any value yields the same
    /// deliveries, rounds and stats.
    int threads = 1;
  };

  /// Phases smaller than this (active links for delivery, scheduled
  /// vertices for execute and merge) run inline even when threads > 1,
  /// which keeps tiny phases (a flood's first rounds, a draining queue's
  /// last) off the barrier. Thresholds 256–8192 time the same within
  /// noise on an n = 2^15 build (DESIGN.md §9.3).
  static constexpr std::size_t kMinParallelVertices = 2048;

  /// The graph must be frozen: link ids index its CSR adjacency directly.
  Network(const graph::WeightedGraph& g, Options opt);

  const graph::WeightedGraph& graph() const { return g_; }

  /// Wake a vertex for the next round. Callable from begin() and — under an
  /// internal lock, so it is safe in threaded runs — from on_round.
  void wake(graph::Vertex v);

  /// Run `prog` to quiescence; returns the statistics of this run.
  NetworkStats run(NodeProgram& prog);

 private:
  friend class Sender;

  /// Where a directed link points: resolved once at construction so the
  /// per-round hot loops never consult the graph.
  struct LinkTarget {
    graph::Vertex dst = graph::kNoVertex;
    std::int32_t arrival_port = graph::kNoPort;
  };

  std::size_t link_index(graph::Vertex v, std::int32_t port) const {
    return link_offset_[static_cast<std::size_t>(v)] +
           static_cast<std::size_t>(port);
  }
  /// The receiver range (pooled delivery) that vertex v belongs to.
  std::size_t receiver_range(graph::Vertex v) const {
    return static_cast<std::size_t>(
        std::upper_bound(recv_lo_.begin() + 1, recv_lo_.end() - 1, v) -
        (recv_lo_.begin() + 1));
  }
  void stage_send(internal::Outbox& ob, graph::Vertex from, std::int32_t port,
                  const Message& m);
  void deliver_round(std::vector<graph::Vertex>& to_run);
  void deliver_pooled(util::WorkerTeam& team,
                      std::vector<graph::Vertex>& to_run);
  void execute(NodeProgram& prog, const std::vector<graph::Vertex>& running,
               std::size_t lo, std::size_t hi, int t);
  void merge_prepare(internal::Worker& w);
  void merge_fill(internal::Worker& w);
  void merge_outboxes(util::WorkerTeam* team, int segments,
                      std::vector<graph::Vertex>& to_run);

  const graph::WeightedGraph& g_;
  Options opt_;

  // Static link topology (CSR-aligned: link = link_offset_[v] + port).
  util::Buffer<std::size_t> link_offset_;  // n+1
  util::Buffer<LinkTarget> target_;        // one per directed link
  // Receiver ranges for pooled delivery: range r is vertices
  // [recv_lo_[r], recv_lo_[r+1]), cut at equal incident-link counts.
  std::vector<graph::Vertex> recv_lo_;

  // In-flight queue arena, double buffered. cur_ holds all queued messages
  // grouped by link: link l owns cur_[link_begin_[l] .. +link_count_[l]).
  // Only links listed in active_links_ have nonzero counts; the list is
  // kept ascending across rounds (see the class comment).
  util::Buffer<Message> cur_, next_;
  util::Buffer<std::size_t> link_begin_;
  util::Buffer<std::size_t> next_begin_;
  util::Buffer<std::int32_t> link_count_;
  util::Buffer<std::int32_t> pend_count_;  // this round's staged sends
  std::vector<std::int32_t> active_links_;  // ascending
  std::vector<std::int32_t> merged_links_;  // double buffer of the above
  std::vector<std::int32_t> sort_scratch_;
  util::Buffer<internal::Delivery> staged_;  // pooled delivery staging

  // Per-round inbox slab, grouped by receiver.
  util::Buffer<Message> inbox_;
  util::Buffer<std::size_t> inbox_end_;   // per vertex: one past window
  util::Buffer<std::int32_t> inbox_cnt_;  // per vertex: window length
  std::vector<graph::Vertex> receivers_;

  util::Buffer<char> awake_;
  std::vector<graph::Vertex> wake_list_;
  std::mutex wake_mu_;
  std::vector<internal::Worker> workers_;  // one per pool worker
  NetworkStats stats_;
  std::int64_t queued_ = 0;
};

}  // namespace nors::congest
