#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "congest/ledger.h"
#include "congest/network.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "primitives/bfs_tree.h"
#include "primitives/pipelined.h"
#include "util/threads.h"

namespace nors {
namespace {

using congest::Message;
using congest::MessageView;
using graph::Vertex;

TEST(Message, WordBudgetEnforced) {
  EXPECT_NO_THROW(Message::make(1, {1, 2, 3, 4}));
  EXPECT_THROW(Message::make(1, {1, 2, 3, 4, 5}), std::logic_error);
}

/// A program where vertex 0 sends `burst` messages to vertex 1 in round 1;
/// with edge capacity 1 they must be delivered over `burst` rounds.
class BurstProgram : public congest::NodeProgram {
 public:
  explicit BurstProgram(int burst) : burst_(burst) {}
  void begin(congest::Network& net) override { net.wake(0); }
  void on_round(Vertex v, MessageView inbox,
                congest::Sender& out) override {
    if (v == 0 && !sent_) {
      sent_ = true;
      for (int i = 0; i < burst_; ++i) {
        out.send(0, Message::make(0, {i}));
      }
    }
    if (v == 1) {
      for (const auto& m : inbox) arrivals_.push_back(m.w[0]);
      per_round_.push_back(static_cast<int>(inbox.size()));
    }
  }
  int burst_;
  bool sent_ = false;
  std::vector<std::int64_t> arrivals_;
  std::vector<int> per_round_;
};

TEST(Network, CapacityQueuesBursts) {
  graph::WeightedGraph g(2);
  g.add_edge(0, 1, 1);
  g.freeze();
  BurstProgram prog(5);
  congest::Network net(g, {.edge_capacity = 1});
  const auto stats = net.run(prog);
  ASSERT_EQ(prog.arrivals_.size(), 5u);
  // FIFO order and one delivery per round.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(prog.arrivals_[i], i);
  for (int c : prog.per_round_) EXPECT_EQ(c, 1);
  EXPECT_GE(stats.rounds, 5);
  EXPECT_EQ(stats.messages_delivered, 5);
  EXPECT_GE(stats.max_link_backlog, 4);
}

TEST(Network, HigherCapacityDrainsFaster) {
  graph::WeightedGraph g(2);
  g.add_edge(0, 1, 1);
  g.freeze();
  BurstProgram prog(6);
  congest::Network net(g, {.edge_capacity = 3});
  net.run(prog);
  ASSERT_EQ(prog.arrivals_.size(), 6u);
  EXPECT_EQ(prog.per_round_[0], 3);
  EXPECT_EQ(prog.per_round_[1], 3);
}

TEST(Network, MaxRoundsGuards) {
  graph::WeightedGraph g(2);
  g.add_edge(0, 1, 1);
  g.freeze();

  /// Ping-pong forever.
  class Forever : public congest::NodeProgram {
   public:
    void begin(congest::Network& net) override { net.wake(0); }
    void on_round(Vertex, MessageView,
                  congest::Sender& out) override {
      out.send(0, Message::make(0, {1}));
    }
  } prog;
  congest::Network net(g, {.edge_capacity = 1, .max_rounds = 50});
  EXPECT_THROW(net.run(prog), std::logic_error);
}

TEST(BfsTree, MatchesCentralizedDepths) {
  util::Rng rng(21);
  const auto g = graph::connected_gnm(150, 300, graph::WeightSpec::uniform(1, 9), rng);
  const auto d = primitives::distributed_bfs_tree(g, 0);
  const auto c = primitives::centralized_bfs_tree(g, 0);
  ASSERT_EQ(d.depth.size(), c.depth.size());
  for (std::size_t v = 0; v < d.depth.size(); ++v) {
    EXPECT_EQ(d.depth[v], c.depth[v]) << "v=" << v;
  }
  EXPECT_EQ(d.height, c.height);
  // Construction takes Θ(height) rounds.
  EXPECT_LE(d.construction_rounds, 3 * d.height + 5);
}

TEST(BfsTree, RoundsScaleWithDiameterNotSize) {
  util::Rng rng(22);
  const auto small_diam = graph::connected_gnm(300, 1500, graph::WeightSpec::unit(), rng);
  const auto big_diam = graph::path(300, graph::WeightSpec::unit(), rng);
  const auto a = primitives::distributed_bfs_tree(small_diam, 0);
  const auto b = primitives::distributed_bfs_tree(big_diam, 0);
  EXPECT_LT(a.construction_rounds, 30);
  EXPECT_GT(b.construction_rounds, 250);
}

TEST(Pipelined, FormulaBoundsSimulatedRuns) {
  util::Rng rng(23);
  for (int trial = 0; trial < 3; ++trial) {
    const auto g = graph::connected_gnm(60 + 30 * trial, 150,
                                        graph::WeightSpec::unit(), rng);
    const auto tree = primitives::centralized_bfs_tree(g, 0);
    std::vector<int> tokens(static_cast<std::size_t>(g.n()), 0);
    int total = 0;
    for (Vertex v = 0; v < g.n(); v += 7) {
      tokens[static_cast<std::size_t>(v)] = 1 + (v % 3);
      total += tokens[static_cast<std::size_t>(v)];
    }
    const auto rounds = primitives::simulate_pipelined_broadcast(g, tree, tokens);
    const auto bound = primitives::pipelined_broadcast_rounds(total, tree.height);
    // Lemma 1: O(M + D). The formula is the documented charge; the real run
    // must stay within it (+slack for the initial wake round).
    EXPECT_LE(rounds, bound + 2) << "n=" << g.n() << " M=" << total;
    // And the broadcast cannot beat the information-theoretic floor.
    EXPECT_GE(rounds, std::max<std::int64_t>(total, tree.height));
  }
}

TEST(Pipelined, ZeroMessagesCostsNothing) {
  EXPECT_EQ(primitives::pipelined_broadcast_rounds(0, 10), 0);
}

/// Echo program: vertex 1 reports the arrival port and sender of whatever
/// it receives, so we can pin the simulator's delivery metadata.
class EchoProgram : public congest::NodeProgram {
 public:
  void begin(congest::Network& net) override { net.wake(0); }
  void on_round(Vertex v, MessageView inbox,
                congest::Sender& out) override {
    if (v == 0 && !sent_) {
      sent_ = true;
      out.send(0, Message::make(7, {123}));
    }
    if (v == 1) {
      for (const auto& m : inbox) {
        from_ = m.from;
        arrival_port_ = m.arrival_port;
        tag_ = m.tag;
        payload_ = m.w[0];
      }
    }
  }
  bool sent_ = false;
  Vertex from_ = graph::kNoVertex;
  std::int32_t arrival_port_ = graph::kNoPort;
  std::uint16_t tag_ = 0;
  std::int64_t payload_ = 0;
};

TEST(Network, DeliveryMetadataIsAccurate) {
  // Triangle so vertex 1 has two ports; the message from 0 must arrive on
  // the port whose reverse leads back to 0.
  graph::WeightedGraph g(3);
  g.add_edge(1, 2, 1);  // port 0 of 1 -> 2
  g.add_edge(0, 1, 1);  // port 1 of 1 -> 0
  g.add_edge(0, 2, 1);
  g.freeze();
  EchoProgram prog;
  congest::Network net(g, {});
  net.run(prog);
  EXPECT_EQ(prog.from_, 0);
  EXPECT_EQ(prog.tag_, 7);
  EXPECT_EQ(prog.payload_, 123);
  ASSERT_NE(prog.arrival_port_, graph::kNoPort);
  EXPECT_EQ(g.edge(1, prog.arrival_port_).to, 0);
}

TEST(Network, ReusableAcrossRuns) {
  // The same Network object must produce identical statistics for repeated
  // runs of equivalent programs (state fully reset).
  graph::WeightedGraph g(2);
  g.add_edge(0, 1, 1);
  g.freeze();
  congest::Network net(g, {});
  BurstProgram p1(4), p2(4);
  const auto s1 = net.run(p1);
  const auto s2 = net.run(p2);
  EXPECT_EQ(s1.rounds, s2.rounds);
  EXPECT_EQ(s1.messages_sent, s2.messages_sent);
}

TEST(Network, MaxRoundsBoundaryIsExact) {
  graph::WeightedGraph g(2);
  g.add_edge(0, 1, 1);
  g.freeze();
  // A 5-message burst quiesces in exactly 6 rounds (1 send + 5 deliveries):
  // a cap of 6 must pass untouched, a cap of 5 must trip the guard.
  {
    BurstProgram prog(5);
    congest::Network net(g, {.edge_capacity = 1, .max_rounds = 6});
    EXPECT_EQ(net.run(prog).rounds, 6);
  }
  {
    BurstProgram prog(5);
    congest::Network net(g, {.edge_capacity = 1, .max_rounds = 5});
    EXPECT_THROW(net.run(prog), std::logic_error);
  }
}

TEST(Network, MaxLinkBacklogCountsQueuedPeak) {
  graph::WeightedGraph g(2);
  g.add_edge(0, 1, 1);
  g.freeze();
  BurstProgram prog(7);
  congest::Network net(g, {.edge_capacity = 1});
  const auto stats = net.run(prog);
  // All 7 staged in one round on one directed link; nothing delivered yet
  // when the round closes, so the observed peak is the full burst.
  EXPECT_EQ(stats.max_link_backlog, 7);
  EXPECT_EQ(stats.messages_sent, 7);
  EXPECT_EQ(stats.messages_delivered, 7);
}

TEST(Network, EdgeCapacityAboveOneDrainsInBatches) {
  graph::WeightedGraph g(2);
  g.add_edge(0, 1, 1);
  g.freeze();
  BurstProgram prog(7);
  congest::Network net(g, {.edge_capacity = 3});
  const auto stats = net.run(prog);
  ASSERT_EQ(prog.per_round_.size(), 3u);
  EXPECT_EQ(prog.per_round_[0], 3);
  EXPECT_EQ(prog.per_round_[1], 3);
  EXPECT_EQ(prog.per_round_[2], 1);
  // FIFO survives batched delivery.
  for (int i = 0; i < 7; ++i) EXPECT_EQ(prog.arrivals_[i], i);
  // Round 1: send burst. Rounds 2-4: drain. Quiesce.
  EXPECT_EQ(stats.rounds, 4);
  EXPECT_EQ(stats.messages_delivered, 7);
}

/// Counts the inbox sizes a woken vertex observes, re-waking itself a fixed
/// number of times without ever sending: pins wake-without-inbox semantics.
class WakeOnlyProgram : public congest::NodeProgram {
 public:
  explicit WakeOnlyProgram(int rewakes) : rewakes_(rewakes) {}
  void begin(congest::Network& net) override { net.wake(1); }
  void on_round(Vertex v, MessageView inbox, congest::Sender& out) override {
    if (v != 1) return;
    inbox_sizes_.push_back(static_cast<int>(inbox.size()));
    if (static_cast<int>(inbox_sizes_.size()) <= rewakes_) out.wake_self();
  }
  int rewakes_;
  std::vector<int> inbox_sizes_;
};

TEST(Network, WakeWithoutInboxRunsWithEmptyInbox) {
  graph::WeightedGraph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.freeze();
  WakeOnlyProgram prog(3);
  congest::Network net(g, {});
  const auto stats = net.run(prog);
  // Initial wake + 3 re-wakes, one round each, always an empty inbox.
  ASSERT_EQ(prog.inbox_sizes_.size(), 4u);
  for (int sz : prog.inbox_sizes_) EXPECT_EQ(sz, 0);
  EXPECT_EQ(stats.rounds, 4);
  EXPECT_EQ(stats.messages_sent, 0);
  EXPECT_EQ(stats.messages_delivered, 0);
  EXPECT_EQ(stats.max_link_backlog, 0);
}

TEST(Network, ThreadedRunMatchesSerial) {
  util::Rng rng(33);
  const auto g =
      graph::connected_gnm(400, 1200, graph::WeightSpec::uniform(1, 9), rng);
  const auto serial_tree = primitives::distributed_bfs_tree(g, 0);

  class BfsLike : public congest::NodeProgram {
   public:
    explicit BfsLike(int n) : depth_(static_cast<std::size_t>(n), -1) {}
    void begin(congest::Network& net) override {
      depth_[0] = 0;
      net.wake(0);
    }
    void on_round(Vertex v, MessageView inbox, congest::Sender& out) override {
      auto& d = depth_[static_cast<std::size_t>(v)];
      if (d == -1) {
        for (const auto& m : inbox) {
          if (d == -1 || m.w[0] + 1 < d) d = static_cast<int>(m.w[0]) + 1;
        }
        if (d != -1) out.send_all(Message::make(0, {d}));
      } else if (v == 0 && !sent_) {
        sent_ = true;
        out.send_all(Message::make(0, {0}));
      }
    }
    std::vector<int> depth_;
    bool sent_ = false;
  };

  BfsLike s1(g.n()), s4(g.n());
  congest::Network n1(g, {.edge_capacity = 1, .max_rounds = 50'000'000,
                          .threads = 1});
  congest::Network n4(g, {.edge_capacity = 1, .max_rounds = 50'000'000,
                          .threads = 4});
  const auto stats1 = n1.run(s1);
  const auto stats4 = n4.run(s4);
  EXPECT_EQ(stats1.rounds, stats4.rounds);
  EXPECT_EQ(stats1.messages_sent, stats4.messages_sent);
  EXPECT_EQ(stats1.messages_delivered, stats4.messages_delivered);
  EXPECT_EQ(stats1.max_link_backlog, stats4.max_link_backlog);
  EXPECT_EQ(s1.depth_, s4.depth_);
  // And both agree with the engine-independent BFS depths.
  for (std::size_t v = 0; v < s1.depth_.size(); ++v) {
    EXPECT_EQ(s1.depth_[v], serial_tree.depth[v]) << "v=" << v;
  }
}

TEST(Network, LargeRoundsRunOnThePoolAndMatchSerial) {
  // Rounds scheduling at least kMinParallelVertices vertices are chunked
  // across the workers (smaller ones run inline): a flood over a graph whose
  // BFS frontier outgrows the threshold must see several worker ids and
  // still reproduce the serial run exactly.
  util::Rng rng(34);
  const auto g =
      graph::connected_gnm(6000, 24000, graph::WeightSpec::uniform(1, 9), rng);

  class Flood : public congest::NodeProgram {
   public:
    explicit Flood(int n)
        : hop_(static_cast<std::size_t>(n), -1),
          worker_(static_cast<std::size_t>(n), -1) {}
    void begin(congest::Network& net) override {
      hop_[0] = 0;
      net.wake(0);
    }
    void on_round(Vertex v, MessageView inbox, congest::Sender& out) override {
      const auto vi = static_cast<std::size_t>(v);
      worker_[vi] = std::max(worker_[vi], out.worker());
      if (v == 0) {
        if (!started_) out.send_all(Message::make(0, {0}));
        started_ = true;
        return;
      }
      if (hop_[vi] != -1) return;
      for (const auto& m : inbox) {
        if (hop_[vi] == -1 || m.w[0] + 1 < hop_[vi]) {
          hop_[vi] = static_cast<int>(m.w[0]) + 1;
        }
      }
      out.send_all(Message::make(0, {hop_[vi]}));
    }
    std::vector<int> hop_, worker_;
    bool started_ = false;  // written only by vertex 0's handler
  };

  Flood s1(g.n()), s4(g.n());
  congest::Network n1(g, {.threads = 1});
  congest::Network n4(g, {.threads = 4});
  const auto stats1 = n1.run(s1);
  const auto stats4 = n4.run(s4);
  EXPECT_EQ(stats1.rounds, stats4.rounds);
  EXPECT_EQ(stats1.messages_sent, stats4.messages_sent);
  EXPECT_EQ(stats1.messages_delivered, stats4.messages_delivered);
  EXPECT_EQ(stats1.max_link_backlog, stats4.max_link_backlog);
  EXPECT_EQ(s1.hop_, s4.hop_);
  EXPECT_EQ(*std::max_element(s1.worker_.begin(), s1.worker_.end()), 0);
  EXPECT_EQ(*std::max_element(s4.worker_.begin(), s4.worker_.end()), 3);
}

/// Floods with per-port bursts longer than the edge capacity (links keep
/// backlogs for several rounds), re-wakes vertices both through wake_self
/// and through Network::wake on another vertex, and logs a digest of every
/// inbox each vertex sees, in order, one entry per execution.
class BacklogMix : public congest::NodeProgram {
 public:
  explicit BacklogMix(int n)
      : seen_(static_cast<std::size_t>(n), 0),
        rewakes_(static_cast<std::size_t>(n), 0),
        log_(static_cast<std::size_t>(n)) {}
  void begin(congest::Network& net) override {
    net_ = &net;
    for (Vertex v = 0; v < net.graph().n(); v += 97) net.wake(v);
  }
  void on_round(Vertex v, MessageView inbox, congest::Sender& out) override {
    const auto vi = static_cast<std::size_t>(v);
    std::uint64_t h = 1469598103934665603ull ^ inbox.size();
    for (const auto& m : inbox) {
      for (const std::int64_t x :
           {std::int64_t{m.from}, std::int64_t{m.arrival_port},
            std::int64_t{m.tag}, m.w[0], m.w[1]}) {
        h = (h ^ static_cast<std::uint64_t>(x)) * 1099511628211ull;
      }
      // A message whose sequence number is 0 mod 5 wakes its sender one
      // more time, from this (another) vertex's handler.
      if (m.w[1] % 5 == 0 && m.tag == 1) net_->wake(m.from);
    }
    log_[vi].push_back(h);
    if (!seen_[vi]) {
      seen_[vi] = 1;
      // 1–3 messages per port: bursts beyond capacity 1 and 2.
      const int burst = 1 + static_cast<int>(v % 3);
      const int deg = net_->graph().degree(v);
      for (int b = 0; b < burst; ++b) {
        for (std::int32_t p = 0; p < deg; ++p) {
          out.send(p, Message::make(1, {v, b * deg + p}));
        }
      }
      rewakes_[vi] = static_cast<int>(v % 4);
    } else if (inbox.empty() && rewakes_[vi] == 0) {
      // Woken through Network::wake: answer once on port 0.
      out.send(0, Message::make(2, {v, 1}));
    }
    if (rewakes_[vi] > 0) {
      --rewakes_[vi];
      out.wake_self();
    }
    if (out.worker() > 0) on_pool_.store(true, std::memory_order_relaxed);
  }
  congest::Network* net_ = nullptr;
  std::vector<char> seen_;
  std::vector<int> rewakes_;
  std::vector<std::vector<std::uint64_t>> log_;
  std::atomic<bool> on_pool_{false};  // some handler ran on worker > 0
};

TEST(Network, PooledBarrierMatchesSerialUnderBacklog) {
  // Pool sizes are taken exactly, even above the hardware concurrency.
  setenv("NORS_THREADS_OVERSUBSCRIBE", "1", 1);
  util::Rng rng(35);
  const auto g =
      graph::connected_gnm(6000, 24000, graph::WeightSpec::uniform(1, 9), rng);
  for (const int cap : {1, 2}) {
    BacklogMix serial(g.n());
    congest::Network n1(g, {.edge_capacity = cap, .threads = 1});
    const auto s1 = n1.run(serial);
    // Both sides of the pooling threshold: a large pooled middle, a small
    // inline head and tail, and queues that outlive one round.
    EXPECT_GT(s1.max_link_backlog, cap);
    EXPECT_GT(s1.messages_delivered,
              static_cast<std::int64_t>(
                  4 * congest::Network::kMinParallelVertices));
    for (const int threads : {1, 3, 4}) {
      SCOPED_TRACE("cap=" + std::to_string(cap) +
                   " threads=" + std::to_string(threads));
      BacklogMix pooled(g.n());
      congest::Network nt(
          g, {.edge_capacity = cap, .threads = util::resolve_threads(threads)});
      const auto st = nt.run(pooled);
      EXPECT_EQ(st.rounds, s1.rounds);
      EXPECT_EQ(st.messages_sent, s1.messages_sent);
      EXPECT_EQ(st.messages_delivered, s1.messages_delivered);
      EXPECT_EQ(st.max_link_backlog, s1.max_link_backlog);
      EXPECT_EQ(pooled.on_pool_.load(), threads > 1);
      for (std::size_t v = 0; v < serial.log_.size(); ++v) {
        ASSERT_EQ(pooled.log_[v], serial.log_[v]) << "vertex " << v;
      }
    }
  }
}

TEST(Ledger, MergeAndTotals) {
  congest::RoundLedger a, b;
  a.add("x", congest::CostKind::kSimulated, 10, 5);
  b.add("y", congest::CostKind::kAccounted, 20, 7, "note");
  a.merge(b);
  EXPECT_EQ(a.total_rounds(), 30);
  EXPECT_EQ(a.simulated_rounds(), 10);
  EXPECT_EQ(a.accounted_rounds(), 20);
  EXPECT_EQ(a.entries().size(), 2u);
  EXPECT_THROW(a.add("neg", congest::CostKind::kSimulated, -1),
               std::logic_error);
}

}  // namespace
}  // namespace nors
