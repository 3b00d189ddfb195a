#include "congest/network.h"

#include <algorithm>
#include <optional>

#include "util/radix.h"

namespace nors::congest {

void Sender::send(std::int32_t port, const Message& m) {
  net_.stage_send(ob_, v_, port, m);
}

void Sender::send_all(const Message& m) {
  const int deg = net_.graph().degree(v_);
  for (std::int32_t p = 0; p < deg; ++p) net_.stage_send(ob_, v_, p, m);
}

void Sender::wake_self() { ob_.wakes.push_back(v_); }

Network::Network(const graph::WeightedGraph& g, Options opt)
    : g_(g), opt_(opt) {
  NORS_CHECK(opt_.edge_capacity >= 1);
  NORS_CHECK(opt_.threads >= 1);
  NORS_CHECK_MSG(g.frozen(), "Network requires a frozen graph");
  const auto n = static_cast<std::size_t>(g.n());
  link_offset_.ensure(n + 1);
  link_offset_[0] = 0;
  for (graph::Vertex v = 0; v < g.n(); ++v) {
    link_offset_[static_cast<std::size_t>(v) + 1] =
        link_offset_[static_cast<std::size_t>(v)] +
        static_cast<std::size_t>(g.degree(v));
  }
  const std::size_t links = link_offset_[n];
  NORS_CHECK_MSG(links < static_cast<std::size_t>(INT32_MAX),
                 "link ids must fit an int32");
  target_.ensure(links);
  for (graph::Vertex v = 0; v < g.n(); ++v) {
    std::size_t l = link_offset_[static_cast<std::size_t>(v)];
    for (const graph::HalfEdge& e : g.neighbors(v)) target_[l++] = {e.to, e.rev};
  }
  link_begin_.assign_fill(links, 0);
  next_begin_.assign_fill(links, 0);
  link_count_.assign_fill(links, 0);
  pend_count_.assign_fill(links, 0);
  awake_.assign_fill(n, 0);
  inbox_end_.assign_fill(n, 0);
  inbox_cnt_.assign_fill(n, 0);

  // Receiver ranges: cut [0, n) so each range is the target of about the
  // same number of links (a vertex's incoming links = its degree).
  const auto ranges = static_cast<std::size_t>(opt_.threads);
  recv_lo_.assign(ranges + 1, g.n());
  recv_lo_[0] = 0;
  std::size_t r = 1;
  for (graph::Vertex v = 0; v < g.n() && r < ranges; ++v) {
    while (r < ranges &&
           link_offset_[static_cast<std::size_t>(v)] * ranges >= links * r) {
      recv_lo_[r++] = v;
    }
  }
}

void Network::wake(graph::Vertex v) {
  NORS_CHECK(g_.valid_vertex(v));
  const std::lock_guard<std::mutex> lock(wake_mu_);
  if (!awake_[static_cast<std::size_t>(v)]) {
    awake_[static_cast<std::size_t>(v)] = 1;
    wake_list_.push_back(v);
  }
}

void Network::stage_send(internal::Outbox& ob, graph::Vertex from,
                         std::int32_t port, const Message& m) {
  NORS_CHECK_MSG(m.len <= kMaxWords, "message exceeds CONGEST word budget");
  NORS_CHECK_MSG(port >= 0 && port < g_.degree(from),
                 "bad port " << port << " at vertex " << from);
  const std::size_t l = link_index(from, port);
  Message staged = m;
  staged.from = from;
  staged.arrival_port = target_[l].arrival_port;
  ob.link.push_back(static_cast<std::int32_t>(l));
  ob.msg.push_back(staged);
  ++ob.sent;
}

/// Deliver, inline: pop up to edge_capacity messages off every active link
/// into the inbox slab (grouped by receiver, link-ascending within a
/// receiver, FIFO within a link) and schedule the receivers.
void Network::deliver_round(std::vector<graph::Vertex>& to_run) {
  receivers_.clear();
  const auto cap = static_cast<std::int32_t>(opt_.edge_capacity);
  std::size_t total = 0;
  for (const std::int32_t li : active_links_) {
    const auto l = static_cast<std::size_t>(li);
    const std::int32_t d = std::min(cap, link_count_[l]);
    const auto dst = static_cast<std::size_t>(target_[l].dst);
    if (inbox_cnt_[dst] == 0) receivers_.push_back(target_[l].dst);
    inbox_cnt_[dst] += d;
    total += static_cast<std::size_t>(d);
  }
  inbox_.ensure(total);
  std::size_t off = 0;
  for (const graph::Vertex v : receivers_) {
    // inbox_end_ doubles as the scatter cursor below; after the scatter it
    // is exactly one past v's window.
    inbox_end_[static_cast<std::size_t>(v)] = off;
    off += static_cast<std::size_t>(inbox_cnt_[static_cast<std::size_t>(v)]);
  }

  std::size_t leftover = 0;  // compact active_links_ in place (stays sorted)
  for (const std::int32_t li : active_links_) {
    const auto l = static_cast<std::size_t>(li);
    const std::int32_t d = std::min(cap, link_count_[l]);
    const auto dst = static_cast<std::size_t>(target_[l].dst);
    std::size_t w = inbox_end_[dst];
    const std::size_t b = link_begin_[l];
    for (std::int32_t i = 0; i < d; ++i) {
      inbox_[w++] = cur_[b + static_cast<std::size_t>(i)];
    }
    inbox_end_[dst] = w;
    link_begin_[l] = b + static_cast<std::size_t>(d);
    link_count_[l] -= d;
    queued_ -= d;
    stats_.messages_delivered += d;
    if (link_count_[l] > 0) active_links_[leftover++] = li;
    if (!awake_[dst]) {
      awake_[dst] = 1;
      to_run.push_back(target_[l].dst);
    }
  }
  active_links_.resize(leftover);
}

/// Deliver, pooled: the same inboxes, schedule and survivor list as
/// deliver_round, in three phases (see the class comment).
void Network::deliver_pooled(util::WorkerTeam& team,
                             std::vector<graph::Vertex>& to_run) {
  const auto nw = static_cast<std::size_t>(team.size());
  const std::size_t links = active_links_.size();
  const auto cap = static_cast<std::int32_t>(opt_.edge_capacity);
  const auto slice_lo = [&](std::size_t s) { return links * s / nw; };
  for (internal::Worker& w : workers_) {
    w.recs.assign(nw, 0);
    w.msgs.assign(nw, 0);
    w.survivors = 0;
  }

  // 1. Each slice counts its deliveries per receiver range.
  team.run([&](int t) {
    internal::Worker& w = workers_[static_cast<std::size_t>(t)];
    const auto s = static_cast<std::size_t>(t);
    for (std::size_t i = slice_lo(s); i < slice_lo(s + 1); ++i) {
      const auto l = static_cast<std::size_t>(active_links_[i]);
      const std::int32_t c = link_count_[l];
      const std::size_t r = receiver_range(target_[l].dst);
      ++w.recs[r];
      w.msgs[r] += static_cast<std::size_t>(std::min(cap, c));
      if (c > cap) ++w.survivors;
    }
  });

  // Range-major, slice-minor prefix sums: range r's deliveries are staged
  // contiguously, slice by slice, so they stay in active-list order.
  std::size_t staged = 0, delivered = 0, survivors = 0;
  for (std::size_t r = 0; r < nw; ++r) {
    internal::Worker& owner = workers_[r];
    owner.stage_lo = staged;
    owner.inbox_lo = delivered;
    for (internal::Worker& w : workers_) {
      const std::size_t cnt = w.recs[r];
      w.recs[r] = staged;
      staged += cnt;
      delivered += w.msgs[r];
    }
    owner.stage_hi = staged;
    owner.receivers.clear();
    owner.receivers.reserve(owner.stage_hi - owner.stage_lo);
    owner.woken.clear();
    owner.woken.reserve(owner.stage_hi - owner.stage_lo);
  }
  for (internal::Worker& w : workers_) {
    const std::size_t cnt = w.survivors;
    w.survivors = survivors;
    survivors += cnt;
  }
  staged_.ensure(staged);
  inbox_.ensure(delivered);
  merged_links_.resize(survivors);

  // 2. Each slice stages its deliveries, pops them off its links and
  // compacts its survivors.
  team.run([&](int t) {
    internal::Worker& w = workers_[static_cast<std::size_t>(t)];
    const auto s = static_cast<std::size_t>(t);
    for (std::size_t i = slice_lo(s); i < slice_lo(s + 1); ++i) {
      const std::int32_t li = active_links_[i];
      const auto l = static_cast<std::size_t>(li);
      const std::int32_t c = link_count_[l];
      const std::int32_t d = std::min(cap, c);
      const graph::Vertex dst = target_[l].dst;
      staged_[w.recs[receiver_range(dst)]++] = {link_begin_[l], dst, d};
      link_begin_[l] += static_cast<std::size_t>(d);
      link_count_[l] = c - d;
      if (c > d) merged_links_[w.survivors++] = li;
    }
  });

  // 3. Each range owner lays out and fills its receivers' inbox windows.
  team.run([&](int t) {
    internal::Worker& w = workers_[static_cast<std::size_t>(t)];
    for (std::size_t i = w.stage_lo; i < w.stage_hi; ++i) {
      const auto dst = static_cast<std::size_t>(staged_[i].dst);
      if (inbox_cnt_[dst] == 0) w.receivers.push_back(staged_[i].dst);
      inbox_cnt_[dst] += staged_[i].d;
    }
    std::size_t off = w.inbox_lo;
    for (const graph::Vertex v : w.receivers) {
      inbox_end_[static_cast<std::size_t>(v)] = off;
      off += static_cast<std::size_t>(inbox_cnt_[static_cast<std::size_t>(v)]);
    }
    for (std::size_t i = w.stage_lo; i < w.stage_hi; ++i) {
      const internal::Delivery& e = staged_[i];
      const auto dst = static_cast<std::size_t>(e.dst);
      std::copy_n(cur_.data() + e.src, e.d, inbox_.data() + inbox_end_[dst]);
      inbox_end_[dst] += static_cast<std::size_t>(e.d);
      if (!awake_[dst]) {
        awake_[dst] = 1;
        w.woken.push_back(e.dst);
      }
    }
  });

  queued_ -= static_cast<std::int64_t>(delivered);
  stats_.messages_delivered += static_cast<std::int64_t>(delivered);
  active_links_.swap(merged_links_);
  for (internal::Worker& w : workers_) {
    to_run.insert(to_run.end(), w.woken.begin(), w.woken.end());
  }
}

/// Execute: run the handlers of running[lo, hi) on worker t.
void Network::execute(NodeProgram& prog,
                      const std::vector<graph::Vertex>& running,
                      std::size_t lo, std::size_t hi, int t) {
  internal::Outbox& ob = workers_[static_cast<std::size_t>(t)].ob;
  for (std::size_t i = lo; i < hi; ++i) {
    const graph::Vertex v = running[i];
    const auto vi = static_cast<std::size_t>(v);
    const auto cnt = static_cast<std::size_t>(inbox_cnt_[vi]);
    // Woken-without-traffic vertices have cnt == 0 and a stale window
    // offset; give them an explicitly empty view.
    const MessageView inbox =
        cnt == 0 ? MessageView{}
                 : MessageView{inbox_.data() + (inbox_end_[vi] - cnt), cnt};
    Sender out(*this, v, ob, t);
    prog.on_round(v, inbox, out);
  }
}

/// Merge, first half, for the links [w.link_lo, w.link_hi) whose senders
/// all staged into w's outbox: count this round's sends per link, collect
/// and sort the newly activated links, find the range's survivors and
/// total the range's messages.
void Network::merge_prepare(internal::Worker& w) {
  for (const std::int32_t li : w.ob.link) {
    const auto l = static_cast<std::size_t>(li);
    if (pend_count_[l]++ == 0 && link_count_[l] == 0) {
      w.new_links.push_back(li);
    }
  }
  // Newly activated links arrive grouped by sending vertex in execution
  // order — ascending across vertices and, for every program that emits
  // ports in order, ascending within one — so the is_sorted fast path
  // usually wins; announcement bursts that don't fall back to a radix
  // pass. One linear merge with the survivors then keeps the active list
  // ascending with no full-list sort.
  if (!std::is_sorted(w.new_links.begin(), w.new_links.end())) {
    util::radix_sort(w.new_links, w.sort_scratch,
                     static_cast<std::int32_t>(link_count_.size() - 1));
  }
  const auto bound = [&](std::size_t l) {
    return static_cast<std::size_t>(
        std::lower_bound(active_links_.begin(), active_links_.end(),
                         static_cast<std::int32_t>(l)) -
        active_links_.begin());
  };
  w.surv_lo = bound(w.link_lo);
  w.surv_hi = bound(w.link_hi);
  w.msgs_total = static_cast<std::size_t>(w.ob.sent);
  for (std::size_t i = w.surv_lo; i < w.surv_hi; ++i) {
    w.msgs_total += static_cast<std::size_t>(
        link_count_[static_cast<std::size_t>(active_links_[i])]);
  }
}

/// Merge, second half: write w's slice of the next active list and of the
/// next slab — per link, the undelivered leftovers first (they are older
/// than anything staged this round), then the outbox's sends in staging
/// order, which is FIFO per link because a link has a unique sender.
void Network::merge_fill(internal::Worker& w) {
  const auto seg = merged_links_.begin() + static_cast<std::ptrdiff_t>(w.act_off);
  const auto seg_end = std::merge(
      active_links_.begin() + static_cast<std::ptrdiff_t>(w.surv_lo),
      active_links_.begin() + static_cast<std::ptrdiff_t>(w.surv_hi),
      w.new_links.begin(), w.new_links.end(), seg);
  std::size_t off = w.msg_off;
  for (auto it = seg; it != seg_end; ++it) {
    const auto l = static_cast<std::size_t>(*it);
    const auto left = static_cast<std::size_t>(link_count_[l]);
    std::copy_n(cur_.data() + link_begin_[l], left, next_.data() + off);
    next_begin_[l] = off + left;  // the staged-send write cursor
    off += left + static_cast<std::size_t>(pend_count_[l]);
  }
  internal::Outbox& ob = w.ob;
  for (std::size_t i = 0; i < ob.link.size(); ++i) {
    next_[next_begin_[static_cast<std::size_t>(ob.link[i])]++] = ob.msg[i];
  }
  for (const graph::Vertex v : ob.wakes) {
    if (!awake_[static_cast<std::size_t>(v)]) {
      awake_[static_cast<std::size_t>(v)] = 1;
      w.woken.push_back(v);
    }
  }
  ob.clear();
  w.backlog = 0;
  for (auto it = seg; it != seg_end; ++it) {
    const auto l = static_cast<std::size_t>(*it);
    const std::int32_t total = link_count_[l] + pend_count_[l];
    link_count_[l] = total;
    pend_count_[l] = 0;
    link_begin_[l] = next_begin_[l] - static_cast<std::size_t>(total);
    w.backlog = std::max(w.backlog, static_cast<std::int64_t>(total));
  }
}

/// Merge: fold undelivered leftovers and the round's outboxes into the
/// other slab of the double buffer, regrouping by link. Workers
/// [0, segments) own consecutive link ranges; with a team, each range is
/// merged by its own worker.
void Network::merge_outboxes(util::WorkerTeam* team, int segments,
                             std::vector<graph::Vertex>& to_run) {
  const auto nseg = static_cast<std::size_t>(segments);
  for (std::size_t t = 0; t < nseg; ++t) {
    internal::Worker& w = workers_[t];
    w.new_links.clear();
    w.woken.clear();
    if (team != nullptr) {  // inline, they grow on this thread as needed
      w.new_links.reserve(w.ob.link.size());
      w.sort_scratch.reserve(w.ob.link.size());
      w.woken.reserve(w.ob.wakes.size());
    }
  }
  const auto phase = [&](auto&& body) {
    if (team != nullptr) {
      team->run(body);
    } else {
      body(0);
    }
  };

  phase([&](int t) { merge_prepare(workers_[static_cast<std::size_t>(t)]); });

  std::size_t act = 0, msgs = 0;
  for (std::size_t t = 0; t < nseg; ++t) {
    internal::Worker& w = workers_[t];
    w.act_off = act;
    w.msg_off = msgs;
    act += (w.surv_hi - w.surv_lo) + w.new_links.size();
    msgs += w.msgs_total;
    stats_.messages_sent += w.ob.sent;
    queued_ += w.ob.sent;
  }
  merged_links_.resize(act);
  next_.ensure(msgs);

  phase([&](int t) { merge_fill(workers_[static_cast<std::size_t>(t)]); });

  for (std::size_t t = 0; t < nseg; ++t) {
    internal::Worker& w = workers_[t];
    stats_.max_link_backlog = std::max(stats_.max_link_backlog, w.backlog);
    to_run.insert(to_run.end(), w.woken.begin(), w.woken.end());
  }
  active_links_.swap(merged_links_);
  cur_.swap(next_);
}

NetworkStats Network::run(NodeProgram& prog) {
  stats_ = NetworkStats{};
  queued_ = 0;
  cur_.clear();
  next_.clear();
  std::fill(link_count_.data(), link_count_.data() + link_count_.size(), 0);
  std::fill(pend_count_.data(), pend_count_.data() + pend_count_.size(), 0);
  std::fill(inbox_cnt_.data(), inbox_cnt_.data() + inbox_cnt_.size(), 0);
  active_links_.clear();
  std::fill(awake_.data(), awake_.data() + awake_.size(), 0);
  wake_list_.clear();

  const int nthreads = opt_.threads;
  const auto nw = static_cast<std::size_t>(nthreads);
  const std::size_t links = link_count_.size();
  workers_.resize(nw);
  for (internal::Worker& w : workers_) {
    w.ob.clear();
    w.receivers.clear();
  }
  // Started by the first pooled phase, joined when run() returns or throws.
  std::optional<util::WorkerTeam> team;
  const auto pool = [&]() -> util::WorkerTeam& {
    if (!team) team.emplace(nthreads);
    return *team;
  };

  prog.begin(*this);

  // Invariant: awake_[v] == 1  ⟺  v is in to_run (scheduled for the next
  // round). wake() maintains it; flags are cleared when a vertex starts
  // executing.
  std::vector<graph::Vertex> to_run = std::move(wake_list_);
  wake_list_.clear();
  std::vector<graph::Vertex> running;

  while (queued_ > 0 || !to_run.empty()) {
    NORS_CHECK_MSG(stats_.rounds < opt_.max_rounds,
                   "CONGEST simulation exceeded max_rounds");
    ++stats_.rounds;

    if (nthreads > 1 && active_links_.size() >= kMinParallelVertices) {
      deliver_pooled(pool(), to_run);
    } else {
      deliver_round(to_run);
    }

    // Deterministic execution order; radix keeps this linear in the
    // schedule size instead of O(A log A) per round.
    util::radix_sort(to_run, sort_scratch_, g_.n() - 1);
    running = std::move(to_run);
    to_run.clear();
    for (const graph::Vertex v : running) {
      awake_[static_cast<std::size_t>(v)] = 0;
    }

    const std::size_t sz = running.size();
    const bool pooled = nthreads > 1 && sz >= kMinParallelVertices;
    if (!pooled) {
      execute(prog, running, 0, sz, 0);
      workers_[0].link_lo = 0;
      workers_[0].link_hi = links;
    } else {
      // Worker t runs running[t·chunk, (t+1)·chunk) and owns the links
      // those vertices send on. Its outbox is sized here, on the calling
      // thread, for one message per port.
      const std::size_t chunk = (sz + nw - 1) / nw;
      for (std::size_t t = 0; t < nw; ++t) {
        const std::size_t lo = std::min(sz, chunk * t);
        const std::size_t hi = std::min(sz, lo + chunk);
        internal::Worker& w = workers_[t];
        std::size_t ports = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          ports += static_cast<std::size_t>(g_.degree(running[i]));
        }
        w.ob.link.reserve(ports);
        w.ob.msg.reserve(ports);
        w.ob.wakes.reserve(hi - lo);
        w.link_lo = t == 0 ? 0
                    : lo < sz
                        ? link_offset_[static_cast<std::size_t>(running[lo])]
                        : links;
        if (t > 0) workers_[t - 1].link_hi = w.link_lo;
      }
      workers_[nw - 1].link_hi = links;
      pool().run([&](int t) {
        const std::size_t lo =
            std::min(sz, chunk * static_cast<std::size_t>(t));
        execute(prog, running, lo, std::min(sz, lo + chunk), t);
      });
    }
    for (const graph::Vertex v : receivers_) {
      inbox_cnt_[static_cast<std::size_t>(v)] = 0;
    }
    receivers_.clear();
    for (internal::Worker& w : workers_) {
      for (const graph::Vertex v : w.receivers) {
        inbox_cnt_[static_cast<std::size_t>(v)] = 0;
      }
      w.receivers.clear();
    }

    merge_outboxes(pooled ? &pool() : nullptr, pooled ? nthreads : 1,
                   to_run);

    // Wakes requested through Network::wake during this round run next
    // round; their awake_ flags are already set by wake().
    {
      const std::lock_guard<std::mutex> lock(wake_mu_);
      to_run.insert(to_run.end(), wake_list_.begin(), wake_list_.end());
      wake_list_.clear();
    }
  }
  return stats_;
}

}  // namespace nors::congest
