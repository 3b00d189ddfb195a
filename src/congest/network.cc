#include "congest/network.h"

#include <algorithm>
#include <exception>
#include <thread>

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

/// Phase 1: pop up to edge_capacity messages off every active link into the
/// inbox slab (grouped by receiver, link-ascending within a receiver, FIFO
/// within a link) and schedule the receivers.
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

/// Phase 3: merge undelivered leftovers and the round's outboxes into the
/// other slab of the double buffer, regrouping by link.
void Network::merge_outboxes(int nthreads, std::vector<graph::Vertex>& to_run) {
  new_links_.clear();
  for (int t = 0; t < nthreads; ++t) {
    internal::Outbox& ob = outboxes_[static_cast<std::size_t>(t)];
    for (const std::int32_t li : ob.link) {
      const auto l = static_cast<std::size_t>(li);
      if (pend_count_[l]++ == 0 && link_count_[l] == 0) {
        new_links_.push_back(li);
      }
    }
    stats_.messages_sent += ob.sent;
    queued_ += ob.sent;
  }
  // Delivery iterates active links in ascending link order; keep that order
  // canonical so runs are deterministic regardless of outbox interleaving.
  // The surviving actives are already ascending (delivery compacts them in
  // place), so only this round's newly activated links need ordering: they
  // arrive grouped by sending vertex in execution order — ascending across
  // vertices and, for every program that emits ports in order, ascending
  // within one — so the is_sorted fast path usually wins; announcement
  // bursts that don't fall back to a radix pass. One linear merge then
  // replaces the historical full-list std::sort.
  if (!new_links_.empty()) {
    if (!std::is_sorted(new_links_.begin(), new_links_.end())) {
      util::radix_sort(new_links_, sort_scratch_,
                       static_cast<std::int32_t>(link_count_.size() - 1));
    }
    merged_links_.resize(active_links_.size() + new_links_.size());
    std::merge(active_links_.begin(), active_links_.end(), new_links_.begin(),
               new_links_.end(), merged_links_.begin());
    active_links_.swap(merged_links_);
  }

  next_.ensure(static_cast<std::size_t>(queued_));
  std::size_t off = 0;
  for (const std::int32_t li : active_links_) {
    const auto l = static_cast<std::size_t>(li);
    next_begin_[l] = off;
    off += static_cast<std::size_t>(link_count_[l]) +
           static_cast<std::size_t>(pend_count_[l]);
  }
  // Leftovers first (they are older than anything staged this round), then
  // outboxes in thread order — which is vertex order, because threads own
  // contiguous chunks of the sorted run list. A directed link has a unique
  // sending vertex, so per-link FIFO order is independent of the chunking.
  for (const std::int32_t li : active_links_) {
    const auto l = static_cast<std::size_t>(li);
    const std::size_t b = link_begin_[l];
    std::size_t w = next_begin_[l];
    for (std::int32_t i = 0; i < link_count_[l]; ++i) {
      next_[w++] = cur_[b + static_cast<std::size_t>(i)];
    }
    next_begin_[l] = w;  // becomes the staged-send write cursor
  }
  for (int t = 0; t < nthreads; ++t) {
    internal::Outbox& ob = outboxes_[static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < ob.link.size(); ++i) {
      next_[next_begin_[static_cast<std::size_t>(ob.link[i])]++] = ob.msg[i];
    }
    for (const graph::Vertex w : ob.wakes) {
      if (!awake_[static_cast<std::size_t>(w)]) {
        awake_[static_cast<std::size_t>(w)] = 1;
        to_run.push_back(w);
      }
    }
    ob.clear();
  }
  for (const std::int32_t li : active_links_) {
    const auto l = static_cast<std::size_t>(li);
    const std::int32_t total = link_count_[l] + pend_count_[l];
    link_count_[l] = total;
    pend_count_[l] = 0;
    link_begin_[l] = next_begin_[l] - static_cast<std::size_t>(total);
    stats_.max_link_backlog =
        std::max(stats_.max_link_backlog, static_cast<std::int64_t>(total));
  }
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
  outboxes_.resize(static_cast<std::size_t>(nthreads));
  for (internal::Outbox& ob : outboxes_) ob.clear();

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

    deliver_round(to_run);

    // Phase 2: run every scheduled vertex (deterministic order; radix keeps
    // this linear in the schedule size instead of O(A log A) per round).
    util::radix_sort(to_run, sort_scratch_, g_.n() - 1);
    running = std::move(to_run);
    to_run.clear();
    for (const graph::Vertex v : running) {
      awake_[static_cast<std::size_t>(v)] = 0;
    }

    auto run_range = [&](std::size_t lo, std::size_t hi, int t) {
      internal::Outbox& ob = outboxes_[static_cast<std::size_t>(t)];
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
    };

    if (nthreads == 1 || running.size() < kMinParallelVertices) {
      run_range(0, running.size(), 0);
    } else {
      const std::size_t chunk =
          (running.size() + static_cast<std::size_t>(nthreads) - 1) /
          static_cast<std::size_t>(nthreads);
      std::vector<std::thread> workers;
      std::vector<std::exception_ptr> errors(
          static_cast<std::size_t>(nthreads));
      for (int t = 0; t < nthreads; ++t) {
        const std::size_t lo =
            std::min(running.size(), chunk * static_cast<std::size_t>(t));
        const std::size_t hi = std::min(running.size(), lo + chunk);
        // Size the worker's outbox here, on the calling thread, for one
        // message per port: vectors grown on a worker come from that
        // thread's malloc arena, where the freed buffers stay resident
        // (~6 MB of peak RSS on an n = 2^15 construction).
        std::size_t ports = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          ports += static_cast<std::size_t>(g_.degree(running[i]));
        }
        internal::Outbox& ob = outboxes_[static_cast<std::size_t>(t)];
        ob.link.reserve(ports);
        ob.msg.reserve(ports);
        ob.wakes.reserve(hi - lo);
        workers.emplace_back([&, t, lo, hi] {
          try {
            run_range(lo, hi, t);
          } catch (...) {
            errors[static_cast<std::size_t>(t)] = std::current_exception();
          }
        });
      }
      for (std::thread& w : workers) w.join();
      for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    }
    for (const graph::Vertex v : receivers_) {
      inbox_cnt_[static_cast<std::size_t>(v)] = 0;
    }

    merge_outboxes(nthreads, to_run);

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
