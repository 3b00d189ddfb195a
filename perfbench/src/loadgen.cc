#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>

#include "common.h"

namespace pb {

namespace net = nors::net;

namespace {

struct Inflight {
  std::int64_t due_ns;
  std::int64_t send_ns;
  std::uint64_t first;  // first query index (reads) / batch index
  std::uint32_t count;
};

/// One non-blocking loopback connection with its own parse and send
/// buffers and its FIFO of unanswered frames (the server answers each
/// connection in request order).
struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::deque<Inflight> inflight;
  std::uint32_t next_id = 1;

  explicit Conn(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw std::runtime_error("connect() failed: " +
                               std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void queue(net::FrameType type, const std::vector<std::uint8_t>& body) {
    net::append_frame(out, type, next_id++, body);
  }

  void flush() {
    while (out_off < out.size()) {
      const ssize_t w = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        throw std::runtime_error("send() failed");
      }
      out_off += static_cast<std::size_t>(w);
    }
    out.clear();
    out_off = 0;
  }

  /// Reads what the socket has; false when the peer closed.
  bool fill() {
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r > 0) {
        in.insert(in.end(), buf, buf + r);
        continue;
      }
      if (r == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }
};

}  // namespace

LoadResult run_load(int port, const LoadSpec& spec) {
  LoadResult res;
  const auto& pool = *spec.pool;
  const bool open = spec.read_qps > 0;
  const bool with_updates =
      spec.updates != nullptr && !spec.updates->empty() && spec.update_rate > 0;

  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < spec.conns; ++c) {
    conns.push_back(std::make_unique<Conn>(port));
  }
  std::unique_ptr<Conn> upd;
  if (with_updates) upd = std::make_unique<Conn>(port);

  // Sleeps end within ~1 us of their deadline rather than the default
  // 50 us timer slack, so open-loop sends leave on time.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  std::vector<pollfd> pfds;
  for (auto& c : conns) pfds.push_back({c->fd, POLLIN, 0});
  if (upd) pfds.push_back({upd->fd, POLLIN, 0});

  const std::int64_t t0 = now_ns();
  const auto t_ws = t0 + static_cast<std::int64_t>(spec.warmup_s * 1e9);
  const auto t_we = t_ws + static_cast<std::int64_t>(spec.window_s * 1e9);
  const auto t_giveup =
      t_we + static_cast<std::int64_t>(spec.drain_timeout_s * 1e9);
  const double read_gap_ns =
      open ? 1e9 * spec.frame_queries / spec.read_qps : 0;
  const double upd_gap_ns = with_updates ? 1e9 / spec.update_rate : 0;
  const auto sub_ns = static_cast<std::int64_t>(spec.sub_s * 1e9);
  res.sub_s = spec.sub_s;
  res.subs.resize(static_cast<std::size_t>(
      std::max<std::int64_t>(1, (t_we - t_ws) / sub_ns)));
  // The sub-window holding time t, or nullptr outside the window.
  auto sub_at = [&](std::int64_t t) -> SubWindow* {
    if (t < t_ws || t >= t_we) return nullptr;
    const auto i = static_cast<std::size_t>((t - t_ws) / sub_ns);
    return i < res.subs.size() ? &res.subs[i] : nullptr;
  };
  // Steal is sampled at each sub-window boundary the loop passes.
  std::size_t steal_next = 0;
  CpuSample steal_prev;
  auto sample_steal = [&](std::int64_t now) {
    while (steal_next <= res.subs.size() &&
           now >= t_ws + static_cast<std::int64_t>(steal_next) * sub_ns) {
      const CpuSample cur = cpu_sample(spec.steal_cpu);
      if (steal_next > 0) {
        res.subs[steal_next - 1].steal_frac = pb::steal_frac(steal_prev, cur);
      }
      steal_prev = cur;
      ++steal_next;
    }
  };
  std::uint64_t read_frames = 0;  // open loop: frames scheduled so far
  std::uint64_t upd_sent = 0;
  std::vector<std::uint8_t> body;

  auto send_read = [&](Conn& c, std::int64_t due, std::int64_t now) {
    const std::uint64_t first = res.queries_sent;
    const auto count = static_cast<std::uint32_t>(spec.frame_queries);
    // Frames never straddle the pool's wrap: the pool size is a multiple
    // of the frame size (checked by the caller), so offsets stay aligned.
    const std::size_t off = static_cast<std::size_t>(first % pool.size());
    body.clear();
    net::encode_route_request(body, pool.data() + off, count);
    c.queue(net::FrameType::kRoute, body);
    c.inflight.push_back({due, now, first, count});
    res.queries_sent += count;
    if (open && due >= t_ws && due < t_we) {
      res.late_us.push_back(static_cast<double>(now - due) * 1e-3);
    }
  };

  auto on_frame = [&](Conn& c, bool is_update, net::Frame& f,
                      std::int64_t now) {
    if (c.inflight.empty()) throw std::runtime_error("unsolicited frame");
    const Inflight fl = c.inflight.front();
    c.inflight.pop_front();
    const double lat_us = static_cast<double>(now - fl.due_ns) * 1e-3;
    if (is_update) {
      SubWindow* sub = sub_at(fl.due_ns);
      if (f.type != net::FrameType::kUpdateAck) {
        ++res.update_errors;
        return;
      }
      const auto ack = net::decode_update_ack(f.body);
      ++res.updates_acked;
      res.last_ack = ack;
      if (sub != nullptr) {
        if (fl.due_ns - t_ws < static_cast<std::int64_t>(upd_gap_ns) + 1) {
          res.first_window_ack = ack;
        }
        sub->ack_us.push_back(lat_us);
        if (lat_us <= spec.update_limit_us) ++sub->updates_ontime;
      }
      return;
    }
    SubWindow* sub = sub_at(open ? fl.due_ns : now);
    if (sub != nullptr) sub->queries_attempted += fl.count;
    if (f.type != net::FrameType::kRouteAck) {
      ++res.error_frames;
      return;
    }
    const auto ds = net::decode_route_response(f.body);
    std::int64_t ok = 0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      res.digest += digest_term(fl.first + i, decision_hash(ds[i]));
      ok += ds[i].ok ? 1 : 0;
    }
    if (sub == nullptr) return;
    sub->queries_answered += static_cast<std::int64_t>(ds.size());
    sub->queries_ok += ok;
    if (lat_us <= spec.query_limit_us) sub->queries_ontime += ok;
    sub->frame_us.push_back(lat_us);
    if (spec.spans) res.spans.push_back({fl.send_ns, now});
  };

  auto drain_input = [&](Conn& c, bool is_update, std::int64_t now) {
    const bool alive = c.fill();
    std::size_t off = 0;
    for (;;) {
      auto pr = net::parse_frame(c.in.data() + off, c.in.size() - off);
      if (pr.status == net::ParseResult::Status::kNeedMore) break;
      if (pr.status == net::ParseResult::Status::kBad) {
        throw std::runtime_error("malformed response frame");
      }
      on_frame(c, is_update, pr.frame, now);
      off += pr.consumed;
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
    if (!alive) throw std::runtime_error("server closed a connection");
  };

  for (;;) {
    const std::int64_t now = now_ns();
    sample_steal(now);
    const bool sending = now < t_we;
    if (sending) {
      if (open) {
        for (;;) {
          const auto due =
              t0 + static_cast<std::int64_t>(read_gap_ns *
                                             static_cast<double>(read_frames));
          if (due > now) break;
          send_read(*conns[read_frames % conns.size()], due, now);
          ++read_frames;
        }
      } else {
        for (auto& c : conns) {
          while (c->inflight.size() < static_cast<std::size_t>(spec.depth)) {
            send_read(*c, now, now);
          }
        }
      }
      while (with_updates && upd_sent < spec.updates->size()) {
        const auto due =
            t0 + static_cast<std::int64_t>(upd_gap_ns *
                                           static_cast<double>(upd_sent));
        if (due > now) break;
        body.clear();
        const auto& batch = (*spec.updates)[upd_sent];
        net::encode_update_request(body, batch);
        upd->queue(net::FrameType::kUpdate, body);
        upd->inflight.push_back({due, now, upd_sent,
                                 static_cast<std::uint32_t>(batch.size())});
        if (SubWindow* sub = sub_at(due)) ++sub->updates_attempted;
        ++upd_sent;
      }
    } else {
      bool idle = upd == nullptr || upd->inflight.empty();
      for (auto& c : conns) idle = idle && c->inflight.empty();
      if (idle) break;
      if (now > t_giveup) {
        for (auto& c : conns) {
          res.unanswered += static_cast<std::int64_t>(c->inflight.size());
        }
        if (upd) res.unanswered += static_cast<std::int64_t>(upd->inflight.size());
        break;
      }
    }
    for (auto& c : conns) c->flush();
    if (upd) upd->flush();

    // The open loop sleeps until the next send is due (or a response
    // arrives) instead of spinning, so the generator leaves its cores to
    // the server; the closed loop has nothing to do until a response.
    std::int64_t wait_ns = 1'000'000;
    if (open && sending) {
      std::int64_t next = t0 + static_cast<std::int64_t>(
                                   read_gap_ns * static_cast<double>(read_frames));
      if (with_updates && upd_sent < spec.updates->size()) {
        next = std::min(next, t0 + static_cast<std::int64_t>(
                                       upd_gap_ns * static_cast<double>(upd_sent)));
      }
      wait_ns = std::max<std::int64_t>(0, next - now_ns());
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    const std::int64_t t_recv = now_ns();
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      const bool is_update = upd && i == conns.size();
      drain_input(is_update ? *upd : *conns[i], is_update, t_recv);
    }
  }
  return res;
}

}  // namespace pb
