#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/client.h"
#include "serve/shard.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/latency.h"
#include "util/threads.h"

namespace nors::net {

namespace {

using clock_t_ = std::chrono::steady_clock;

/// Second backpressure bound, beside NetServerOptions::window: when a
/// connection's pending response bytes exceed this, reading stops until
/// the client drains them.
constexpr std::size_t kOutbufLimit = std::size_t{4} << 20;

[[noreturn]] void sys_fail(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// fetch_max for the high-water stats.
void raise_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Splits "host:port" (empty host = loopback) for --replica-of; the port
/// must be a decimal in 1..65535.
std::pair<std::string, int> parse_host_port(const std::string& s) {
  const auto colon = s.rfind(':');
  int port = 0;
  bool ok = colon != std::string::npos;
  if (ok) {
    const char* end = s.data() + s.size();
    const auto [stop, ec] = std::from_chars(s.data() + colon + 1, end, port);
    ok = ec == std::errc() && stop == end && port >= 1 && port <= 65535;
  }
  NORS_CHECK_MSG(ok, "expected HOST:PORT with a port in 1..65535, got: " << s);
  std::string host = s.substr(0, colon);
  if (host.empty()) host = "127.0.0.1";
  return {host, port};
}

}  // namespace

struct Server::Impl {
  // ------------------------------------------------------- generations --
  /// One serving view: an image, its sharded compute, and (possibly) a
  /// delta overlay. Route pendings hold a shared_ptr, so a swap never
  /// invalidates an in-flight batch: the generation that admitted it
  /// lives until its last response is encoded.
  ///
  /// Two kinds of swap publish a new Gen. reload() (SIGHUP) builds a
  /// fresh image + fresh shard workers. apply_updates() (kUpdate /
  /// --updates) *shares* the image and compute with its predecessor and
  /// swaps only the immutable DeltaSet — a delta generation costs one
  /// flat copy of the predecessor's probe table plus O(1) per event, not
  /// a thread pool, so update batches can be frequent.
  struct Gen {
    Gen(serve::FrozenScheme f, const NetServerOptions& o)
        : fs(std::make_shared<serve::FrozenScheme>(std::move(f))) {
      serve::ShardedOptions so;
      so.shards = o.shards;
      so.cache_entries = o.cache_entries;
      srv = std::make_shared<serve::ShardedRouteServer>(*fs, so);
    }
    /// Delta successor: same image and compute, new overlay.
    Gen(const Gen& base, std::shared_ptr<const serve::DeltaSet> d)
        : fs(base.fs), srv(base.srv), delta(std::move(d)) {}
    std::shared_ptr<serve::FrozenScheme> fs;
    std::shared_ptr<serve::ShardedRouteServer> srv;
    std::shared_ptr<const serve::DeltaSet> delta;  // null = unpatched
  };

  struct Conn;

  /// One response-in-waiting, queued per connection in request order.
  /// Sync frames (hello/label/stats/errors) are born encoded; route
  /// frames become encodable when their batch ticket completes.
  struct Pending {
    std::uint32_t request_id = 0;
    FrameType resp_type = FrameType::kError;
    std::vector<std::uint8_t> resp_body;
    bool is_route = false;
    bool encoded = false;      // resp_body is final
    bool close_after = false;  // fatal: close once this response flushes
    // Route-only state. The queries/decisions arrays are owned here so a
    // shard worker can keep writing decisions even if the connection dies
    // mid-batch — the Pending (held by the completion callback) outlives
    // the socket.
    std::vector<serve::Query> queries;
    std::vector<serve::Decision> decisions;
    serve::ShardedRouteServer::Batch batch;
    std::shared_ptr<Gen> gen;
    std::weak_ptr<Conn> conn;
    clock_t_::time_point t0;
    std::int64_t charged = 0;  // queries held against the global budget
  };

  struct Conn : std::enable_shared_from_this<Conn> {
    int fd = -1;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::deque<std::shared_ptr<Pending>> pipeline;
    std::uint32_t events = 0;   // current epoll interest mask
    bool closing = false;       // flush remaining output, then close
    bool stop_parse = false;    // stream poisoned by an envelope error
    bool stall_armed = false;   // unflushed output is waiting on the peer
    clock_t_::time_point stall_since{};  // last write progress while armed
  };

  /// Cross-thread mailbox of one event loop: freshly accepted sockets
  /// (from the acceptor) and completed batches (from shard workers), each
  /// delivery paired with an eventfd wake. Held by shared_ptr from every
  /// completion callback, so a late completion after the loop has exited
  /// lands in a closed mailbox instead of freed memory.
  struct Inbox {
    std::mutex m;
    std::vector<int> fds;
    std::vector<std::shared_ptr<Pending>> done;
    /// Server-initiated frames (the kRepl stream), already fully framed,
    /// addressed to one of this loop's connections. Only the loop thread
    /// touches a Conn, so apply_batch hands the bytes over here.
    std::vector<std::pair<std::weak_ptr<Conn>, std::vector<std::uint8_t>>>
        push;
    int wakefd = -1;
    bool open = true;

    void wake() {
      const std::uint64_t one = 1;
      [[maybe_unused]] const auto r = ::write(wakefd, &one, sizeof(one));
    }
    ~Inbox() {
      if (wakefd >= 0) ::close(wakefd);
    }
  };

  struct Loop {
    std::shared_ptr<Inbox> inbox = std::make_shared<Inbox>();
    std::thread thread;
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    util::LatencyHistogram latency;  // route request parse → response
    std::atomic<std::int64_t> active{0};
    std::int64_t pending = 0;  // responses in flight, loop-thread only
    int ep = -1;
  };

  // ------------------------------------------------------------- state --
  NetServerOptions opt;
  std::pair<std::string, int> primary;  // parsed opt.replica_of
  int listen_fd = -1;
  int bound_port = 0;
  std::shared_ptr<Inbox> accept_inbox = std::make_shared<Inbox>();
  std::thread accept_thread;
  std::vector<std::unique_ptr<Loop>> loops;

  mutable std::mutex gen_m;
  std::shared_ptr<Gen> gen;
  /// Every live generation. A ShardedRouteServer's destructor joins its
  /// workers, so the *last* reference to one must never be dropped from
  /// one of those workers — pinning generations here lets drain() quiesce
  /// them all from the draining thread. Retired *delta* generations are
  /// pruned on each swap (prune_gens_locked): a delta Gen holds no
  /// threads of its own, and it is only erased while its srv is still
  /// co-owned by a surviving Gen, so pruning never destroys a shard pool.
  /// Retired *image* generations (reloads are rare) stay until drain().
  std::vector<std::shared_ptr<Gen>> all_gens;

  /// Where a completion callback parks its Pending when the owning loop
  /// has already exited (post-drain straggler): disposal is deferred to
  /// drain(), after every worker is joined.
  std::mutex grave_m;
  std::vector<std::shared_ptr<Pending>> grave;

  std::atomic<bool> draining{false};
  std::mutex drain_m;
  bool drained = false;

  std::atomic<std::int64_t> conns_accepted{0};
  std::atomic<std::int64_t> frames_in{0};
  std::atomic<std::int64_t> frames_out{0};
  std::atomic<std::int64_t> queries{0};
  std::atomic<std::int64_t> protocol_errors{0};
  std::atomic<std::int64_t> reloads{0};
  std::atomic<std::int64_t> max_inflight{0};
  /// Route queries submitted to the shards and not yet completed — the
  /// quantity max_inflight_queries budgets. Charged at admission,
  /// released by the batch completion callback (the shard side is done
  /// then; the encoded response is bounded separately by the outbuf cap).
  std::atomic<std::int64_t> inflight_queries{0};
  std::atomic<std::int64_t> shed{0};
  std::atomic<std::int64_t> timeouts{0};
  std::atomic<std::int64_t> stalls{0};
  std::atomic<std::int64_t> updates{0};

  // ------------------------------------ durability + replication (§14) --
  std::unique_ptr<serve::Wal> wal;  // appends under gen_m; null = no WAL
  /// Durable sequence number of the newest published batch (guarded by
  /// gen_m). Recovered from the WAL at boot; monotonic across reloads and
  /// checkpoints for the server's whole life.
  std::uint64_t update_seq = 0;
  struct Subscriber {
    std::weak_ptr<Conn> conn;
    std::shared_ptr<Inbox> inbox;
  };
  std::vector<Subscriber> subscribers;  // guarded by gen_m
  std::mutex ckpt_m;                    // one checkpoint at a time
  std::thread follower_thread;          // replica mode only
  std::atomic<std::uint64_t> repl_head{0};  // primary's head (replica)
  std::atomic<std::int64_t> wal_errors{0};
  std::atomic<std::int64_t> checkpoints{0};
  std::atomic<std::int64_t> repl_applied{0};
  std::atomic<std::int64_t> batches_since_ckpt{0};

  // ---------------------------------------------------------- lifecycle --
  Impl(serve::FrozenScheme fs, NetServerOptions o) : opt(std::move(o)) {
    NORS_CHECK_MSG(opt.window >= 1, "window must be >= 1");
    // A bad --replica-of must fail the boot, not back off forever in the
    // follower thread.
    if (!opt.replica_of.empty()) primary = parse_host_port(opt.replica_of);
    gen = std::make_shared<Gen>(std::move(fs), opt);
    all_gens.push_back(gen);

    if (!opt.wal_dir.empty()) {
      // Recover before the first socket exists: replay every logged batch
      // over the image so the daemon boots into exactly the state a
      // never-crashed one would serve. No thread has started yet, so the
      // replay callback may touch `gen` without the lock. A snapshot
      // record (a checkpoint squash) replaces the accumulated delta
      // chain — it is applied against the base image.
      serve::WalOptions wo;
      wo.fsync = opt.fsync;
      wo.fsync_interval_ms = opt.fsync_interval_ms;
      wal = std::make_unique<serve::Wal>(
          opt.wal_dir, wo, [this](const serve::WalRecord& r) {
            auto delta = serve::DeltaSet::apply(
                *gen->fs, r.snapshot ? nullptr : gen->delta.get(), r.events);
            gen = std::make_shared<Gen>(*gen, std::move(delta));
            all_gens.push_back(gen);
            prune_gens_locked();
          });
      update_seq = wal->last_seq();
    }

    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    if (listen_fd < 0) sys_fail("socket");
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opt.port));
    if (::inet_pton(AF_INET, opt.host.c_str(), &addr.sin_addr) != 1) {
      ::close(listen_fd);
      throw std::runtime_error("bad bind address: " + opt.host);
    }
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd, 128) != 0) {
      const int e = errno;
      ::close(listen_fd);
      errno = e;
      sys_fail("bind/listen");
    }
    socklen_t alen = sizeof(addr);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &alen);
    bound_port = ntohs(addr.sin_port);

    const int nloops =
        std::min(std::max(1, opt.loops), util::resolve_threads(opt.loops));
    for (int i = 0; i < nloops; ++i) {
      loops.push_back(std::make_unique<Loop>());
      loops.back()->inbox->wakefd =
          ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (loops.back()->inbox->wakefd < 0) sys_fail("eventfd");
    }
    accept_inbox->wakefd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (accept_inbox->wakefd < 0) sys_fail("eventfd");

    for (auto& l : loops) {
      l->thread = std::thread([this, lp = l.get()] { run_loop(*lp); });
    }
    accept_thread = std::thread([this] { run_acceptor(); });
    if (!opt.replica_of.empty()) {
      follower_thread = std::thread([this] { run_follower(); });
    }
  }

  ~Impl() { drain(); }

  void drain() {
    std::lock_guard<std::mutex> lk(drain_m);
    if (drained) return;
    draining.store(true, std::memory_order_release);
    accept_inbox->wake();
    for (auto& l : loops) l->inbox->wake();
    if (accept_thread.joinable()) accept_thread.join();
    for (auto& l : loops) {
      if (l->thread.joinable()) l->thread.join();
    }
    if (follower_thread.joinable()) follower_thread.join();
    // Quiesce every generation from *this* thread: ~ShardedRouteServer
    // joins its workers, which must never happen on one of them. After
    // the joins, every completion callback has fully run, so the grave
    // is complete and safe to clear.
    std::vector<std::shared_ptr<Gen>> gens;
    {
      std::lock_guard<std::mutex> glk(gen_m);
      gens.swap(all_gens);
      gen.reset();
    }
    for (auto& g : gens) g->srv.reset();
    {
      std::lock_guard<std::mutex> glk(grave_m);
      grave.clear();
    }
    gens.clear();
    drained = true;
  }

  void reload(serve::FrozenScheme fs) {
    auto next = std::make_shared<Gen>(std::move(fs), opt);
    {
      std::lock_guard<std::mutex> lk(gen_m);
      if (draining.load(std::memory_order_acquire)) return;  // too late
      gen = next;
      all_gens.push_back(std::move(next));
      prune_gens_locked();
      // A reload drops the delta chain by design, so the WAL records that
      // described it are void too: truncate to an empty log at the
      // current seq. (Replicas of a reloaded primary must be restarted
      // with the new image — the stream carries deltas, not images.)
      if (wal != nullptr) wal->reset(update_seq, nullptr);
    }
    reloads.fetch_add(1, std::memory_order_relaxed);
  }

  /// Erases retired generations nothing references anymore — but only
  /// while their shard pool is co-owned by a surviving generation, so the
  /// erase can never destroy a ShardedRouteServer (whose destructor joins
  /// threads) from here. Runs under gen_m on whatever thread swapped.
  void prune_gens_locked() {
    std::erase_if(all_gens, [this](const std::shared_ptr<Gen>& g) {
      return g != gen && g.use_count() == 1 && g->srv.use_count() > 1;
    });
  }

  UpdateAck apply_updates(std::span<const serve::EdgeUpdate> batch) {
    return apply_batch(batch, 0, false);
  }

  /// The one write path (§14). repl_seq == 0: a local/client batch — the
  /// next durable seq is allocated here. repl_seq > 0: the primary's
  /// batch applied at *its* seq — a duplicate (seq ≤ update_seq, stream
  /// re-delivery after a reconnect) is acked without effect, `snapshot`
  /// batches replace the whole delta chain (applied against the base
  /// image), and a non-snapshot, non-contiguous seq is a stream gap the
  /// follower must repair by resubscribing. The order inside the lock is
  /// the durability contract: append + sync the WAL first, publish the
  /// generation second — a batch the log rejected is never served, and a
  /// batch a subscriber sees is always durable on the primary.
  UpdateAck apply_batch(std::span<const serve::EdgeUpdate> batch,
                        std::uint64_t repl_seq, bool snapshot) {
    serve::DeltaStats ds;
    std::uint64_t seq = 0;
    {
      std::lock_guard<std::mutex> lk(gen_m);
      NORS_CHECK_MSG(gen != nullptr &&
                         !draining.load(std::memory_order_acquire),
                     "apply_updates on a draining server");
      if (repl_seq != 0 && repl_seq <= update_seq) {
        UpdateAck dup;
        dup.seq = update_seq;  // already applied: ack, change nothing
        return dup;
      }
      if (repl_seq != 0 && !snapshot) {
        NORS_CHECK_MSG(repl_seq == update_seq + 1,
                       "replication gap: resubscribe for a snapshot");
      }
      auto delta = serve::DeltaSet::apply(
          *gen->fs, snapshot ? nullptr : gen->delta.get(), batch, &ds);
      seq = repl_seq != 0 ? repl_seq : update_seq + 1;
      if (wal != nullptr) {
        try {
          wal->append(seq, snapshot, batch);
        } catch (const serve::WalError&) {
          wal_errors.fetch_add(1, std::memory_order_relaxed);
          throw;  // nothing published: the old generation keeps serving
        }
      }
      auto next = std::make_shared<Gen>(*gen, std::move(delta));
      gen = next;
      update_seq = seq;
      all_gens.push_back(std::move(next));
      prune_gens_locked();
      push_to_subscribers_locked(seq, snapshot, batch);
    }
    updates.fetch_add(1, std::memory_order_release);
    if (repl_seq != 0) {
      repl_applied.fetch_add(1, std::memory_order_relaxed);
    }
    maybe_auto_checkpoint();
    UpdateAck a;
    a.seq = seq;
    a.applied = ds.applied;
    a.unknown_edges = ds.unknown_edges;
    a.overrides = ds.overrides;
    a.failed_links = ds.failed_links;
    a.masked_trees = ds.masked_trees;
    return a;
  }

  void maybe_auto_checkpoint() {
    if (opt.checkpoint_every <= 0 || wal == nullptr) return;
    if (batches_since_ckpt.fetch_add(1, std::memory_order_relaxed) + 1 <
        opt.checkpoint_every) {
      return;
    }
    try {
      checkpoint();
    } catch (const std::exception&) {
      // Auto-compaction is advisory: on failure the log keeps its records
      // (checkpoint() never truncates before the squash lands) and the
      // next batch retries.
    }
  }

  /// Checkpoint compaction (§14): squash the delta chain into one
  /// snapshot WAL record, rebuild the frozen image with the weight
  /// overrides baked in (when image_path is set), truncate the log. Runs
  /// whole under gen_m so the image, the squash and the captured seq are
  /// one consistent cut — updates queue behind it (a checkpoint is a
  /// file-write, not a route computation). Failures leave the old log
  /// intact. Failed links stay in the squash record rather than the
  /// image: replaying it over either the old or the rebuilt image
  /// re-masks exactly the same trees, so recovery converges from both.
  CheckpointAck checkpoint() {
    std::lock_guard<std::mutex> ck(ckpt_m);
    std::lock_guard<std::mutex> lk(gen_m);
    NORS_CHECK_MSG(gen != nullptr &&
                       !draining.load(std::memory_order_acquire),
                   "checkpoint on a draining server");
    CheckpointAck a;
    a.seq = update_seq;
    std::vector<serve::EdgeUpdate> snap;
    const bool dirty =
        gen->delta != nullptr && gen->delta->override_count() > 0;
    if (dirty) {
      snap = gen->delta->as_edge_updates(*gen->fs);
      a.squashed = gen->delta->override_count();
      if (!opt.image_path.empty()) {
        gen->fs->save_file_with_link_weights(
            opt.image_path, gen->delta->sorted_overrides());
        a.image_rebuilt = 1;
      }
    }
    if (wal != nullptr) {
      wal->reset(update_seq, snap.empty() ? nullptr : &snap);
      a.wal_segments = static_cast<std::int64_t>(wal->segment_count());
    }
    checkpoints.fetch_add(1, std::memory_order_relaxed);
    batches_since_ckpt.store(0, std::memory_order_relaxed);
    return a;
  }

  /// Chunks one applied batch into encoded kRepl frame *bodies*. Every
  /// chunk carries the same seq; all but the last set `more`, and the
  /// receiver applies the reassembled batch once.
  static std::vector<std::vector<std::uint8_t>> build_repl_bodies(
      std::uint64_t seq, std::uint64_t head_seq, bool snapshot,
      std::span<const serve::EdgeUpdate> events) {
    std::vector<std::vector<std::uint8_t>> bodies;
    std::size_t at = 0;
    do {
      const std::size_t take =
          std::min(events.size() - at, kMaxUpdatesPerFrame);
      ReplFrame rf;
      rf.seq = seq;
      rf.head_seq = head_seq;
      rf.snapshot = snapshot;
      rf.more = at + take < events.size();
      rf.events.assign(events.begin() + static_cast<std::ptrdiff_t>(at),
                       events.begin() + static_cast<std::ptrdiff_t>(at + take));
      bodies.emplace_back();
      encode_repl(bodies.back(), rf);
      at += take;
    } while (at < events.size());
    return bodies;
  }

  /// Fans one applied batch out to every live subscriber, under gen_m (so
  /// the stream is in apply order, gap-free). The framed bytes travel
  /// through the owning loop's mailbox — only the loop thread touches a
  /// Conn. The repl.stream failpoint drops the whole push: followers see
  /// the gap on the next frame and resubscribe (snapshot catch-up), which
  /// is exactly the degraded path the chaos tests pin.
  void push_to_subscribers_locked(std::uint64_t seq, bool snapshot,
                                  std::span<const serve::EdgeUpdate> events) {
    if (subscribers.empty()) return;
    if (util::failpoint("repl.stream") == util::FpAction::kError) return;
    std::vector<std::vector<std::uint8_t>> frames;
    for (const auto& body : build_repl_bodies(seq, seq, snapshot, events)) {
      frames.emplace_back();
      append_frame(frames.back(), FrameType::kRepl, 0, body);
    }
    for (auto it = subscribers.begin(); it != subscribers.end();) {
      auto c = it->conn.lock();
      if (!c) {
        it = subscribers.erase(it);
        continue;
      }
      std::lock_guard<std::mutex> lk(it->inbox->m);
      if (it->inbox->open) {
        for (const auto& fb : frames) {
          it->inbox->push.emplace_back(it->conn, fb);
        }
        it->inbox->wake();
      }
      ++it;
    }
  }

  // ----------------------------------------------------------- follower --
  /// Replica mode: one background thread holding a subscription to the
  /// primary. Any stream anomaly — a gap, a decode error, the primary
  /// dying — tears the connection down and resubscribes with capped
  /// backoff; the subscribe handshake always rebases us via a snapshot
  /// when behind, so correctness never depends on the stream staying
  /// whole, only liveness does.
  void run_follower() {
    int backoff_ms = 50;
    while (!draining.load(std::memory_order_acquire)) {
      try {
        follow_once(backoff_ms);
      } catch (const std::exception&) {
        // Connect refused / stream broke / gap detected: back off, retry.
      }
      for (int slept = 0;
           slept < backoff_ms && !draining.load(std::memory_order_acquire);
           slept += 25) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
      backoff_ms = std::min(backoff_ms * 2, 2000);
    }
  }

  void follow_once(int& backoff_ms) {
    ClientOptions copt;
    copt.host = primary.first;
    copt.port = primary.second;
    copt.request_timeout_ms = 250;  // doubles as the draining poll tick
    Client cli(copt);
    std::uint64_t have = 0;
    {
      std::lock_guard<std::mutex> lk(gen_m);
      have = update_seq;
    }
    std::vector<std::uint8_t> body;
    encode_subscribe(body, have);
    cli.send_frame(FrameType::kSubscribe, body);
    Frame ack;
    for (;;) {
      try {
        ack = cli.recv_frame();
        break;
      } catch (const TimeoutError&) {
        if (draining.load(std::memory_order_acquire)) return;
      }
    }
    if (ack.type == FrameType::kError) {
      const WireError e = decode_error(ack.body);
      throw std::runtime_error("primary rejected subscribe: " + e.message);
    }
    NORS_CHECK_MSG(ack.type == FrameType::kSubscribeAck,
                   "unexpected subscribe response type");
    repl_head.store(decode_subscribe_ack(ack.body),
                    std::memory_order_relaxed);
    backoff_ms = 50;  // the handshake succeeded: reset the retry clock

    std::vector<serve::EdgeUpdate> batch;
    bool buffering = false;
    bool batch_snapshot = false;
    std::uint64_t batch_seq = 0;
    while (!draining.load(std::memory_order_acquire)) {
      Frame fr;
      try {
        fr = cli.recv_frame();
      } catch (const TimeoutError&) {
        continue;  // idle stream: poll the drain flag, keep waiting
      }
      NORS_CHECK_MSG(fr.type == FrameType::kRepl,
                     "unexpected frame on the replication stream");
      if (util::failpoint("repl.stream") == util::FpAction::kError) {
        throw std::runtime_error("repl.stream failpoint");
      }
      ReplFrame rf = decode_repl(fr.body);
      repl_head.store(rf.head_seq, std::memory_order_relaxed);
      if (!buffering) {
        buffering = true;
        batch_snapshot = rf.snapshot;
        batch_seq = rf.seq;
        batch.clear();
      } else {
        NORS_CHECK_MSG(rf.seq == batch_seq && rf.snapshot == batch_snapshot,
                       "torn chunked repl batch");
      }
      batch.insert(batch.end(), rf.events.begin(), rf.events.end());
      if (rf.more) continue;
      buffering = false;
      // Gaps and duplicates are judged inside apply_batch, under the lock
      // they matter to; a gap throws, landing us back in the resubscribe
      // path above.
      apply_batch(batch, batch_seq, batch_snapshot);
    }
  }

  std::shared_ptr<Gen> current_gen() {
    std::lock_guard<std::mutex> lk(gen_m);
    return gen;
  }

  /// Counter coherence (pinned by test_chaos): every counter is
  /// monotonically non-decreasing except conns_active, and this snapshot
  /// additionally guarantees the cross-counter bounds
  ///
  ///   frames_out ≤ frames_in
  ///   queries    ≤ frames_in · kMaxQueriesPerFrame
  ///   shed       ≤ frames_in
  ///   conns_active ≤ conns_accepted
  ///
  /// even while the server is under concurrent load. The argument is a
  /// happens-before chain per event: the "late" counter of each pair is
  /// incremented with release order strictly after the "early" one
  /// (frames_out/queries after that frame's frames_in; shed after
  /// frames_in; a loop's active after the acceptor's conns_accepted, via
  /// the inbox mutex), and the snapshot acquire-loads the late counters
  /// *first* — so any late event it observes has its early increment
  /// visible by the time the early counter is read.
  WireStats snapshot_stats() const {
    WireStats s;
    // Late counters first (acquire)...
    s.frames_out = frames_out.load(std::memory_order_acquire);
    s.queries = queries.load(std::memory_order_acquire);
    s.shed = shed.load(std::memory_order_acquire);
    util::LatencyHistogram::Counts merged{};
    for (const auto& l : loops) {
      s.conns_active += l->active.load(std::memory_order_acquire);
      const auto c = l->latency.snapshot();
      for (std::size_t b = 0; b < c.size(); ++b) merged[b] += c[b];
    }
    // ...then their upper bounds.
    s.frames_in = frames_in.load(std::memory_order_relaxed);
    s.conns_accepted = conns_accepted.load(std::memory_order_relaxed);
    s.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
    s.reloads = reloads.load(std::memory_order_relaxed);
    s.updates = updates.load(std::memory_order_relaxed);
    s.max_inflight = max_inflight.load(std::memory_order_relaxed);
    s.timeouts = timeouts.load(std::memory_order_relaxed);
    s.stalls = stalls.load(std::memory_order_relaxed);
    s.wal_errors = wal_errors.load(std::memory_order_relaxed);
    s.checkpoints = checkpoints.load(std::memory_order_relaxed);
    s.repl_applied = repl_applied.load(std::memory_order_relaxed);
    s.p50_ns = static_cast<std::int64_t>(
        util::LatencyHistogram::quantile_us(merged, 0.5) * 1000.0);
    s.p99_ns = static_cast<std::int64_t>(
        util::LatencyHistogram::quantile_us(merged, 0.99) * 1000.0);
    // Overlay-serving counters, attributed per shard pool: generations
    // sharing one pool share its counts, so sum over *distinct* pools.
    {
      std::lock_guard<std::mutex> lk(gen_m);
      const serve::ShardedRouteServer* last = nullptr;
      for (const auto& g : all_gens) {
        if (g->srv.get() == last) continue;  // delta chain: same pool
        last = g->srv.get();
        const auto t = g->srv->totals();
        s.masked += t.masked;
        s.repaired += t.repaired;
      }
      s.update_seq = static_cast<std::int64_t>(update_seq);
      if (wal != nullptr) {
        s.wal_records = wal->stats().appends;
      }
      for (const auto& sub : subscribers) {
        if (!sub.conn.expired()) ++s.subscribers;
      }
      const std::uint64_t head = repl_head.load(std::memory_order_relaxed);
      if (head > update_seq) {
        s.repl_lag = static_cast<std::int64_t>(head - update_seq);
      }
    }
    return s;
  }

  // ---------------------------------------------------------- acceptor --
  void run_acceptor() {
    const int ep = ::epoll_create1(EPOLL_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, listen_fd, &ev);
    ev.data.fd = accept_inbox->wakefd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, accept_inbox->wakefd, &ev);
    std::size_t next_loop = 0;
    epoll_event events[16];
    while (!draining.load(std::memory_order_acquire)) {
      const int nev = ::epoll_wait(ep, events, 16, -1);
      if (nev < 0 && errno == EINTR) continue;
      for (int i = 0; i < nev; ++i) {
        if (events[i].data.fd != listen_fd) continue;  // wake: loop around
        for (;;) {
          const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd < 0) break;
          if (util::failpoint("net.accept") == util::FpAction::kError) {
            ::close(fd);  // injected accept-time failure: drop the socket
            continue;
          }
          set_nodelay(fd);
          if (opt.sndbuf_bytes > 0) {
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opt.sndbuf_bytes,
                         sizeof(opt.sndbuf_bytes));
          }
          conns_accepted.fetch_add(1, std::memory_order_relaxed);
          Loop& l = *loops[next_loop++ % loops.size()];
          {
            std::lock_guard<std::mutex> lk(l.inbox->m);
            l.inbox->fds.push_back(fd);
          }
          l.inbox->wake();
        }
      }
    }
    ::close(listen_fd);
    listen_fd = -1;
    ::close(ep);
  }

  // --------------------------------------------------------- event loop --
  void update_interest(Loop& l, const std::shared_ptr<Conn>& c) {
    const bool want_write = c->out.size() > c->out_off;
    const bool want_read =
        !c->closing && !c->stop_parse &&
        !draining.load(std::memory_order_relaxed) &&
        c->pipeline.size() < static_cast<std::size_t>(opt.window) &&
        c->out.size() - c->out_off < kOutbufLimit;
    const std::uint32_t mask = (want_read ? EPOLLIN : 0u) |
                               (want_write ? EPOLLOUT : 0u);
    if (mask == c->events) return;
    epoll_event ev{};
    ev.events = mask;
    ev.data.fd = c->fd;
    ::epoll_ctl(l.ep, EPOLL_CTL_MOD, c->fd, &ev);
    c->events = mask;
  }

  void close_conn(Loop& l, const std::shared_ptr<Conn>& c) {
    if (c->fd < 0) return;
    ::epoll_ctl(l.ep, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    l.conns.erase(c->fd);
    c->fd = -1;
    l.pending -= static_cast<std::int64_t>(c->pipeline.size());
    c->pipeline.clear();  // in-flight Pendings stay alive via callbacks
    l.active.fetch_sub(1, std::memory_order_relaxed);
  }

  /// The single site that queues a response-in-waiting, so the per-loop
  /// pending count (the max_pending_per_loop admission input) can't
  /// drift from the pipelines it describes.
  void enqueue(Loop& l, const std::shared_ptr<Conn>& c,
               std::shared_ptr<Pending> p) {
    c->pipeline.push_back(std::move(p));
    ++l.pending;
    raise_max(max_inflight,
              static_cast<std::int64_t>(c->pipeline.size()));
  }

  std::shared_ptr<Pending> make_error(std::uint32_t request_id,
                                      ErrorCode code, const char* msg) {
    auto p = std::make_shared<Pending>();
    p->request_id = request_id;
    p->resp_type = FrameType::kError;
    p->encoded = true;
    p->close_after = is_fatal(code);
    encode_error(p->resp_body, code, msg);
    protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return p;
  }

  /// Admission-control rejection: recoverable, carries the retry hint,
  /// and counts as shed load — not as a protocol error (the request was
  /// well-formed; the server simply declined the work).
  std::shared_ptr<Pending> make_overloaded(std::uint32_t request_id) {
    auto p = std::make_shared<Pending>();
    p->request_id = request_id;
    p->resp_type = FrameType::kError;
    p->encoded = true;
    encode_overloaded(p->resp_body,
                      static_cast<std::uint32_t>(
                          std::max(0, opt.retry_after_ms)),
                      "overloaded: in-flight budget exhausted, retry later");
    // Release: pairs with snapshot_stats' acquire so shed ≤ frames_in.
    shed.fetch_add(1, std::memory_order_release);
    return p;
  }

  /// True when accepting `nq` more route queries would exceed a
  /// configured admission bound (or the net.overload failpoint forces a
  /// rejection). Loop-local pending is read on the loop thread only.
  bool over_budget(const Loop& l, std::int64_t nq) {
    if (util::failpoint("net.overload") == util::FpAction::kError) {
      return true;
    }
    if (opt.max_inflight_queries > 0 &&
        inflight_queries.load(std::memory_order_relaxed) + nq >
            opt.max_inflight_queries) {
      return true;
    }
    return opt.max_pending_per_loop > 0 &&
           l.pending >= static_cast<std::int64_t>(opt.max_pending_per_loop);
  }

  void dispatch(Loop& l, const std::shared_ptr<Conn>& c, Frame&& f) {
    frames_in.fetch_add(1, std::memory_order_relaxed);
    auto p = std::make_shared<Pending>();
    p->request_id = f.request_id;
    // Frames a request queues *behind* its own response (the subscribe
    // catch-up snapshot) — enqueued after p, in order.
    std::vector<std::shared_ptr<Pending>> extras;
    switch (f.type) {
      case FrameType::kHello: {
        const auto g = current_gen();
        ServerInfo info;
        info.n = g->fs->n();
        info.k = g->fs->k();
        info.image_version = g->fs->format_version();
        info.num_trees = g->fs->num_trees();
        info.window = static_cast<std::uint32_t>(opt.window);
        p->resp_type = FrameType::kHelloAck;
        encode_hello_ack(p->resp_body, info);
        p->encoded = true;
        break;
      }
      case FrameType::kStats: {
        p->resp_type = FrameType::kStatsAck;
        encode_stats_ack(p->resp_body, snapshot_stats());
        p->encoded = true;
        break;
      }
      case FrameType::kLabel: {
        try {
          const graph::Vertex v = decode_label_request(f.body);
          const auto g = current_gen();
          if (v < 0 || v >= g->fs->n()) {
            p = make_error(f.request_id, ErrorCode::kBadQuery,
                           "label vertex out of range");
            break;
          }
          p->resp_type = FrameType::kLabelAck;
          encode_label_response(p->resp_body, g->fs->label_blob(v));
          p->encoded = true;
        } catch (const std::logic_error&) {
          p = make_error(f.request_id, ErrorCode::kBadBody,
                         "malformed label request");
        }
        break;
      }
      case FrameType::kRoute: {
        try {
          p->queries = decode_route_request(f.body);
        } catch (const std::logic_error&) {
          p = make_error(f.request_id, ErrorCode::kBadBody,
                         "malformed route request");
          break;
        }
        const auto g = current_gen();
        for (const auto& q : p->queries) {
          if (q.u < 0 || q.u >= g->fs->n() || q.v < 0 ||
              q.v >= g->fs->n()) {
            p = make_error(f.request_id, ErrorCode::kBadQuery,
                           "route vertex out of range");
            break;
          }
        }
        if (p->resp_type == FrameType::kError && p->encoded) break;
        const auto nq = static_cast<std::int64_t>(p->queries.size());
        if (over_budget(l, nq)) {
          p = make_overloaded(f.request_id);
          break;
        }
        p->is_route = true;
        p->resp_type = FrameType::kRouteAck;
        p->gen = g;
        p->conn = c;
        p->t0 = clock_t_::now();
        p->charged = nq;
        inflight_queries.fetch_add(nq, std::memory_order_relaxed);
        p->decisions.resize(p->queries.size());
        break;
      }
      case FrameType::kUpdate: {
        // Admin frame: apply the edge batch and publish it as a new delta
        // generation. Answered inline (the apply is a table copy plus
        // O(1) per event, not a route computation) and in pipeline order
        // like everything else; route frames already admitted keep their
        // old generation.
        std::vector<serve::EdgeUpdate> ups;
        try {
          ups = decode_update_request(f.body);
        } catch (const std::logic_error&) {
          p = make_error(f.request_id, ErrorCode::kBadBody,
                         "malformed update request");
          break;
        }
        if (!opt.replica_of.empty()) {
          p = make_error(f.request_id, ErrorCode::kReadOnly,
                         "read-only replica: send updates to the primary");
          break;
        }
        const auto g = current_gen();
        for (const auto& e : ups) {
          if (e.u < 0 || e.u >= g->fs->n() || e.v < 0 ||
              e.v >= g->fs->n()) {
            p = make_error(f.request_id, ErrorCode::kBadQuery,
                           "update vertex out of range");
            break;
          }
        }
        if (p->resp_type == FrameType::kError && p->encoded) break;
        if (draining.load(std::memory_order_acquire)) {
          p = make_error(f.request_id, ErrorCode::kDraining,
                         "draining: updates not accepted");
          break;
        }
        try {
          const UpdateAck a = apply_updates(ups);
          p->resp_type = FrameType::kUpdateAck;
          encode_update_ack(p->resp_body, a);
          p->encoded = true;
        } catch (const serve::WalError& e) {
          // The log rejected the batch (disk full, injected fault):
          // nothing was published, reads keep serving the old generation.
          // Recoverable, and counted in wal_errors (apply_batch), not
          // protocol_errors — the request was well-formed.
          p->resp_type = FrameType::kError;
          p->resp_body.clear();
          encode_error(p->resp_body, ErrorCode::kWalError, e.what());
          p->encoded = true;
        } catch (const std::exception& e) {
          p = make_error(f.request_id, ErrorCode::kServerError, e.what());
        }
        break;
      }
      case FrameType::kSubscribe: {
        std::uint64_t have = 0;
        try {
          have = decode_subscribe(f.body);
        } catch (const std::logic_error&) {
          p = make_error(f.request_id, ErrorCode::kBadBody,
                         "malformed subscribe request");
          break;
        }
        if (!c->pipeline.empty()) {
          // The stream bypasses the ordered pipeline (pushed frames append
          // straight to the socket), so it must own its connection.
          p = make_error(f.request_id, ErrorCode::kBadQuery,
                         "subscribe requires a dedicated connection");
          break;
        }
        if (draining.load(std::memory_order_acquire)) {
          p = make_error(f.request_id, ErrorCode::kDraining,
                         "draining: subscriptions not accepted");
          break;
        }
        std::uint64_t head = 0;
        std::vector<serve::EdgeUpdate> snap;
        bool catch_up = false;
        {
          // Registration and the head snapshot are one atomic step
          // against apply_batch: every batch after `head` will be pushed,
          // and the catch-up snapshot covers everything up to it — no
          // gap, no double-apply (snapshots replace, not layer).
          std::lock_guard<std::mutex> lk(gen_m);
          head = update_seq;
          if (have < head) {
            catch_up = true;
            if (gen->delta != nullptr) {
              snap = gen->delta->as_edge_updates(*gen->fs);
            }
          }
          subscribers.push_back({c, l.inbox});
        }
        p->resp_type = FrameType::kSubscribeAck;
        encode_subscribe_ack(p->resp_body, head);
        p->encoded = true;
        if (catch_up) {
          // The snapshot rides the same ordered pipeline as the ack (the
          // pipeline was empty, so both flush before any pushed frame —
          // pushes enqueued from here on drain only on the *next* loop
          // iteration).
          for (auto& body : build_repl_bodies(head, head, true, snap)) {
            auto e = std::make_shared<Pending>();
            e->request_id = 0;
            e->resp_type = FrameType::kRepl;
            e->resp_body = std::move(body);
            e->encoded = true;
            extras.push_back(std::move(e));
          }
        }
        break;
      }
      case FrameType::kCheckpoint: {
        if (!f.body.empty()) {
          p = make_error(f.request_id, ErrorCode::kBadBody,
                         "checkpoint takes no body");
          break;
        }
        if (draining.load(std::memory_order_acquire)) {
          p = make_error(f.request_id, ErrorCode::kDraining,
                         "draining: checkpoint not accepted");
          break;
        }
        try {
          const CheckpointAck a = checkpoint();
          p->resp_type = FrameType::kCheckpointAck;
          encode_checkpoint_ack(p->resp_body, a);
          p->encoded = true;
        } catch (const std::exception& e) {
          p = make_error(f.request_id, ErrorCode::kServerError, e.what());
        }
        break;
      }
      default:
        // A checksummed frame of a response-only type from a client.
        p = make_error(f.request_id, ErrorCode::kBadType,
                       "not a request frame type");
        break;
    }

    enqueue(l, c, p);
    for (auto& e : extras) enqueue(l, c, std::move(e));
    if (p->is_route) {
      // Submit after queueing so the completion (delivered back to this
      // loop through the inbox) always finds the pending in order. The
      // callback MOVES its Pending reference out — a shard worker must
      // never end up holding the last reference to a generation (its
      // destructor would self-join; see all_gens).
      auto inbox = l.inbox;
      p->batch = p->gen->srv->submit(
          p->queries.data(), p->queries.size(), p->decisions.data(),
          p->gen->delta, [this, p, inbox]() mutable {
            // The shards are done with this batch: release its budget
            // charge whether or not the connection is still there.
            inflight_queries.fetch_sub(p->charged,
                                       std::memory_order_relaxed);
            auto mine = std::move(p);
            {
              std::lock_guard<std::mutex> lk(inbox->m);
              if (inbox->open) {
                inbox->done.push_back(std::move(mine));
                inbox->wake();
                return;
              }
            }
            std::lock_guard<std::mutex> lk(grave_m);
            grave.push_back(std::move(mine));
          });
    }
  }

  /// Encodes and flushes every answerable response at the head of the
  /// pipeline — strictly in request order — then pushes bytes to the
  /// socket.
  void flush_pipeline(Loop& l, const std::shared_ptr<Conn>& c) {
    while (!c->pipeline.empty()) {
      const auto& p = c->pipeline.front();
      if (p->is_route && !p->encoded) {
        if (!p->batch.done()) break;
        try {
          p->batch.wait();  // already done: only rethrows worker errors
          encode_route_response(p->resp_body, p->decisions.data(),
                                p->decisions.size());
          // Release: pairs with snapshot_stats' acquire so queries ≤
          // frames_in · kMaxQueriesPerFrame (the frame's frames_in
          // increment happened-before this).
          queries.fetch_add(
              static_cast<std::int64_t>(p->decisions.size()),
              std::memory_order_release);
        } catch (const std::exception& e) {
          p->resp_type = FrameType::kError;
          p->resp_body.clear();
          encode_error(p->resp_body, ErrorCode::kServerError, e.what());
          p->close_after = true;
          protocol_errors.fetch_add(1, std::memory_order_relaxed);
        }
        p->encoded = true;
        l.latency.record_ns(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock_t_::now() - p->t0)
                .count());
      }
      if (!p->encoded) break;
      append_frame(c->out, p->resp_type, p->request_id, p->resp_body);
      // Release: pairs with snapshot_stats' acquire (frames_out ≤
      // frames_in).
      frames_out.fetch_add(1, std::memory_order_release);
      if (p->close_after) c->closing = true;
      c->pipeline.pop_front();
      --l.pending;
      if (c->closing) break;
    }
    handle_write(l, c);
  }

  void handle_write(Loop& l, const std::shared_ptr<Conn>& c) {
    if (c->fd < 0) return;
    const auto fp = util::failpoint("net.write");
    if (fp == util::FpAction::kError) {
      close_conn(l, c);  // injected write failure
      return;
    }
    bool progressed = false;
    while (c->out_off < c->out.size()) {
      std::size_t len = c->out.size() - c->out_off;
      if (fp == util::FpAction::kPartial) len = 1;
      const auto wr = ::send(c->fd, c->out.data() + c->out_off, len,
                             MSG_NOSIGNAL);
      if (wr > 0) {
        c->out_off += static_cast<std::size_t>(wr);
        progressed = true;
        if (fp == util::FpAction::kPartial) break;  // one byte, re-poll
        continue;
      }
      if (wr < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (wr < 0 && errno == EINTR) continue;
      close_conn(l, c);  // peer vanished mid-write
      return;
    }
    if (c->out_off == c->out.size()) {
      c->out.clear();
      c->out_off = 0;
      c->stall_armed = false;
      if (c->closing && c->pipeline.empty()) {
        close_conn(l, c);
        return;
      }
    } else if (opt.stall_timeout_ms > 0 &&
               (progressed || !c->stall_armed)) {
      // Unflushed bytes remain: (re)start the stall clock from the last
      // moment the peer made progress.
      c->stall_armed = true;
      c->stall_since = clock_t_::now();
    }
    update_interest(l, c);
  }

  /// Parses buffered input into dispatched frames — but never past the
  /// in-flight window, so max_inflight is a real bound, not just a read
  /// throttle. Leftover bytes wait in `in` until responses free room.
  void parse_available(Loop& l, const std::shared_ptr<Conn>& c) {
    std::size_t off = 0;
    while (!c->stop_parse && !c->closing &&
           !draining.load(std::memory_order_relaxed) &&
           c->pipeline.size() < static_cast<std::size_t>(opt.window)) {
      const auto pr = parse_frame(c->in.data() + off, c->in.size() - off);
      if (pr.status == ParseResult::Status::kNeedMore) break;
      if (pr.status == ParseResult::Status::kBad) {
        enqueue(l, c,
                make_error(pr.request_id, pr.error,
                           is_fatal(pr.error)
                               ? "broken frame envelope; closing"
                               : "unknown frame type"));
        if (is_fatal(pr.error)) {
          // The stream can't be resynced: answer, then close.
          c->stop_parse = true;
          break;
        }
        off += pr.consumed;  // checksummed frame of unknown type: skip it
        continue;
      }
      off += pr.consumed;
      Frame f = std::move(const_cast<ParseResult&>(pr).frame);
      dispatch(l, c, std::move(f));
    }
    if (off > 0) {
      c->in.erase(c->in.begin(),
                  c->in.begin() + static_cast<std::ptrdiff_t>(off));
    }
  }

  /// Parse → flush, repeated while flushing frees window room for more
  /// buffered frames. Called on new input and on batch completion.
  void pump(Loop& l, const std::shared_ptr<Conn>& c) {
    for (;;) {
      parse_available(l, c);
      const std::size_t before = c->pipeline.size();
      flush_pipeline(l, c);
      if (c->fd < 0 || c->in.empty() || c->pipeline.size() == before) {
        break;
      }
    }
  }

  void handle_read(Loop& l, const std::shared_ptr<Conn>& c) {
    const auto fp = util::failpoint("net.read");
    if (fp == util::FpAction::kError) {
      close_conn(l, c);  // injected read failure
      return;
    }
    std::uint8_t buf[65536];
    // Partial-io: read one byte per event-loop pass — no data is lost,
    // the stream just arrives maximally fragmented (level-triggered
    // interest re-fires until the socket drains).
    const std::size_t cap =
        fp == util::FpAction::kPartial ? 1 : sizeof(buf);
    const auto rd = ::recv(c->fd, buf, cap, 0);
    if (rd == 0) {
      // Abrupt peer close — possibly mid-batch. Drop the socket; any
      // in-flight batches finish into their own Pending buffers.
      close_conn(l, c);
      return;
    }
    if (rd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      close_conn(l, c);
      return;
    }
    c->in.insert(c->in.end(), buf, buf + rd);
    pump(l, c);
  }

  /// Force-closes connections that broke a time bound (§12): a
  /// head-of-line route response still not computed past the request
  /// deadline (nothing behind it could be answered anyway — responses
  /// are strictly ordered), or a write-stalled peer past the stall
  /// timeout. Runs on the loop thread between epoll waits.
  void check_timers(Loop& l) {
    if (opt.request_deadline_ms <= 0 && opt.stall_timeout_ms <= 0) return;
    const auto now = clock_t_::now();
    std::vector<std::shared_ptr<Conn>> victims;
    for (auto& [fd, c] : l.conns) {
      if (opt.request_deadline_ms > 0 && !c->pipeline.empty()) {
        const auto& p = c->pipeline.front();
        if (p->is_route && !p->encoded &&
            now - p->t0 >
                std::chrono::milliseconds(opt.request_deadline_ms)) {
          timeouts.fetch_add(1, std::memory_order_relaxed);
          victims.push_back(c);
          continue;
        }
      }
      if (opt.stall_timeout_ms > 0 && c->stall_armed &&
          now - c->stall_since >
              std::chrono::milliseconds(opt.stall_timeout_ms)) {
        stalls.fetch_add(1, std::memory_order_relaxed);
        victims.push_back(c);
      }
    }
    for (auto& c : victims) close_conn(l, c);
  }

  void run_loop(Loop& l) {
    l.ep = ::epoll_create1(EPOLL_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = l.inbox->wakefd;
    ::epoll_ctl(l.ep, EPOLL_CTL_ADD, l.inbox->wakefd, &ev);

    bool drain_seen = false;
    clock_t_::time_point deadline{};
    epoll_event events[64];
    for (;;) {
      const bool dr = draining.load(std::memory_order_acquire);
      if (dr && !drain_seen) {
        drain_seen = true;
        deadline = clock_t_::now() +
                   std::chrono::milliseconds(opt.drain_timeout_ms);
        // Stop reading everywhere; finish what's parsed, flush, close.
        for (auto& [fd, c] : l.conns) update_interest(l, c);
      }
      if (drain_seen) {
        // Close connections with nothing left to answer or flush.
        std::vector<std::shared_ptr<Conn>> done;
        for (auto& [fd, c] : l.conns) {
          if ((c->pipeline.empty() && c->out_off == c->out.size()) ||
              clock_t_::now() >= deadline) {
            done.push_back(c);
          }
        }
        for (auto& c : done) close_conn(l, c);
        if (l.conns.empty()) break;
      }

      // Timers demand periodic wakeups; otherwise block indefinitely.
      const bool timers =
          (opt.request_deadline_ms > 0 || opt.stall_timeout_ms > 0) &&
          !l.conns.empty();
      const int nev = ::epoll_wait(l.ep, events, 64,
                                   (drain_seen || timers) ? 50 : -1);
      if (nev < 0 && errno == EINTR) continue;

      // Mailbox first: adopt new sockets, finish completed batches. Clear
      // the wake counter before taking the mail: a delivery that lands
      // after the read re-arms the eventfd, so the next epoll_wait returns
      // for it (reading after the swap would swallow that wake and strand
      // the delivery in the mailbox until some unrelated event).
      std::uint64_t tick = 0;
      [[maybe_unused]] const auto r =
          ::read(l.inbox->wakefd, &tick, sizeof(tick));
      std::vector<int> fds;
      std::vector<std::shared_ptr<Pending>> done;
      std::vector<std::pair<std::weak_ptr<Conn>, std::vector<std::uint8_t>>>
          pushes;
      {
        std::lock_guard<std::mutex> lk(l.inbox->m);
        fds.swap(l.inbox->fds);
        done.swap(l.inbox->done);
        pushes.swap(l.inbox->push);
      }
      // Chaos hook: delay-only, widens the window in which producers post
      // mail the loop has not taken (they must re-arm the eventfd).
      util::failpoint("net.mailbox");
      for (const int fd : fds) {
        if (draining.load(std::memory_order_relaxed)) {
          ::close(fd);
          continue;
        }
        auto c = std::make_shared<Conn>();
        c->fd = fd;
        c->events = EPOLLIN;
        epoll_event cev{};
        cev.events = EPOLLIN;
        cev.data.fd = fd;
        ::epoll_ctl(l.ep, EPOLL_CTL_ADD, fd, &cev);
        l.conns.emplace(fd, std::move(c));
        // Release: the acceptor's conns_accepted increment happened-before
        // this (inbox mutex handoff), so snapshot_stats' acquire read of
        // `active` keeps conns_active ≤ conns_accepted.
        l.active.fetch_add(1, std::memory_order_release);
      }
      for (const auto& p : done) {
        if (const auto c = p->conn.lock(); c && c->fd >= 0) {
          pump(l, c);
        }
      }
      for (auto& [wc, bytes] : pushes) {
        const auto c = wc.lock();
        if (!c || c->fd < 0) continue;
        // Server-initiated kRepl bytes, appended behind whatever the
        // ordered pipeline already flushed. Not counted in frames_out
        // (which tracks responses, bounded by frames_in). A subscriber
        // that stopped reading is cut once its queue passes 4× the
        // outbuf cap — it reconnects and catches up by snapshot.
        if (c->out.size() - c->out_off > kOutbufLimit * 4) {
          close_conn(l, c);
          continue;
        }
        c->out.insert(c->out.end(), bytes.begin(), bytes.end());
        handle_write(l, c);
      }

      for (int i = 0; i < nev; ++i) {
        const int fd = events[i].data.fd;
        if (fd == l.inbox->wakefd) continue;
        const auto it = l.conns.find(fd);
        if (it == l.conns.end()) continue;
        auto c = it->second;  // keep alive across close_conn
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          close_conn(l, c);
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0) handle_write(l, c);
        if (c->fd >= 0 && (events[i].events & EPOLLIN) != 0) {
          handle_read(l, c);
        }
      }

      check_timers(l);
    }

    for (auto it = l.conns.begin(); it != l.conns.end();) {
      auto c = (it++)->second;
      close_conn(l, c);
    }
    {
      std::lock_guard<std::mutex> lk(l.inbox->m);
      l.inbox->open = false;
      for (const int fd : l.inbox->fds) ::close(fd);
      l.inbox->fds.clear();
      l.inbox->done.clear();
      l.inbox->push.clear();
    }
    ::close(l.ep);
  }
};

Server::Server(serve::FrozenScheme fs, NetServerOptions opt)
    : impl_(std::make_unique<Impl>(std::move(fs), std::move(opt))) {}

Server::~Server() = default;

int Server::port() const { return impl_->bound_port; }

void Server::drain() { impl_->drain(); }

void Server::reload(serve::FrozenScheme fs) { impl_->reload(std::move(fs)); }

UpdateAck Server::apply_updates(std::span<const serve::EdgeUpdate> updates) {
  return impl_->apply_updates(updates);
}

CheckpointAck Server::checkpoint() { return impl_->checkpoint(); }

WireStats Server::stats() const { return impl_->snapshot_stats(); }

std::size_t Server::delta_bytes() const {
  const auto g = impl_->current_gen();  // null once drained
  return g != nullptr && g->delta != nullptr ? g->delta->byte_size() : 0;
}

const NetServerOptions& Server::options() const { return impl_->opt; }

}  // namespace nors::net
