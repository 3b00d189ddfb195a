#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/wire.h"
#include "serve/frozen.h"

namespace nors::net {

/// A kError response frame, surfaced as an exception by the typed calls.
/// Recoverable codes (kBadBody, kBadQuery, ...) leave the connection
/// usable — catch, fix the request, keep going; fatal codes mean the
/// server is about to close the socket (see wire.h's taxonomy).
struct ProtocolError : std::runtime_error {
  ProtocolError(ErrorCode c, const std::string& msg)
      : std::runtime_error(msg), code(c) {}
  ErrorCode code;
};

/// The admission-control rejection (kOverloaded), carrying the server's
/// retry-after hint. The connection stays usable; the request was never
/// executed, and route/label/stats are read-only, so resending the
/// identical request is always safe. route() retries these itself when
/// ClientOptions::overload_retries > 0.
struct OverloadedError : ProtocolError {
  OverloadedError(const std::string& msg, std::uint32_t hint_ms)
      : ProtocolError(ErrorCode::kOverloaded, msg),
        retry_after_ms(hint_ms) {}
  std::uint32_t retry_after_ms;
};

/// A per-request deadline expired (ClientOptions::request_timeout_ms)
/// before the server produced the expected bytes. The connection state is
/// indeterminate after a timeout — a late response may still arrive and
/// would desynchronize the request/response pairing — so callers should
/// close() and reconnect.
struct TimeoutError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One server address in a failover list.
struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;

  /// Failover list (DESIGN.md §14). Empty = just {host, port}. When
  /// non-empty it replaces host/port entirely: connecting tries the
  /// endpoints in rotation (connect_retries budgets the whole rotation),
  /// and a *read-only* call — hello / route / label / stats — that dies
  /// on a transport error (connection refused, peer closed the socket,
  /// request timeout) transparently reconnects to the next endpoint and
  /// retries, visiting each endpoint at most once per call. Safe because
  /// those calls execute no writes; update() and checkpoint() never fail
  /// over — they mutate, and a timeout leaves their outcome unknown, so
  /// the caller must decide.
  std::vector<Endpoint> endpoints{};

  /// Extra connect attempts before giving up — lets a client outwait a
  /// daemon that is still binding its socket. Attempts are spaced by
  /// exponential backoff with jitter: the nth sleep is drawn uniformly
  /// from [d/2, d] where d = min(backoff_base_ms << n, backoff_cap_ms).
  int connect_retries = 0;

  /// Overall wall-clock budget for connecting, across all attempts and
  /// backoff sleeps. 0 = no deadline (retries alone bound the loop).
  int connect_deadline_ms = 0;

  /// Backoff shape shared by connect retries and route()'s kOverloaded
  /// retries.
  int backoff_base_ms = 20;
  int backoff_cap_ms = 1000;

  /// Per-request deadline (ms) for every blocking receive and send: when
  /// the server doesn't produce (or accept) the expected bytes in time,
  /// the call throws TimeoutError. 0 = wait forever.
  int request_timeout_ms = 0;

  /// How many times route() resends a frame the server shed with
  /// kOverloaded before giving up and rethrowing OverloadedError. Each
  /// retry sleeps max(server hint, jittered backoff). Safe because route
  /// queries are read-only (see OverloadedError). 0 = don't retry.
  int overload_retries = 0;

  /// Ceiling on the server's kOverloaded retry-after hint (ms). The hint
  /// is a uint32 chosen by the *peer*: unclamped, a large or hostile
  /// value would either park the client for days or — as in the bug this
  /// knob fixes — overflow the int conversion, go negative, lose to the
  /// backoff in max(), and defeat the overload sleep entirely. Hints
  /// above the cap sleep exactly the cap.
  int retry_hint_cap_ms = 10'000;
};

/// splitmix64: the client's jitter PRNG step (public so tests can
/// replay a schedule from a captured seed).
inline std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Exponential backoff with jitter: the nth delay is drawn uniformly from
/// [d/2, d], d = min(base << n, cap). The jitter decorrelates a herd of
/// clients that all hit the same overloaded server (or the same not-yet-
/// bound daemon) at once — without it they would retry in lockstep and
/// collide again every round. Public (with Client::jitter_seed()) so
/// test_chaos can pin that two concurrent clients' schedules diverge.
class Backoff {
 public:
  Backoff(int base_ms, int cap_ms, std::uint64_t& rng)
      : next_ms_(std::max(1, base_ms)), cap_ms_(std::max(1, cap_ms)),
        rng_(rng) {}

  /// The next sleep duration in ms (advances the schedule).
  int next() {
    const int d = next_ms_;
    next_ms_ = std::min(cap_ms_, next_ms_ * 2);
    const int half = std::max(1, d / 2);
    return half + static_cast<int>(splitmix64(rng_) %
                                   static_cast<std::uint64_t>(d - half + 1));
  }

 private:
  int next_ms_;
  const int cap_ms_;
  std::uint64_t& rng_;
};

/// Blocking client for the route_serviced wire protocol (net/wire.h): a
/// single TCP connection, synchronous typed calls (hello / route / label /
/// stats), and a split async pair (send_route / recv_route) for
/// pipelining — the server answers strictly in request order, so N sends
/// followed by N recvs line up positionally. The raw send_bytes /
/// send_frame / recv_frame layer exists for the wire-fuzz and protocol
/// tests; production callers want the typed calls. Not thread-safe: one
/// Client per thread (connections are cheap; the server pins each to one
/// event loop anyway).
class Client {
 public:
  /// Connects (with retries per the options); throws std::runtime_error
  /// when the server cannot be reached within the retry/deadline budget.
  explicit Client(ClientOptions opt);
  Client(const std::string& host, int port)
      : Client(ClientOptions{.host = host, .port = port}) {}
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // ------------------------------------------------------- typed calls --
  ServerInfo hello();

  /// Routes a batch: splits it into kRoute frames of at most
  /// kMaxQueriesPerFrame queries, pipelines them, and reassembles the
  /// decisions in query order. Frames the server sheds with kOverloaded
  /// are retried up to overload_retries times (sleeping max(hint,
  /// backoff) between rounds); the result is bit-identical to an
  /// unthrottled run because shed frames were never executed. Throws
  /// ProtocolError on any other kError response, OverloadedError when
  /// retries are exhausted, TimeoutError past request_timeout_ms.
  std::vector<serve::Decision> route(const std::vector<serve::Query>& qs);

  std::vector<std::uint8_t> label(graph::Vertex v);
  WireStats stats();

  /// Applies a journaled edge-update batch (≤ kMaxUpdatesPerFrame events)
  /// via a kUpdate admin frame; returns the published generation's shape.
  /// Throws ProtocolError on rejection (kBadQuery for out-of-range
  /// vertices, kDraining on a draining server, kWalError when the
  /// server's log shed the batch, kReadOnly on a replica). Never fails
  /// over (see ClientOptions::endpoints).
  UpdateAck update(std::span<const serve::EdgeUpdate> updates);

  /// Asks the server to checkpoint (compact its delta chain + truncate
  /// its WAL; DESIGN.md §14). Never fails over.
  CheckpointAck checkpoint();

  /// Subscribes this connection to the server's replication stream:
  /// sends kSubscribe with the seq we already hold, returns the server's
  /// head seq from the ack. After this, kRepl frames arrive via
  /// recv_frame() — the connection carries nothing else.
  std::uint64_t subscribe(std::uint64_t have_seq);

  /// The endpoint the client is currently connected (or pinned) to.
  const Endpoint& active_endpoint() const { return endpoints_[active_]; }

  // ------------------------------------------- pipelined route frames --
  /// Sends one kRoute frame (count ≤ kMaxQueriesPerFrame) without waiting;
  /// returns the request id used.
  std::uint32_t send_route(const serve::Query* qs, std::size_t count);

  /// Receives the next response frame, which must be the kRouteAck (or
  /// kError → ProtocolError / OverloadedError) for the oldest unanswered
  /// send_route.
  std::vector<serve::Decision> recv_route();

  // ------------------------------------------------------- raw access --
  /// Writes raw bytes to the socket — the fuzz tests' door for malformed
  /// framing. Throws when the connection is gone, TimeoutError when the
  /// socket stays unwritable past request_timeout_ms.
  void send_bytes(const std::uint8_t* data, std::size_t len);

  /// Encodes and sends a well-formed frame with an arbitrary body.
  std::uint32_t send_frame(FrameType type, std::span<const std::uint8_t> body);

  /// Blocks for the next complete frame. Throws std::runtime_error if the
  /// peer closes or the stream breaks instead, TimeoutError when no frame
  /// completes within request_timeout_ms.
  Frame recv_frame();

  /// As recv_frame(), but a clean peer close returns false instead of
  /// throwing — how tests assert "the server hung up".
  bool recv_frame_or_eof(Frame& out);

  /// Half-close: no more requests, but responses still flow. drain tests
  /// use this to say "done sending" without dropping in-flight replies.
  void shutdown_send();

  void close();
  bool connected() const { return fd_ >= 0; }

  /// This connection's jitter seed — mixed from a per-process counter,
  /// the clock, the instance address and the pid, so concurrent clients
  /// (same binary, same machine, same instant) draw distinct backoff
  /// schedules and an overload herd actually decorrelates. Exposed so
  /// tests can assert the divergence by replaying schedules.
  std::uint64_t jitter_seed() const { return jitter_seed_; }

  /// The overload-retry sleep: max(clamped server hint, jittered
  /// backoff). Static and pure so the clamp is directly testable — the
  /// uint32 hint is narrowed to int only *after* the cap, closing the
  /// overflow path where a huge hint went negative and lost the max().
  static int overload_sleep_ms(std::uint32_t hint_ms, int hint_cap_ms,
                               int backoff_ms) {
    const auto cap =
        static_cast<std::uint32_t>(std::max(0, hint_cap_ms));
    return std::max(static_cast<int>(std::min(hint_ms, cap)), backoff_ms);
  }

 private:
  Frame expect(FrameType want);
  std::vector<serve::Decision> route_once(const std::vector<serve::Query>& qs);

  /// Connect to some endpoint, starting at active_ and rotating, with
  /// the options' retry/backoff/deadline budget. Throws when the whole
  /// budget is spent without a connection.
  void connect_rotate();

  /// Runs `fn` with transparent endpoint failover — read-only calls
  /// only. ProtocolError (the server *answered*; the connection is fine)
  /// passes through; any transport error advances to the next endpoint
  /// and retries until every endpoint has been tried once.
  template <typename Fn>
  auto with_failover(Fn&& fn) -> decltype(fn()) {
    for (std::size_t tried = 0;; ++tried) {
      try {
        if (fd_ < 0) connect_rotate();
        return fn();
      } catch (const ProtocolError&) {
        throw;
      } catch (const std::exception&) {
        if (tried + 1 >= endpoints_.size()) throw;
        close();
        active_ = (active_ + 1) % endpoints_.size();
      }
    }
  }

  ClientOptions opt_;
  std::vector<Endpoint> endpoints_;
  std::size_t active_ = 0;
  int fd_ = -1;
  std::uint32_t next_id_ = 1;
  std::uint64_t jitter_seed_ = 0;
  std::uint64_t jitter_rng_ = 0;
  std::vector<std::uint8_t> inbuf_;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace nors::net
