#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include <span>

#include "net/wire.h"
#include "serve/delta.h"
#include "serve/frozen.h"
#include "serve/wal.h"

namespace nors::net {

struct NetServerOptions {
  /// Bind address. Defaults to loopback; serving beyond the host is a
  /// deliberate choice.
  std::string host = "127.0.0.1";

  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;

  /// Worker event loops. Connections are assigned round-robin at accept
  /// and stay pinned to their loop — no cross-loop locking on the hot
  /// path. Clamped to [1, hardware concurrency] like the serving pools
  /// (util::resolve_threads; NORS_THREADS_OVERSUBSCRIBE=1 opts out).
  int loops = 1;

  /// ShardedRouteServer geometry per generation (see serve/shard.h).
  int shards = 1;
  int cache_entries = 0;

  /// Per-connection in-flight window: at most this many unanswered frames
  /// may be pipelined on one connection. At the limit the loop simply
  /// stops reading that socket (level-triggered interest drop), so
  /// backpressure propagates to the client through TCP flow control and
  /// the server's memory stays bounded per connection.
  int window = 64;

  /// Graceful-drain deadline: after this many ms, connections that still
  /// cannot flush (a client that stopped reading) are closed anyway so
  /// drain() always terminates.
  int drain_timeout_ms = 5000;

  // ------------------------------------------- overload control (§12) --
  /// Global in-flight query budget: the sum of route queries submitted to
  /// the shards but not yet completed, across all connections and loops.
  /// A kRoute frame that would push the sum past the budget is rejected
  /// with a recoverable kOverloaded frame (carrying retry_after_ms)
  /// instead of queueing — under sustained overload the server sheds
  /// excess offered load and keeps serving at capacity rather than
  /// growing queues without bound. 0 = unlimited.
  std::int64_t max_inflight_queries = 0;

  /// Per-loop admission cap: a loop with this many pending responses
  /// (across its connections) sheds further route frames with
  /// kOverloaded. Bounds per-loop memory independently of how many
  /// connections split the per-connection window. 0 = unlimited.
  int max_pending_per_loop = 0;

  /// The retry-after hint (ms) carried by kOverloaded frames.
  int retry_after_ms = 25;

  /// Per-connection request deadline: if the response to the oldest
  /// in-flight request is still not computed after this many ms (a wedged
  /// shard, an injected stall), the connection is force-closed and
  /// counted in WireStats::timeouts — in-order delivery means nothing
  /// behind the head could be answered anyway. 0 = no deadline.
  int request_deadline_ms = 0;

  /// Slow-peer write-stall timer, the outbuf-cap companion: a connection
  /// whose pending output makes no write progress for this many ms (a
  /// peer that stopped reading) is force-closed and counted in
  /// WireStats::stalls. The outbuf cap bounds how much such a peer can
  /// queue; this timer bounds for how long. 0 = disabled.
  int stall_timeout_ms = 0;

  /// SO_SNDBUF for accepted sockets (0 = kernel default). Chiefly a
  /// chaos/test knob: a small send buffer makes a non-reading peer wedge
  /// the connection quickly instead of hiding behind megabytes of kernel
  /// buffering.
  int sndbuf_bytes = 0;

  // ---------------------------------- durability + replication (§14) --
  /// Write-ahead-log directory; empty = no WAL (applied updates die with
  /// the process, the pre-§14 behavior). With a WAL, construction first
  /// recovers: every logged batch is replayed over the image before the
  /// first socket is opened, so a rebooted daemon serves exactly what a
  /// never-crashed one would. Admitted kUpdate batches are appended (and
  /// synced, per `fsync`) *before* the new generation is published — a
  /// batch the log could not hold is shed with a recoverable kWalError
  /// frame and the old generation keeps serving.
  std::string wal_dir;
  serve::FsyncPolicy fsync = serve::FsyncPolicy::kAlways;
  std::uint32_t fsync_interval_ms = 100;

  /// Auto-checkpoint cadence: after this many applied batches the server
  /// runs checkpoint() on its own (0 = manual kCheckpoint frames only).
  std::int64_t checkpoint_every = 0;

  /// Where checkpoint() rebuilds the compacted frozen image (written to a
  /// temp file, fsynced, renamed over). Empty = no image rebuild; the WAL
  /// squash record alone carries the compaction.
  std::string image_path;

  /// "host:port" of a primary to follow. Non-empty makes this server a
  /// read-only replica: it subscribes to the primary's update stream,
  /// applies each batch at the primary's sequence number (logging it to
  /// its own WAL when one is configured), serves reads, and rejects
  /// client kUpdate frames with kReadOnly. Reconnects with backoff; a gap
  /// in the stream forces a fresh subscribe, which catches up via a
  /// snapshot batch. A malformed value (no ':', or a port outside
  /// 1..65535) makes the Server constructor throw.
  std::string replica_of;
};

/// The network front door over the frozen serving stack (DESIGN.md §11):
/// one acceptor plus `loops` epoll event loops (level-triggered), each
/// owning its connections outright, over a ShardedRouteServer per image
/// generation. Route frames are decoded, validated and submitted
/// asynchronously (serve/shard.h's submit with an on_complete hook); the
/// answering shard worker wakes the owning loop through an eventfd, and
/// responses are written strictly in per-connection request order, so a
/// pipelining client needs no correlation logic. Hello/label/stats frames
/// are answered inline but flow through the same ordered pipeline.
///
/// Life cycle: the server starts serving on construction. drain() is the
/// SIGTERM path — stop accepting, stop reading, answer every frame already
/// parsed, flush, close, join (idempotent; the destructor drains if the
/// caller didn't). reload() is the SIGHUP path — atomically swap in a new
/// FrozenScheme generation; frames in flight finish on the generation they
/// were submitted to (kept alive by shared ownership), new frames route on
/// the new image, and no response is ever dropped or torn by a swap
/// (test_net pins this).
class Server {
 public:
  /// Takes ownership of the frozen image (FrozenScheme is move-only) and
  /// starts accepting immediately. Throws std::runtime_error when the
  /// socket cannot be bound.
  explicit Server(serve::FrozenScheme fs, NetServerOptions opt = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (the ephemeral one when options.port == 0).
  int port() const;

  /// Graceful shutdown: see class comment. Safe to call from any thread,
  /// including a signal-handling thread; returns once everything is
  /// closed and joined.
  void drain();

  /// Swap the serving image (class comment). Safe from any thread.
  void reload(serve::FrozenScheme fs);
  void reload_file(const std::string& path) {
    reload(serve::FrozenScheme::map(path));
  }

  /// Applies a journaled edge-update batch (DESIGN.md §13) and publishes
  /// the result as a new refcounted generation — the kUpdate frame's
  /// in-process twin (route_serviced's --updates replay drives this).
  /// Unlike reload(), a delta generation shares the frozen image and the
  /// shard compute with its predecessor; only the immutable DeltaSet is
  /// swapped, so applying a batch never spawns or joins threads. Frames in
  /// flight finish on the generation that admitted them. Safe from any
  /// thread; throws std::runtime_error when called on a draining server
  /// or with out-of-range vertices.
  UpdateAck apply_updates(std::span<const serve::EdgeUpdate> updates);

  /// Checkpoint compaction (DESIGN.md §14), the kCheckpoint frame's
  /// in-process twin: squash the live delta chain into one snapshot WAL
  /// record (truncating every older segment), and — when
  /// options.image_path is set — rebuild the frozen image with the
  /// current weight overrides baked in (temp file + rename, crash-safe at
  /// every step). The serving generation is untouched; only the recovery
  /// artifacts shrink. Runs whole under the update lock, so it
  /// linearizes against apply_updates. Safe from any thread; throws
  /// serve::WalError / std::runtime_error on I/O failure (the old log
  /// keeps its records — nothing is truncated before the squash lands).
  CheckpointAck checkpoint();

  /// Cumulative counters (the same numbers a kStats frame reports).
  WireStats stats() const;

  /// Heap bytes of the serving generation's DeltaSet (0 when unpatched) —
  /// the size route_serviced logs beside each applied batch's counts.
  std::size_t delta_bytes() const;

  const NetServerOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nors::net
