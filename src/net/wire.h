#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "serve/delta.h"
#include "serve/frozen.h"

namespace nors::net {

// The route_serviced wire protocol (DESIGN.md §11): a versioned,
// length-prefixed, checksummed binary framing over a TCP byte stream.
// Everything is little-endian, like the NORSFRZ1 image format. A frame is
//
//   offset  size
//   0       4     magic "NRW1"
//   4       1     protocol version (kProtoVersion)
//   5       1     frame type (FrameType)
//   6       2     flags — must be zero (reserved)
//   8       4     request id — client-chosen, echoed verbatim in the
//                 response; responses on one connection always arrive in
//                 request order, so the id is a convenience, not a
//                 correlation requirement
//   12      4     body length in bytes (≤ kMaxBody)
//   16      ...   body (type-specific, varint-coded via core/serialize.h)
//   16+len  8     FNV-1a 64 over bytes [0, 16+len)
//
// Bodies reuse the canonical LEB128+zigzag codec of the frozen-image v3
// sections (core::put_uvarint / get_uvarint / zigzag), so a route
// query/response stays a handful of cache lines on the wire — the
// small-message discipline of Lenzen–Patt-Shamir applied to serving.
//
// Failure taxonomy (pinned by test_wire_fuzz): *envelope* errors — bad
// magic, unknown version, nonzero flags, oversized length prefix,
// checksum mismatch — poison the byte stream (there is no way to resync),
// so the server answers with a kError frame and closes the connection.
// *Body* errors — a frame whose envelope and checksum are valid but whose
// payload is malformed (truncated or over-long varints, count lies,
// trailing bytes, out-of-range vertices) — are answered with kError and
// the connection keeps serving. Neither may ever terminate the server.

inline constexpr std::uint32_t kMagic = 0x3157524Eu;  // "NRW1"
inline constexpr std::uint8_t kProtoVersion = 1;
inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::size_t kChecksumBytes = 8;

/// Body-size cap: an honest frame never needs more (kMaxQueriesPerFrame
/// queries at ≤ 10 varint bytes per vertex), and rejecting the length
/// prefix *before* buffering means a forged 2^31 length costs nothing.
inline constexpr std::size_t kMaxBody = 1u << 20;
inline constexpr std::size_t kMaxFrameBytes =
    kHeaderBytes + kMaxBody + kChecksumBytes;

/// Queries per kRoute frame (the client library splits larger batches).
inline constexpr std::size_t kMaxQueriesPerFrame = 1u << 15;

/// Edge events per kUpdate frame (same cap discipline as queries).
inline constexpr std::size_t kMaxUpdatesPerFrame = 1u << 15;

enum class FrameType : std::uint8_t {
  kHello = 1,      // client → server: empty body
  kHelloAck = 2,   // ServerInfo
  kRoute = 3,      // batched route queries
  kRouteAck = 4,   // one Decision per query, submission order
  kLabel = 5,      // uvarint vertex
  kLabelAck = 6,   // the vertex's packed wire label bytes
  kStats = 7,      // empty body
  kStatsAck = 8,   // WireStats
  kUpdate = 9,     // admin: batched edge updates (DESIGN.md §13)
  kUpdateAck = 10, // UpdateAck: the published generation's shape
  // Replication + durability (DESIGN.md §14). A replica subscribes with
  // the highest seq it already holds; the primary acks with its head seq
  // and then *pushes* kRepl frames — first a snapshot catch-up if the
  // replica is behind, then every subsequently applied batch, in apply
  // order. kRepl is the one server-initiated frame type in the protocol;
  // its request id is always 0.
  kSubscribe = 11,     // uvarint have_seq
  kSubscribeAck = 12,  // uvarint head_seq
  kRepl = 13,          // ReplFrame: seq-numbered applied batch (pushed)
  kCheckpoint = 14,    // admin: compact deltas + truncate the WAL (empty)
  kCheckpointAck = 16, // CheckpointAck
  kError = 15,     // uvarint code + message; response to any broken frame
};

enum class ErrorCode : std::uint8_t {
  kNone = 0,
  kBadMagic = 1,
  kBadVersion = 2,
  kBadChecksum = 3,
  kBadLength = 4,   // body length prefix beyond kMaxBody
  kBadFlags = 5,    // reserved flags set
  kBadType = 6,     // unknown or response-only frame type
  kBadBody = 7,     // payload undecodable (varint guard, count lie, tail)
  kBadQuery = 8,    // decodable but out-of-range vertex
  kServerError = 9, // serving-side failure (corrupt image state)
  kDraining = 10,   // server is draining; no new work accepted
  /// Admission control shed this request: the in-flight query budget or
  /// the per-loop pending cap is exhausted (DESIGN.md §12). Recoverable
  /// — the connection stays open — and *retryable*: the error body
  /// carries a retry-after hint (ms), and route/label/stats are
  /// read-only, so resending the identical request is always safe.
  kOverloaded = 11,
  /// The WAL append/fsync for this kUpdate failed (ENOSPC, an I/O error,
  /// or an armed wal.* failpoint): the update was *shed* — no generation
  /// was published, nothing was logged — and the connection stays open;
  /// reads keep serving the old generation (DESIGN.md §14).
  kWalError = 12,
  /// kUpdate sent to a replica: replicas are read-only; updates must go
  /// to the primary. Recoverable; the connection stays open.
  kReadOnly = 13,
};

/// True for errors that poison the byte stream: the server closes the
/// connection after sending the kError frame (see taxonomy above).
inline bool is_fatal(ErrorCode c) {
  return c == ErrorCode::kBadMagic || c == ErrorCode::kBadVersion ||
         c == ErrorCode::kBadChecksum || c == ErrorCode::kBadLength ||
         c == ErrorCode::kBadFlags;
}

/// The FNV-1a 64 the frozen-image format trailer uses, applied per frame.
inline std::uint64_t fnv1a(const std::uint8_t* p, std::size_t len) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// A decoded frame envelope; body bytes are copied out of the stream
/// buffer so the buffer can compact independently of frame lifetime.
struct Frame {
  FrameType type = FrameType::kError;
  std::uint32_t request_id = 0;
  std::vector<std::uint8_t> body;
};

/// Incremental frame parser verdict over a byte-stream prefix.
struct ParseResult {
  enum class Status { kNeedMore, kFrame, kBad };
  Status status = Status::kNeedMore;
  std::size_t consumed = 0;  // bytes to drop from the stream (kFrame only)
  Frame frame;               // valid when status == kFrame
  ErrorCode error = ErrorCode::kNone;  // set when status == kBad
  std::uint32_t request_id = 0;  // best-effort id for the error response
};

/// Examines the stream prefix [data, data+len). Envelope fields are
/// checked as soon as their bytes are available — a bad magic or an
/// oversized length prefix is rejected long before a full frame (or any
/// allocation proportional to the forged length) happens. Never throws.
ParseResult parse_frame(const std::uint8_t* data, std::size_t len);

/// Appends one complete frame (header + body + checksum) to `out`.
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint32_t request_id,
                  std::span<const std::uint8_t> body);

// ------------------------------------------------------- body payloads --
// Encoders append varint fields to a body vector; decoders throw
// std::logic_error (the codec's own guard) on any malformed body,
// including bodies with undecoded trailing bytes. The server maps those
// throws to kBadBody error frames.

/// What kHelloAck carries: enough for a client to size and validate its
/// requests without ever seeing the image.
struct ServerInfo {
  std::uint32_t proto_version = kProtoVersion;
  std::int32_t n = 0;
  std::int32_t k = 0;
  std::uint32_t image_version = 0;  // frozen-format version behind serving
  std::int32_t num_trees = 0;
  std::uint32_t window = 0;  // per-connection in-flight frame window
};

/// What kStatsAck carries — the server's cumulative counters, so tests
/// can pin exact sums over concurrent clients from outside the process.
struct WireStats {
  std::int64_t conns_accepted = 0;
  std::int64_t conns_active = 0;
  std::int64_t frames_in = 0;
  std::int64_t frames_out = 0;
  std::int64_t queries = 0;
  std::int64_t protocol_errors = 0;
  std::int64_t reloads = 0;
  std::int64_t max_inflight = 0;  // high-water in-flight frames, any conn
  std::int64_t p50_ns = 0;        // request latency (parse → response)
  std::int64_t p99_ns = 0;
  // Failure-domain counters (DESIGN.md §12). shed counts route frames
  // rejected with kOverloaded by admission control; timeouts counts
  // connections force-closed because their head request outlived the
  // request deadline; stalls counts connections force-closed by the
  // slow-peer write-stall timer.
  std::int64_t shed = 0;
  std::int64_t timeouts = 0;
  std::int64_t stalls = 0;
  // Live-update counters (DESIGN.md §13): update batches applied and
  // published as generations; answers re-routed after their first-choice
  // path met a failed link; answers that crossed a weight-patched link.
  std::int64_t updates = 0;
  std::int64_t masked = 0;
  std::int64_t repaired = 0;
  // Durability + replication counters (DESIGN.md §14). update_seq is the
  // durable sequence number of the newest published batch; repl_lag is
  // how far this daemon trails the primary it follows (0 when primary or
  // in sync); subscribers counts attached replica streams.
  std::int64_t update_seq = 0;
  std::int64_t wal_records = 0;   // records appended this process
  std::int64_t wal_errors = 0;    // updates shed by a WAL failure
  std::int64_t checkpoints = 0;   // compactions completed
  std::int64_t repl_applied = 0;  // batches applied from a primary
  std::int64_t repl_lag = 0;
  std::int64_t subscribers = 0;
};

/// What kUpdateAck carries: the shape of the delta generation the batch
/// was published as (serve::DeltaStats plus the generation sequence).
struct UpdateAck {
  std::uint64_t seq = 0;           // published generation (base image = 0)
  std::int64_t applied = 0;        // batch events accepted
  std::int64_t unknown_edges = 0;  // batch events naming absent edges
  std::int64_t overrides = 0;      // cumulative patched link directions
  std::int64_t failed_links = 0;   // cumulative failed link directions
  std::int64_t masked_trees = 0;   // trees with >= 1 failed link
};

void encode_route_request(std::vector<std::uint8_t>& body,
                          const serve::Query* queries, std::size_t count);
std::vector<serve::Query> decode_route_request(
    std::span<const std::uint8_t> body);

void encode_route_response(std::vector<std::uint8_t>& body,
                           const serve::Decision* decisions,
                           std::size_t count);
std::vector<serve::Decision> decode_route_response(
    std::span<const std::uint8_t> body);

void encode_hello_ack(std::vector<std::uint8_t>& body, const ServerInfo& i);
ServerInfo decode_hello_ack(std::span<const std::uint8_t> body);

void encode_label_request(std::vector<std::uint8_t>& body, graph::Vertex v);
graph::Vertex decode_label_request(std::span<const std::uint8_t> body);

void encode_label_response(std::vector<std::uint8_t>& body,
                           std::span<const std::uint8_t> label);
std::vector<std::uint8_t> decode_label_response(
    std::span<const std::uint8_t> body);

void encode_stats_ack(std::vector<std::uint8_t>& body, const WireStats& s);
WireStats decode_stats_ack(std::span<const std::uint8_t> body);

/// kUpdate body: uvarint count, then per event a flag (0 = weight,
/// 1 = fail), zigzag u, zigzag v, and — weight events only — the zigzag
/// weight (≥ 0 enforced on decode).
void encode_update_request(std::vector<std::uint8_t>& body,
                           std::span<const serve::EdgeUpdate> updates);
std::vector<serve::EdgeUpdate> decode_update_request(
    std::span<const std::uint8_t> body);

void encode_update_ack(std::vector<std::uint8_t>& body, const UpdateAck& a);
UpdateAck decode_update_ack(std::span<const std::uint8_t> body);

/// What kRepl carries: one applied batch, sequence-numbered, plus the
/// primary's head seq at send time (the replica's lag gauge). A snapshot
/// frame replaces the replica's accumulated delta state instead of
/// layering over it (catch-up and checkpoint squashes); `more` marks a
/// chunked snapshot whose events continue in the next frame at the same
/// seq — the replica buffers until the final chunk.
struct ReplFrame {
  std::uint64_t seq = 0;
  std::uint64_t head_seq = 0;
  bool snapshot = false;
  bool more = false;
  std::vector<serve::EdgeUpdate> events;
};

void encode_repl(std::vector<std::uint8_t>& body, const ReplFrame& f);
ReplFrame decode_repl(std::span<const std::uint8_t> body);

void encode_subscribe(std::vector<std::uint8_t>& body,
                      std::uint64_t have_seq);
std::uint64_t decode_subscribe(std::span<const std::uint8_t> body);

void encode_subscribe_ack(std::vector<std::uint8_t>& body,
                          std::uint64_t head_seq);
std::uint64_t decode_subscribe_ack(std::span<const std::uint8_t> body);

/// What kCheckpointAck carries: the compacted state's shape.
struct CheckpointAck {
  std::uint64_t seq = 0;          // durable seq the checkpoint captured
  std::int64_t squashed = 0;      // override directions in the squash
  std::int64_t image_rebuilt = 0; // 1 if the frozen image was rewritten
  std::int64_t wal_segments = 0;  // segments after truncation (0: no WAL)
};

void encode_checkpoint_ack(std::vector<std::uint8_t>& body,
                           const CheckpointAck& a);
CheckpointAck decode_checkpoint_ack(std::span<const std::uint8_t> body);

void encode_error(std::vector<std::uint8_t>& body, ErrorCode code,
                  const std::string& message);

/// The kOverloaded body: code, then a uvarint retry-after hint (ms),
/// then the message. decode_error() understands both layouts — the hint
/// field exists only when code == kOverloaded, and a truncated or
/// malformed hint throws the codec's std::logic_error like any other
/// bad body (test_wire_fuzz pins this).
void encode_overloaded(std::vector<std::uint8_t>& body,
                       std::uint32_t retry_after_ms,
                       const std::string& message);

struct WireError {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
  std::uint32_t retry_after_ms = 0;  // kOverloaded only
};
WireError decode_error(std::span<const std::uint8_t> body);

}  // namespace nors::net
