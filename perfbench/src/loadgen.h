#pragma once

// The benchmark's load generator: ONE thread multiplexing every
// connection to a net::Server over raw non-blocking sockets and the
// public net/wire.h codec. Closed loop (a fixed number of frames in flight
// per connection) or open loop (frames due on a fixed schedule, latency
// timed from the due time), with an optional open-loop kUpdate stream on
// a dedicated connection.

#include <cstdint>
#include <vector>

#include "net/wire.h"
#include "serve/delta.h"
#include "serve/frozen.h"

namespace pb {

struct LoadSpec {
  const std::vector<nors::serve::Query>* pool = nullptr;  // cycled
  int conns = 4;
  int frame_queries = 64;
  int depth = 8;          // closed loop: frames in flight per connection
  double read_qps = 0;    // > 0: open loop at this query rate
  /// Update batches, sent in order on their own connection at
  /// `update_rate` batches/s (open loop); empty = read-only.
  const std::vector<std::vector<nors::serve::EdgeUpdate>>* updates = nullptr;
  double update_rate = 0;
  double warmup_s = 1;
  double window_s = 5;
  double sub_s = 1;               // sub-window length (see SubWindow)
  int steal_cpu = -1;             // CPU whose steal share each sub-window
                                  // records (-1: all CPUs)
  double drain_timeout_s = 10;
  double query_limit_us = 1e9;   // on-time limit per read frame
  double update_limit_us = 1e9;  // on-time limit per update ack
  bool spans = false;            // keep the per-frame span log
};

/// One read frame's span, recorded only with LoadSpec::spans.
struct FrameSpan {
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
};

/// The measured window is cut into sub-windows of `LoadSpec::sub_s`;
/// a frame belongs to the one holding its due time (closed loop: its
/// completion time), an update to the one holding its due time.
struct SubWindow {
  std::int64_t queries_attempted = 0;
  std::int64_t queries_answered = 0;
  std::int64_t queries_ok = 0;
  std::int64_t queries_ontime = 0;  // ok and frame latency ≤ limit
  std::vector<double> frame_us;     // per-frame latency from due time
  std::int64_t updates_attempted = 0;
  std::int64_t updates_ontime = 0;
  std::vector<double> ack_us;       // ack latency from due time
  double steal_frac = 0;            // hypervisor steal share on steal_cpu
};

struct LoadResult {
  double sub_s = 0;
  std::vector<SubWindow> subs;
  std::vector<double> late_us;      // open loop: send − due, window frames
  std::vector<FrameSpan> spans;
  // ---- whole run (warm-up and drain included) ----
  std::uint64_t queries_sent = 0;   // query indices [0, queries_sent)
  std::uint64_t digest = 0;         // Σ digest_term over every answer
  std::int64_t error_frames = 0;    // kError of any code
  std::int64_t unanswered = 0;      // still in flight at drain timeout
  std::int64_t updates_acked = 0;
  std::int64_t update_errors = 0;
  nors::net::UpdateAck first_window_ack;
  nors::net::UpdateAck last_ack;
};

/// Drives the server on 127.0.0.1:`port` per `spec`. Throws on socket
/// failures; protocol-level failures are counted in the result.
LoadResult run_load(int port, const LoadSpec& spec);

}  // namespace pb
