#pragma once

// Per-layer replays for the traced run: each function feeds a workload's
// own inputs through one module's public entry point, timed from here —
// nothing inside src/ is instrumented.

#include <string>
#include <vector>

#include "serve/delta.h"
#include "serve/frozen.h"
#include "serve/wal.h"

namespace pb {

struct ReadLayers {
  double route_batch_qps = 0;   // FrozenScheme::route_batch, one thread
  double route_batch_dps = 0;   // next-hop decisions per second
  double avg_hops = 0;
  double cached_qps = 0;        // route_batch_cached, 4096-entry TableCache
  double cache_hit_frac = 0;
  double shard_qps = 0;         // ShardedRouteServer at the daemon geometry
  double shard_handoff_frac = 0;  // 1 − route compute / shard worker wall
  double request_codec_ns = 0;  // encode + parse_frame + decode, per frame
  double response_codec_ns = 0;
};

/// Replays `pool` in frames of `frame_queries` through the read layers,
/// spending about `seconds` on each timed engine.
ReadLayers replay_reads(const nors::serve::FrozenScheme& fs,
                        const std::vector<nors::serve::Query>& pool,
                        int frame_queries, int shards, double seconds);

struct UpdateLayers {
  double delta_apply_us_p50 = 0;  // DeltaSet::apply, chained over batches
  double wal_append_us_p50 = 0;   // Wal::append at the given policy
  double wal_sync_us_p50 = 0;     // Wal::sync
  double server_apply_us_p50 = 0; // in-process Server::apply_updates
  double overlay_qps = 0;         // route_batch_overlay under the final set
  std::int64_t overrides_start = 0, overrides_end = 0;
  std::int64_t failed_start = 0, failed_end = 0;
  std::int64_t masked_start = 0, masked_end = 0;
};

/// Replays the batch sequence through DeltaSet::apply, a Wal in a fresh
/// directory under `workdir`, and an in-process net::Server over the
/// image at `image_path`; then rates the overlay engine on `pool` under
/// the final set. "start" counts are taken after the first tenth of the
/// sequence.
UpdateLayers replay_updates(
    const nors::serve::FrozenScheme& fs, const std::string& image_path,
    const std::vector<std::vector<nors::serve::EdgeUpdate>>& batches,
    const std::vector<nors::serve::Query>& pool,
    nors::serve::FsyncPolicy policy, int shards, const std::string& workdir,
    double seconds);

}  // namespace pb
