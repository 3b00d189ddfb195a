#include "layers.h"

#include <filesystem>
#include <memory>

#include "common.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/shard.h"
#include "serve/table_cache.h"
#include "util/check.h"

namespace pb {

namespace serve = nors::serve;
namespace net = nors::net;

namespace {

/// Runs `step(offset, count)` over consecutive `chunk`-sized slices of a
/// pool of `pool_size` queries until `seconds` have passed; returns
/// {queries, wall seconds}.
template <typename Step>
std::pair<std::int64_t, double> timed_passes(std::size_t pool_size,
                                             std::size_t chunk, double seconds,
                                             Step&& step) {
  const double t0 = now_s();
  std::int64_t done = 0;
  std::size_t off = 0;
  double t = t0;
  do {
    step(off, chunk);
    done += static_cast<std::int64_t>(chunk);
    off = (off + chunk) % pool_size;
    t = now_s();
  } while (t - t0 < seconds);
  return {done, t - t0};
}

}  // namespace

ReadLayers replay_reads(const serve::FrozenScheme& fs,
                        const std::vector<serve::Query>& pool,
                        int frame_queries, int shards, double seconds) {
  ReadLayers r;
  constexpr std::size_t kChunk = 4096;
  NORS_CHECK_MSG(pool.size() % kChunk == 0, "pool must be chunk-aligned");
  std::vector<serve::Decision> out(kChunk);

  {
    serve::BatchStats st;
    const auto [q, wall] =
        timed_passes(pool.size(), kChunk, seconds, [&](std::size_t off,
                                                       std::size_t n) {
          fs.route_batch(pool.data() + off, n, out.data(), &st);
        });
    r.route_batch_qps = static_cast<double>(q) / wall;
    r.route_batch_dps = static_cast<double>(st.hops) / wall;
    r.avg_hops = static_cast<double>(st.hops) / static_cast<double>(q);
  }
  {
    serve::TableCache cache(fs, 4096);
    serve::BatchStats st;
    const auto [q, wall] =
        timed_passes(pool.size(), kChunk, seconds, [&](std::size_t off,
                                                       std::size_t n) {
          fs.route_batch_cached(pool.data() + off, n, out.data(), cache, &st);
        });
    r.cached_qps = static_cast<double>(q) / wall;
    const auto probes = st.cache_hits + st.cache_misses;
    r.cache_hit_frac = probes > 0 ? static_cast<double>(st.cache_hits) /
                                        static_cast<double>(probes)
                                  : 0;
  }
  {
    // The daemon's geometry: frames of the workload's size, 32 in flight
    // (4 connections × 8), through the shards' async submit.
    serve::ShardedRouteServer srv(fs, {.shards = shards, .cache_entries = 4096});
    constexpr std::size_t kInflight = 32;
    const auto fq = static_cast<std::size_t>(frame_queries);
    std::vector<serve::ShardedRouteServer::Batch> tickets(kInflight);
    std::vector<std::vector<serve::Decision>> outs(
        kInflight, std::vector<serve::Decision>(fq));
    std::size_t slot = 0;
    const auto [q, wall] = timed_passes(
        pool.size(), fq, seconds, [&](std::size_t off, std::size_t n) {
          tickets[slot].wait();
          tickets[slot] = srv.submit(pool.data() + off, n, outs[slot].data());
          slot = (slot + 1) % kInflight;
        });
    for (auto& t : tickets) t.wait();
    r.shard_qps = static_cast<double>(q) / wall;
    // Compute the same queries would cost on the cached engine, spread
    // over the shard workers' wall time; the rest is partition, queue
    // handoff and idle.
    const double compute_s = static_cast<double>(q) / r.cached_qps;
    r.shard_handoff_frac =
        1.0 - compute_s / (wall * static_cast<double>(srv.workers()));
  }
  {
    const auto fq = static_cast<std::size_t>(frame_queries);
    std::vector<std::uint8_t> body, frame;
    std::int64_t frames = 0;
    const double t0 = now_s();
    std::size_t off = 0;
    while (now_s() - t0 < seconds / 4) {
      for (int i = 0; i < 256; ++i, ++frames) {
        body.clear();
        frame.clear();
        net::encode_route_request(body, pool.data() + off, fq);
        net::append_frame(frame, net::FrameType::kRoute, 1, body);
        const auto pr = net::parse_frame(frame.data(), frame.size());
        const auto back = net::decode_route_request(pr.frame.body);
        NORS_CHECK(back.size() == fq);
        off = (off + fq) % pool.size();
      }
    }
    r.request_codec_ns = (now_s() - t0) * 1e9 / static_cast<double>(frames);

    std::vector<serve::Decision> ds(fq);
    fs.route_batch(pool.data(), fq, ds.data());
    frames = 0;
    const double t1 = now_s();
    while (now_s() - t1 < seconds / 4) {
      for (int i = 0; i < 256; ++i, ++frames) {
        body.clear();
        frame.clear();
        net::encode_route_response(body, ds.data(), fq);
        net::append_frame(frame, net::FrameType::kRouteAck, 1, body);
        const auto pr = net::parse_frame(frame.data(), frame.size());
        const auto back = net::decode_route_response(pr.frame.body);
        NORS_CHECK(back.size() == fq);
      }
    }
    r.response_codec_ns = (now_s() - t1) * 1e9 / static_cast<double>(frames);
  }
  return r;
}

UpdateLayers replay_updates(
    const serve::FrozenScheme& fs, const std::string& image_path,
    const std::vector<std::vector<serve::EdgeUpdate>>& batches,
    const std::vector<serve::Query>& pool, serve::FsyncPolicy policy,
    int shards, const std::string& workdir, double seconds) {
  UpdateLayers r;
  const std::size_t start_at = batches.size() / 10;

  std::shared_ptr<const serve::DeltaSet> cur;
  {
    std::vector<double> us;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const std::int64_t t0 = now_ns();
      auto next = serve::DeltaSet::apply(fs, cur.get(), batches[b]);
      us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      cur = std::move(next);
      if (b + 1 == start_at) {
        r.overrides_start = cur->override_count();
        r.failed_start = cur->failed_link_count();
        r.masked_start = cur->masked_tree_count();
      }
    }
    r.delta_apply_us_p50 = median(us);
    if (cur) {
      r.overrides_end = cur->override_count();
      r.failed_end = cur->failed_link_count();
      r.masked_end = cur->masked_tree_count();
    }
  }
  {
    const std::string dir = workdir + "/replay-wal";
    std::filesystem::remove_all(dir);
    std::vector<double> append_us, sync_us;
    {
      serve::Wal wal(dir, {.fsync = policy}, [](const serve::WalRecord&) {});
      for (std::size_t b = 0; b < batches.size(); ++b) {
        const std::int64_t t0 = now_ns();
        wal.append(b + 1, false, batches[b]);
        const std::int64_t t1 = now_ns();
        append_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        if (b % 16 == 15) {
          wal.sync();
          sync_us.push_back(static_cast<double>(now_ns() - t1) * 1e-3);
        }
      }
    }
    std::filesystem::remove_all(dir);
    r.wal_append_us_p50 = median(append_us);
    r.wal_sync_us_p50 = median(sync_us);
  }
  {
    net::NetServerOptions opt;
    opt.shards = shards;
    opt.cache_entries = 4096;
    net::Server srv(serve::FrozenScheme::map(image_path), opt);
    std::vector<double> us;
    for (const auto& b : batches) {
      const std::int64_t t0 = now_ns();
      srv.apply_updates(b);
      us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    }
    srv.drain();
    r.server_apply_us_p50 = median(us);
  }
  if (cur) {
    constexpr std::size_t kChunk = 4096;
    std::vector<serve::Decision> out(kChunk);
    serve::NoTableCache none;
    const auto [q, wall] =
        timed_passes(pool.size(), kChunk, seconds, [&](std::size_t off,
                                                       std::size_t n) {
          fs.route_batch_overlay(pool.data() + off, n, out.data(), none, *cur);
        });
    r.overlay_qps = static_cast<double>(q) / wall;
  }
  return r;
}

}  // namespace pb
