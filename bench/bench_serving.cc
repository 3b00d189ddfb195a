// Serving workload (DESIGN.md §5, §8): freeze a constructed scheme into
// flat tables, then rate batched route(u, v) decision queries answered
// purely from the frozen state — queries/sec and decisions/sec (one
// decision = one next-hop port evaluation) single-threaded with and
// without the table cache and across shard counts, plus per-query tail
// latency. The
// load path is measured three ways (owning load, zero-copy mmap, and the
// sharded front-end over the mapped image); the Thorup–Zwick distance
// oracle, frozen the same way, is the sequential-baseline row. The delta
// row drives stationary edge churn through DeltaSet::apply (DESIGN.md
// §13): the per-batch cost of layering live updates over the image. The
// overlay row serves the query stream through route_batch_overlay over
// snapshots of that churn, one link down in each: the share of queries
// answered while a link is failed, and the rate they are answered at.
//
// Runtime knobs (all recorded in the emitted JSON):
//   --shards=K    max shard count of the ShardedRouteServer sweep,
//                 swept 1, 2, 4, ... K (default 4)
//   --cache=C     (vertex, tree) cache entries per worker (default 4096)
//   --seed=S      query-batch RNG seed (default 9)
//   --queries=Q   batch size (default 200000)
//   NORS_BENCH_N  graph size (default 2^14)
//
// Emits BENCH_serving.json (schema: bench/results/README.md).

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "common.h"
#include "core/scheme.h"
#include "serve/delta.h"
#include "serve/frozen.h"
#include "serve/frozen_tz.h"
#include "serve/shard.h"
#include "serve/table_cache.h"
#include "tz/tz_oracle.h"
#include "util/latency.h"

namespace {

using namespace nors;

std::vector<serve::Query> make_queries(int n, std::size_t count,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<serve::Query> qs;
  qs.reserve(count);
  while (qs.size() < count) {
    const auto u =
        static_cast<graph::Vertex>(rng.uniform(static_cast<std::uint64_t>(n)));
    const auto v =
        static_cast<graph::Vertex>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    qs.push_back({u, v});
  }
  return qs;
}

/// Stationary churn over a fixed pool of real links (u < v): each event
/// flips a live link between its frozen weight and twice it; every 64th
/// revives the failed link at its frozen weight and the next fails a new
/// one, so one link is down at almost every batch boundary.
std::vector<std::vector<serve::EdgeUpdate>> churn_batches(
    const graph::WeightedGraph& g, std::size_t pool_links,
    std::size_t batches, std::size_t events, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<serve::EdgeUpdate> pool;  // frozen weights
  for (graph::Vertex u = 0; u < g.n(); ++u) {
    for (const auto& he : g.neighbors(u)) {
      if (he.to > u) pool.push_back(serve::EdgeUpdate::weight(u, he.to, he.w));
    }
  }
  for (std::size_t i = 0; i + 1 < pool.size(); ++i) {  // seeded shuffle
    std::swap(pool[i], pool[i + rng.uniform(pool.size() - i)]);
  }
  pool.resize(std::min(pool.size(), pool_links));
  std::vector<std::uint8_t> doubled(pool.size(), 0);
  std::size_t down = pool.size();  // none
  std::uint64_t event = 0;
  std::vector<std::vector<serve::EdgeUpdate>> out(batches);
  for (auto& batch : out) {
    while (batch.size() < events) {
      const auto i = static_cast<std::size_t>(rng.uniform(pool.size()));
      if (event++ % 64 == 0 && down < pool.size()) {
        batch.push_back(pool[down]);
        down = pool.size();
      } else if (down == pool.size()) {
        down = i;
        doubled[i] = 0;
        batch.push_back(serve::EdgeUpdate::fail(pool[i].u, pool[i].v));
      } else if (i != down) {
        doubled[i] ^= 1;
        batch.push_back(serve::EdgeUpdate::weight(
            pool[i].u, pool[i].v, pool[i].w * (doubled[i] + 1)));
      }
    }
  }
  return out;
}

/// --key=value flags; anything unrecognized aborts with usage.
struct Flags {
  int max_shards = 4;
  int cache = 4096;
  std::uint64_t seed = 9;
  std::size_t queries = 200000;

  static Flags parse(int argc, char** argv) {
    Flags f;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto val = [&a](const char* key) -> const char* {
        const std::size_t len = std::strlen(key);
        return a.compare(0, len, key) == 0 ? a.c_str() + len : nullptr;
      };
      if (const char* v = val("--shards=")) {
        f.max_shards = std::atoi(v);
      } else if (const char* v = val("--cache=")) {
        f.cache = std::atoi(v);
      } else if (const char* v = val("--seed=")) {
        f.seed = std::strtoull(v, nullptr, 10);
      } else if (const char* v = val("--queries=")) {
        f.queries = std::strtoull(v, nullptr, 10);
      } else {
        std::fprintf(stderr,
                     "unknown flag %s\nusage: bench_serving [--shards=K] "
                     "[--cache=C] [--seed=S] [--queries=Q]\n",
                     a.c_str());
        std::exit(2);
      }
    }
    NORS_CHECK_MSG(f.max_shards >= 1 && f.cache >= 0 && f.queries > 0,
                   "bad flag value");
    return f;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  const int n = bench::env_n(1 << 14);
  const int k = 3;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  bench::print_header("serving",
                      "frozen-table route decisions/sec, tail latency, "
                      "save/load/mmap round-trip, sharded front-end");

  bench::JsonReport report("serving");

  // ---- build, freeze, save/load/map -------------------------------------
  const auto g = bench::bench_graph(n, /*seed=*/17);
  std::printf("graph: n=%d m=%lld; building scheme (k=%d)...\n", n,
              static_cast<long long>(g.m()), k);
  core::SchemeParams params;
  params.k = k;
  params.seed = 23;
  bench::WallTimer build_t;
  const auto scheme = core::RoutingScheme::build(g, params);
  const double build_s = build_t.seconds();

  bench::WallTimer freeze_t;
  const auto frozen = serve::FrozenScheme::freeze(scheme);
  const double freeze_s = freeze_t.seconds();

  bench::WallTimer save_t;
  const auto image = frozen.save();
  const double save_s = save_t.seconds();
  bench::WallTimer load_t;
  const auto reloaded = serve::FrozenScheme::load(image);
  const double load_s = load_t.seconds();
  const bool identical = reloaded.save() == image;

  // Zero-copy path: mmap the saved image (startup = checksum + validate).
  const std::string map_path = "bench_serving_tables.frozen";
  frozen.save_file(map_path);
  bench::WallTimer map_t;
  const auto mapped = serve::FrozenScheme::map(map_path);
  const double map_s = map_t.seconds();
  const bool map_identical = mapped.save() == image;

  // Spot-check both reloaded snapshots against the live scheme.
  int spot_checked = 0;
  for (const auto& q : make_queries(n, 200, 5)) {
    const auto live = scheme.route(q.u, q.v);
    const auto snap = reloaded.route(q.u, q.v);
    const auto msnap = mapped.route(q.u, q.v);
    NORS_CHECK_MSG(live.length == snap.length && live.hops == snap.hops,
                   "frozen decision diverged at " << q.u << "->" << q.v);
    NORS_CHECK_MSG(live.length == msnap.length && live.hops == msnap.hops,
                   "mapped decision diverged at " << q.u << "->" << q.v);
    ++spot_checked;
  }

  std::printf(
      "build %.2fs | freeze %.3fs | image %.1f MiB | save %.3fs | load %.3fs "
      "| mmap %.3fs | round-trip %s/%s | %d spot checks ok\n\n",
      build_s, freeze_s, static_cast<double>(image.size()) / (1 << 20),
      save_s, load_s, map_s, identical ? "byte-identical" : "MISMATCH",
      map_identical ? "byte-identical" : "MISMATCH", spot_checked);
  NORS_CHECK_MSG(identical, "save->load->save must be byte-identical");
  NORS_CHECK_MSG(map_identical, "save->map->save must be byte-identical");
  report.row()
      .field("row", std::string("build"))
      .field("n", n)
      .field("m", static_cast<std::int64_t>(g.m()))
      .field("k", k)
      .field("seed", static_cast<std::int64_t>(flags.seed))
      .field("hw_threads", static_cast<std::int64_t>(hw))
      .field("build_s", build_s)
      .field("freeze_s", freeze_s)
      .field("image_bytes", static_cast<std::int64_t>(image.size()))
      .field("save_s", save_s)
      .field("load_s", load_s)
      .field("map_s", map_s)
      .field("format_version", static_cast<std::int64_t>(
                                   serve::FrozenScheme::format_version()))
      .field("roundtrip_identical", identical ? 1 : 0)
      .field("map_identical", map_identical ? 1 : 0)
      .field("spot_checked", spot_checked);

  // ---- single-thread throughput, uncached and cached -------------------
  // The pipelined batch engine on the calling thread over the owning-load
  // snapshot: route_batch() for cache 0, route_batch_cached() with a
  // TableCache of `cache` entries otherwise. Multi-core scaling is the
  // sharded sweep's job below.
  const auto queries = make_queries(n, flags.queries, flags.seed);
  std::vector<serve::Decision> out(queries.size());
  util::TextTable table({"cache", "queries/s", "decisions/s", "avg hops",
                         "cache hit%", "wall s"});
  std::vector<int> cache_settings{0};
  if (flags.cache != 0) cache_settings.push_back(flags.cache);
  for (const int cache : cache_settings) {
    serve::BatchStats bs;
    bench::WallTimer t;
    if (cache == 0) {
      reloaded.route_batch(queries.data(), queries.size(), out.data(), &bs);
    } else {
      serve::TableCache tc(reloaded, cache);
      reloaded.route_batch_cached(queries.data(), queries.size(), out.data(),
                                  tc, &bs);
    }
    const double wall = t.seconds();
    const double qps = static_cast<double>(queries.size()) / wall;
    const double dps = static_cast<double>(bs.hops) / wall;
    const double avg_hops = static_cast<double>(bs.hops) /
                            static_cast<double>(queries.size());
    // The uncached engine counts every slab search as a miss; report a
    // hit rate only when a cache is configured.
    const double hit_rate =
        cache == 0 || bs.cache_hits + bs.cache_misses == 0
            ? 0.0
            : 100.0 * static_cast<double>(bs.cache_hits) /
                  static_cast<double>(bs.cache_hits + bs.cache_misses);
    table.add_row({util::TextTable::fmt(static_cast<std::int64_t>(cache)),
                   util::TextTable::fmt(qps, 0), util::TextTable::fmt(dps, 0),
                   util::TextTable::fmt(avg_hops, 2),
                   util::TextTable::fmt(hit_rate, 1),
                   util::TextTable::fmt(wall, 3)});
    report.row()
        .field("row", std::string("serve"))
        .field("n", n)
        .field("k", k)
        .field("seed", static_cast<std::int64_t>(flags.seed))
        .field("threads", 1)
        .field("cache_entries", cache)
        .field("queries", static_cast<std::int64_t>(queries.size()))
        .field("wall_s", wall)
        .field("qps", qps)
        .field("decisions_per_sec", dps)
        .field("avg_hops", avg_hops)
        .field("cache_hit_pct", hit_rate);
  }
  std::printf("%s\n", table.render().c_str());

  // ---- sharded front-end over the mapped image --------------------------
  // Shards slice the query stream by source vertex; workers (one per shard
  // up to the hardware clamp — both counts are reported) answer through
  // the batch engine with warm caches over the shared zero-copy image.
  // Aggregate decisions/s scales with cores; on a 1-core runner every row
  // runs on one worker and measures dispatch overhead instead.
  {
    util::TextTable stable({"shards", "workers", "queries/s", "decisions/s",
                            "p50 us", "p99 us", "balance", "wall s"});
    for (int shards = 1; shards <= flags.max_shards; shards *= 2) {
      serve::ShardedOptions opt;
      opt.shards = shards;
      opt.cache_entries = flags.cache;
      serve::ShardedRouteServer server(mapped, opt);
      bench::WallTimer t;
      server.serve(queries.data(), queries.size(), out.data());
      const double wall = t.seconds();
      const auto totals = server.totals();
      NORS_CHECK_MSG(totals.queries ==
                         static_cast<std::int64_t>(queries.size()),
                     "sharded stats lost queries");
      const double qps = static_cast<double>(queries.size()) / wall;
      const double dps = static_cast<double>(totals.hops) / wall;
      // Load balance: smallest/largest per-shard query share.
      std::int64_t lo = totals.queries, hi = 0;
      for (int s = 0; s < server.shards(); ++s) {
        const auto st = server.shard_stats(s);
        lo = std::min(lo, st.queries);
        hi = std::max(hi, st.queries);
      }
      const double balance =
          hi == 0 ? 1.0
                  : static_cast<double>(lo) / static_cast<double>(hi);
      stable.add_row(
          {util::TextTable::fmt(static_cast<std::int64_t>(shards)),
           util::TextTable::fmt(static_cast<std::int64_t>(server.workers())),
           util::TextTable::fmt(qps, 0), util::TextTable::fmt(dps, 0),
           util::TextTable::fmt(totals.p50_us, 2),
           util::TextTable::fmt(totals.p99_us, 2),
           util::TextTable::fmt(balance, 2),
           util::TextTable::fmt(wall, 3)});
      report.row()
          .field("row", std::string("sharded"))
          .field("n", n)
          .field("k", k)
          .field("seed", static_cast<std::int64_t>(flags.seed))
          .field("shards", shards)
          .field("workers", server.workers())
          .field("cache_entries", flags.cache)
          .field("mapped", 1)
          .field("queries", static_cast<std::int64_t>(queries.size()))
          .field("wall_s", wall)
          .field("qps", qps)
          .field("decisions_per_sec", dps)
          .field("p50_us", totals.p50_us)
          .field("p99_us", totals.p99_us)
          .field("shard_balance", balance);
    }
    std::printf("sharded front-end over the mmap'ed image (cache %d):\n%s\n",
                flags.cache, stable.render().c_str());
  }

  // ---- tail latency (single thread, per-query timing) -------------------
  // Every query of the stream is clocked into the log2-bucket histogram
  // (util/latency.h, the same path the shards use), so p999 and max come
  // from the full stream rather than a sorted sample; max is exact.
  {
    util::LatencyHistogram hist;
    double max_us = 0;
    for (const auto& q : queries) {
      bench::WallTimer qt;
      const auto d = reloaded.route(q.u, q.v);
      const double us = qt.seconds() * 1e6;
      hist.record_ns(static_cast<std::int64_t>(us * 1e3));
      if (us > max_us) max_us = us;
      NORS_CHECK(d.ok);
    }
    const double p50 = hist.quantile_us(0.5);
    const double p99 = hist.quantile_us(0.99);
    const double p999 = hist.quantile_us(0.999);
    std::printf(
        "latency over %zu queries (full stream): p50 %.2fus  p99 %.2fus  "
        "p99.9 %.2fus  max %.2fus\n",
        queries.size(), p50, p99, p999, max_us);
    report.row()
        .field("row", std::string("latency"))
        .field("n", n)
        .field("k", k)
        .field("seed", static_cast<std::int64_t>(flags.seed))
        .field("sampled", static_cast<std::int64_t>(queries.size()))
        .field("p50_us", p50)
        .field("p99_us", p99)
        .field("p999_us", p999)
        .field("max_us", max_us);
  }

  // ---- frozen TZ distance-oracle baseline -------------------------------
  // Served through the same pipelined batch engine as the scheme, so the
  // gap between the rows is the algorithms', not the engines'.
  {
    tz::TzDistanceOracle::Params tp;
    tp.k = k;
    tp.seed = 29;
    const auto oracle = tz::TzDistanceOracle::build(g, tp);
    const auto ftz = serve::FrozenTzOracle::freeze(oracle, n);
    std::vector<serve::FrozenTzOracle::Result> results(queries.size());
    bench::WallTimer t;
    ftz.query_batch(queries.data(), queries.size(), results.data());
    const double wall = t.seconds();
    std::int64_t sink = 0;
    for (const auto& r : results) sink += r.estimate;
    const double qps = static_cast<double>(queries.size()) / wall;
    std::printf(
        "baseline: frozen TZ distance oracle %.0f queries/s (%.1f MiB flat, "
        "checksum %lld)\n",
        qps, static_cast<double>(ftz.byte_size()) / (1 << 20),
        static_cast<long long>(sink % 1000));
    report.row()
        .field("row", std::string("baseline_tz_oracle"))
        .field("n", n)
        .field("k", k)
        .field("queries", static_cast<std::int64_t>(queries.size()))
        .field("qps", qps)
        .field("frozen_bytes", ftz.byte_size());
  }

  // ---- live updates: stationary churn through DeltaSet::apply ----------
  // 64-event batches over a 4096-link pool with one link down, chained
  // the way net::Server publishes generations. The first batches bring
  // the override set to its steady size untimed; each timed apply pays
  // one flat copy of its predecessor plus O(1) per event. Every
  // kTimed / kSnapshots-th generation is kept for the overlay row.
  constexpr std::size_t kSnapshots = 8;
  std::vector<std::shared_ptr<const serve::DeltaSet>> snapshots;
  {
    constexpr std::size_t kEvents = 64, kPool = 4096, kWarm = 512,
                          kTimed = 4096;
    const auto batches =
        churn_batches(g, kPool, kWarm + kTimed, kEvents, flags.seed);
    std::shared_ptr<const serve::DeltaSet> cur;
    for (std::size_t b = 0; b < kWarm; ++b) {
      cur = serve::DeltaSet::apply(mapped, cur.get(), batches[b]);
    }
    std::vector<double> apply_us;
    apply_us.reserve(kTimed);
    bench::WallTimer total;
    for (std::size_t b = kWarm; b < kWarm + kTimed; ++b) {
      bench::WallTimer t;
      auto next = serve::DeltaSet::apply(mapped, cur.get(), batches[b]);
      apply_us.push_back(t.seconds() * 1e6);
      cur = std::move(next);
      if ((b - kWarm) % (kTimed / kSnapshots) == 0) snapshots.push_back(cur);
    }
    const double wall = total.seconds();
    std::sort(apply_us.begin(), apply_us.end());
    const double p50 = apply_us[apply_us.size() / 2];
    const double p99 = apply_us[apply_us.size() * 99 / 100];
    const double bps = static_cast<double>(kTimed) / wall;
    std::printf(
        "delta: %zu x %zu-event batches: apply p50 %.1fus  p99 %.1fus  "
        "%.0f batches/s | %lld overrides, %lld failed, %lld masked, "
        "%zu bytes\n",
        kTimed, kEvents, p50, p99, bps,
        static_cast<long long>(cur->override_count()),
        static_cast<long long>(cur->failed_link_count()),
        static_cast<long long>(cur->masked_tree_count()), cur->byte_size());
    report.row()
        .field("row", std::string("delta"))
        .field("n", n)
        .field("k", k)
        .field("seed", static_cast<std::int64_t>(flags.seed))
        .field("hw_threads", static_cast<std::int64_t>(hw))
        .field("pool_links", static_cast<std::int64_t>(kPool))
        .field("events_per_batch", static_cast<std::int64_t>(kEvents))
        .field("batches", static_cast<std::int64_t>(kTimed))
        .field("apply_p50_us", p50)
        .field("apply_p99_us", p99)
        .field("batches_per_sec", bps)
        .field("overrides", cur->override_count())
        .field("failed_links", cur->failed_link_count())
        .field("masked_trees", cur->masked_tree_count())
        .field("delta_bytes", static_cast<std::int64_t>(cur->byte_size()));
  }

  // ---- serving through the churn: route_batch_overlay ------------------
  // Slice j of the query stream is answered over snapshot j (one failed
  // link each, ~4000 repriced ones), single thread, no table cache. A
  // query is refused only when every candidate tree's path to its
  // destination crosses the failed link (DESIGN.md §13.2).
  {
    serve::BatchStats bs;
    serve::NoTableCache none;
    const std::size_t slice = queries.size() / snapshots.size();
    bench::WallTimer t;
    for (std::size_t j = 0; j < snapshots.size(); ++j) {
      mapped.route_batch_overlay(queries.data() + j * slice, slice,
                                 out.data() + j * slice, none, *snapshots[j],
                                 &bs);
    }
    const double wall = t.seconds();
    const std::size_t served = slice * snapshots.size();
    NORS_CHECK_MSG(bs.completed == static_cast<std::int64_t>(served),
                   "overlay row lost queries");
    const double q = static_cast<double>(served);
    const double answered_frac =
        static_cast<double>(std::count_if(
            out.begin(), out.begin() + static_cast<std::ptrdiff_t>(served),
            [](const serve::Decision& d) { return d.ok; })) /
        q;
    const double rerouted_frac = static_cast<double>(bs.masked) / q;
    const double qps = q / wall;
    double failed_links = 0, masked_trees = 0;  // per-snapshot means
    for (const auto& s : snapshots) {
      failed_links += static_cast<double>(s->failed_link_count()) / kSnapshots;
      masked_trees += static_cast<double>(s->masked_tree_count()) / kSnapshots;
    }
    std::printf(
        "overlay: %zu queries over %zu churn snapshots (%.1f failed link "
        "directions, %.1f masked trees each): answered %.4f  re-routed "
        "%.4f  %.0f queries/s\n",
        served, snapshots.size(), failed_links, masked_trees, answered_frac,
        rerouted_frac, qps);
    report.row()
        .field("row", std::string("overlay"))
        .field("n", n)
        .field("k", k)
        .field("seed", static_cast<std::int64_t>(flags.seed))
        .field("hw_threads", static_cast<std::int64_t>(hw))
        .field("snapshots", static_cast<std::int64_t>(snapshots.size()))
        .field("queries", static_cast<std::int64_t>(served))
        .field("failed_links_mean", failed_links)
        .field("masked_trees_mean", masked_trees)
        .field("answered_frac", answered_frac)
        .field("rerouted_frac", rerouted_frac)
        .field("qps", qps);
  }

  std::remove(map_path.c_str());
  report.write();
  return 0;
}
