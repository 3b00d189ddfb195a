// Serving walkthrough: build the routing scheme once, freeze it into flat
// tables, save them to disk, load them back (as a restarted server would —
// both the owning load and the zero-copy mmap), and answer batches of
// route queries from the frozen state alone — no graph object, no rebuild,
// finally through the sharded front-end that scales serving across cores.
//
//   $ ./examples/route_server
//
// The steps below are the whole serving life cycle (DESIGN.md §5, §8).
// Every check the walkthrough prints is also its exit status: any "NO"
// makes it return non-zero.

#include <cstdio>

#include "core/scheme.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "serve/frozen.h"
#include "serve/shard.h"
#include "serve/table_cache.h"

int main() {
  using namespace nors;

  // 1. Construct: a 256-router network and the k=3 scheme on it. This is
  //    the expensive, run-once part.
  util::Rng rng(7);
  const auto g =
      graph::connected_gnm(256, 768, graph::WeightSpec::uniform(1, 20), rng);
  core::SchemeParams params;
  params.k = 3;
  params.seed = 42;
  const auto scheme = core::RoutingScheme::build(g, params);
  std::printf("built: n=%d, %zu cluster trees, %lld construction rounds\n",
              g.n(), scheme.trees().size(),
              static_cast<long long>(scheme.total_rounds()));

  // 2. Freeze: snapshot tables, labels, trick slabs and the link map into
  //    flat arrays. The scheme and graph could be destroyed after this.
  const auto frozen = serve::FrozenScheme::freeze(scheme);
  std::printf("frozen: %.1f KiB of flat serving state\n",
              static_cast<double>(frozen.byte_size()) / 1024.0);

  // 3. Save: versioned binary image (magic, version, endianness tag,
  //    checksum), so tables built once serve forever.
  const std::string path = "routing_tables.frozen";
  frozen.save_file(path);

  // 4. Load: what a freshly started server process does. Two ways:
  //    load_file() copies the slabs onto the heap (portable fallback);
  //    map() mmaps the image and serves straight from the page cache —
  //    zero-copy startup, ideal when many server processes share one
  //    table file.
  const auto tables = serve::FrozenScheme::load_file(path);
  const auto mapped = serve::FrozenScheme::map(path);
  const auto image = frozen.save();
  const bool reload_ok = tables.save() == image;
  const bool map_ok = mapped.save() == image;
  std::printf("reloaded %s (byte-identical: %s; mmap byte-identical: %s)\n",
              path.c_str(), reload_ok ? "yes" : "NO", map_ok ? "yes" : "NO");

  // 5. Serve: a batch of decision queries, answered purely from the
  //    frozen tables by the pipelined batch engine on this thread, with a
  //    small (vertex, tree) lookup cache.
  std::vector<serve::Query> batch;
  util::Rng qrng(99);
  for (int i = 0; i < 10000; ++i) {
    batch.push_back({static_cast<graph::Vertex>(qrng.uniform(256)),
                     static_cast<graph::Vertex>(qrng.uniform(256))});
  }
  std::vector<serve::Decision> answers(batch.size());
  serve::TableCache cache(tables, 1024);
  serve::BatchStats stats;
  tables.route_batch_cached(batch.data(), batch.size(), answers.data(), cache,
                            &stats);
  std::printf("served %lld queries, %lld next-hop decisions, "
              "cache hit rate %.1f%%\n",
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.hops),
              100.0 * static_cast<double>(stats.cache_hits) /
                  static_cast<double>(stats.cache_hits + stats.cache_misses));

  // One decision in detail, checked against the true distance.
  const auto& q = batch[0];
  const auto exact = graph::pair_distance(g, q.u, q.v);
  std::printf("route %d -> %d: length %lld over %d hops "
              "(shortest %lld, stretch %.2f), level-%d tree of %d%s\n",
              q.u, q.v, static_cast<long long>(answers[0].length),
              answers[0].hops, static_cast<long long>(exact),
              static_cast<double>(answers[0].length) /
                  static_cast<double>(exact),
              answers[0].tree_level, answers[0].tree_root,
              answers[0].via_trick ? " (via 4k-5 trick)" : "");

  // What a connecting peer would receive: the destination's wire label.
  std::printf("wire label of %d: %zu bytes\n", q.v,
              tables.label_blob(q.v).size());

  // 6. Scale out: the sharded front-end partitions the vertex space into
  //    contiguous ranges, one worker thread per shard, all serving the
  //    same mmap'ed image. Answers are identical to step 5 and land in
  //    submission order; per-shard counters show the traffic split.
  serve::ShardedOptions sopt;
  sopt.shards = 2;
  sopt.cache_entries = 1024;
  serve::ShardedRouteServer sharded(mapped, sopt);
  std::vector<serve::Decision> sharded_answers;
  sharded.serve(batch, sharded_answers);
  bool same = sharded_answers.size() == answers.size();
  for (std::size_t i = 0; same && i < answers.size(); ++i) {
    same = sharded_answers[i].length == answers[i].length &&
           sharded_answers[i].hops == answers[i].hops;
  }
  std::printf("sharded x%d over mmap: identical answers: %s\n",
              sharded.shards(), same ? "yes" : "NO");
  for (int s = 0; s < sharded.shards(); ++s) {
    const auto st = sharded.shard_stats(s);
    std::printf("  shard %d: %lld queries, %lld decisions, p50 %.1fus "
                "p99 %.1fus\n",
                s, static_cast<long long>(st.queries),
                static_cast<long long>(st.hops), st.p50_us, st.p99_us);
  }

  std::remove(path.c_str());
  return reload_ok && map_ok && same ? 0 : 1;
}
