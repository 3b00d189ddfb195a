// Live-table tests (DESIGN.md §13): the DeltaSet journal layer over a
// frozen image. Covered here: exact masking (a failed edge masks
// precisely the cluster trees routing across it), in-place weight repair
// (served lengths charge the overridden weights along the unchanged
// frozen route), revive-by-reweight unmasking, path-exact failure
// handling (a pair is re-routed only when its own first-choice path
// crosses a failed link, identically on every serving path), a
// differential model test of chained applies against a one-batch
// reference (including the probe table's no-ratchet capacity bound),
// journal parsing, the sharded submit path with a delta attached, the
// stretch bound on the *updated* graph, and the update-while-serving
// wire stress: ≥10k journaled updates applied through kUpdate admin
// frames while four pipelined clients query continuously. CI runs this
// under ASan+UBSan and TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/scheme.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/delta.h"
#include "serve/frozen.h"
#include "serve/shard.h"
#include "serve/table_cache.h"
#include "util/random.h"

namespace nors {
namespace {

using graph::Vertex;
using serve::Decision;
using serve::DeltaSet;
using serve::EdgeUpdate;
using serve::Query;

graph::WeightedGraph test_graph(int n, std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::connected_gnm(n, 3LL * n, graph::WeightSpec::uniform(1, 16),
                              rng);
}

core::RoutingScheme build_scheme(const graph::WeightedGraph& g, int k,
                                 std::uint64_t seed) {
  core::SchemeParams p;
  p.k = k;
  p.seed = seed;
  return core::RoutingScheme::build(g, p);
}

std::vector<Query> random_queries(int n, std::size_t count,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Query> qs;
  qs.reserve(count);
  while (qs.size() < count) {
    const auto u = static_cast<Vertex>(
        rng.uniform(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<Vertex>(
        rng.uniform(static_cast<std::uint64_t>(n)));
    if (u != v) qs.push_back({u, v});
  }
  return qs;
}

using EdgeKey = std::pair<Vertex, Vertex>;

EdgeKey key_of(Vertex u, Vertex v) { return {std::min(u, v), std::max(u, v)}; }

/// All undirected edges of g, each once, with its weight.
std::vector<std::pair<EdgeKey, graph::Dist>> all_edges(
    const graph::WeightedGraph& g) {
  std::vector<std::pair<EdgeKey, graph::Dist>> out;
  for (Vertex u = 0; u < g.n(); ++u) {
    for (const auto& he : g.neighbors(u)) {
      if (he.to > u) out.push_back({{u, he.to}, he.w});
    }
  }
  return out;
}

/// The edge-state view a batch sequence leaves behind: weight per edge,
/// EdgeUpdate::kFail ⟺ failed. Later events override earlier ones, like
/// DeltaSet::apply.
using EdgeState = std::map<EdgeKey, graph::Dist>;

void fold_batch(EdgeState& state, const std::vector<EdgeUpdate>& batch) {
  for (const auto& e : batch) state[key_of(e.u, e.v)] = e.w;
}

/// Rebuilds g with `state` applied — the ground-truth graph the served
/// answers are measured against.
graph::WeightedGraph updated_graph(const graph::WeightedGraph& g,
                                   const EdgeState& state) {
  graph::WeightedGraph out(g.n());
  for (const auto& [key, w] : all_edges(g)) {
    graph::Dist use = w;
    if (const auto it = state.find(key); it != state.end()) use = it->second;
    if (use == EdgeUpdate::kFail) continue;
    out.add_edge(key.first, key.second, use);
  }
  out.freeze();
  return out;
}

/// The length of the walked path under the updated edge weights; fails the
/// test if the path crosses a failed edge.
graph::Dist path_length(const graph::WeightedGraph& g, const EdgeState& state,
                        const std::vector<Vertex>& path) {
  graph::Dist len = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const EdgeKey key = key_of(path[i], path[i + 1]);
    graph::Dist w = graph::kDistInf;
    if (const auto it = state.find(key); it != state.end()) {
      w = it->second;
    } else {
      for (const auto& he : g.neighbors(path[i])) {
        if (he.to == path[i + 1]) {
          w = he.w;
          break;
        }
      }
    }
    EXPECT_NE(w, EdgeUpdate::kFail)
        << "served path crosses failed edge " << key.first << "-"
        << key.second;
    len = graph::dist_add(len, w);
  }
  return len;
}

/// True when `path` crosses an edge `state` marks failed.
bool crosses_failure(const EdgeState& state, const std::vector<Vertex>& path) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const auto it = state.find(key_of(path[i], path[i + 1]));
    if (it != state.end() && it->second == EdgeUpdate::kFail) return true;
  }
  return false;
}

/// Reference mask of a set of failed edges: tree T contains edge {a, b}
/// iff some table slab entry of a or b points back across it
/// (parent_port at subtree members, up_port at subtree roots).
std::set<std::int32_t> reference_mask(const serve::FrozenScheme& fs,
                                      const std::vector<EdgeKey>& failed) {
  std::set<std::int32_t> out;
  const auto tables = fs.tables();
  const auto table_tree = fs.table_tree();
  const auto table_off = fs.table_off();
  for (const auto& [a, b] : failed) {
    for (const Vertex x : {a, b}) {
      const std::int32_t port = fs.find_port(x, x == a ? b : a);
      EXPECT_GE(port, 0);
      for (std::int64_t i = table_off[static_cast<std::size_t>(x)];
           i < table_off[static_cast<std::size_t>(x) + 1]; ++i) {
        const auto& slot = tables[static_cast<std::size_t>(i)];
        if (slot.parent_port == port || slot.up_port == port) {
          out.insert(table_tree[static_cast<std::size_t>(i)]);
        }
      }
    }
  }
  return out;
}

// ---- overlay semantics --------------------------------------------------

TEST(DeltaSet, EmptyBatchBumpsSeqAndPatchesNothing) {
  const auto g = test_graph(60, 901);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 2, 7));
  serve::DeltaStats st;
  const auto ds = DeltaSet::apply(fs, nullptr, {}, &st);
  EXPECT_EQ(ds->seq(), 1u);
  EXPECT_EQ(st.applied, 0);
  EXPECT_EQ(ds->override_count(), 0);
  EXPECT_EQ(ds->masked_tree_count(), 0);
  graph::Dist w = 0;
  for (std::int64_t link = 0; link < 40; ++link) {
    EXPECT_EQ(ds->link_patch(link, w), serve::LinkPatch::kNone);
  }
  for (std::int32_t t = 0; t < fs.num_trees(); ++t) {
    EXPECT_FALSE(ds->tree_masked(t));
  }
}

TEST(DeltaSet, WeightOverridesChargeNewWeightsExactly) {
  const auto g = test_graph(100, 907);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 3, 11));

  // Double the weight of every 17th edge.
  const auto edges = all_edges(g);
  std::vector<EdgeUpdate> batch;
  for (std::size_t i = 0; i < edges.size(); i += 17) {
    batch.push_back(EdgeUpdate::weight(edges[i].first.first,
                                       edges[i].first.second,
                                       edges[i].second * 2));
  }
  EdgeState state;
  fold_batch(state, batch);

  serve::DeltaStats st;
  const auto ds = DeltaSet::apply(fs, nullptr, batch, &st);
  EXPECT_EQ(st.applied, static_cast<std::int64_t>(batch.size()));
  EXPECT_EQ(st.unknown_edges, 0);
  EXPECT_EQ(ds->override_count(),
            static_cast<std::int64_t>(2 * batch.size()));  // both directions
  EXPECT_EQ(ds->masked_tree_count(), 0);

  // No masking, so the walk takes the *same* frozen route and only the
  // charged lengths may differ — exactly by the overridden weights.
  for (const auto& q : random_queries(g.n(), 400, 911)) {
    std::vector<Vertex> path;
    const auto base = fs.route(q.u, q.v, &path);
    serve::OverlayTouch touch;
    std::vector<Vertex> opath;
    const auto over = fs.route_overlay(q.u, q.v, *ds, &touch, &opath);
    ASSERT_EQ(over.ok, base.ok);
    if (!base.ok) continue;
    EXPECT_EQ(opath, path);
    EXPECT_EQ(over.hops, base.hops);
    EXPECT_EQ(over.tree_root, base.tree_root);
    EXPECT_FALSE(touch.fell_back);
    const auto want = path_length(g, state, path);
    EXPECT_EQ(over.length, want) << q.u << "->" << q.v;
    bool crossed = false;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      crossed = crossed || state.count(key_of(path[i], path[i + 1])) > 0;
    }
    EXPECT_EQ(touch.repaired, crossed) << q.u << "->" << q.v;
  }
}

TEST(DeltaSet, RestoringFrozenWeightsConvergesToEmpty) {
  const auto g = test_graph(80, 919);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 2, 13));
  const auto edges = all_edges(g);

  std::vector<EdgeUpdate> change, undo;
  for (std::size_t i = 0; i < edges.size(); i += 11) {
    change.push_back(EdgeUpdate::weight(
        edges[i].first.first, edges[i].first.second, edges[i].second + 5));
    undo.push_back(EdgeUpdate::weight(edges[i].first.first,
                                      edges[i].first.second,
                                      edges[i].second));
  }
  const auto ds1 = DeltaSet::apply(fs, nullptr, change);
  EXPECT_GT(ds1->override_count(), 0);
  const auto ds2 = DeltaSet::apply(fs, ds1.get(), undo);
  EXPECT_EQ(ds2->seq(), 2u);
  EXPECT_EQ(ds2->override_count(), 0)
      << "a journal that undoes itself must converge to an empty set";
  EXPECT_EQ(ds2->masked_tree_count(), 0);
}

TEST(DeltaSet, FailureMasksExactlyTheTreesCrossingTheLink) {
  const auto g = test_graph(110, 929);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 3, 17));
  const auto edges = all_edges(g);
  util::Rng rng(931);

  int masked_cases = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const auto& [key, w] = edges[rng.uniform(edges.size())];
    const auto [a, b] = key;
    const std::vector<EdgeUpdate> fail_batch{EdgeUpdate::fail(a, b)};
    const auto ds = DeltaSet::apply(fs, nullptr, fail_batch);
    const auto expect_masked = reference_mask(fs, {key});

    EXPECT_EQ(ds->masked_tree_count(),
              static_cast<std::int64_t>(expect_masked.size()));
    for (std::int32_t t = 0; t < fs.num_trees(); ++t) {
      EXPECT_EQ(ds->tree_masked(t), expect_masked.count(t) > 0)
          << "tree " << t << " vs failed edge " << a << "-" << b;
    }
    if (!expect_masked.empty()) ++masked_cases;
  }
  EXPECT_GT(masked_cases, 0) << "trials never hit a tree edge";
}

TEST(DeltaSet, ReviveByReweightUnmasks) {
  const auto g = test_graph(100, 937);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 2, 19));
  const auto edges = all_edges(g);
  util::Rng rng(941);

  // Find an edge whose failure masks at least one tree.
  for (int trial = 0; trial < 64; ++trial) {
    const auto& [key, w] = edges[rng.uniform(edges.size())];
    const auto [a, b] = key;
    const std::vector<EdgeUpdate> fail_batch{EdgeUpdate::fail(a, b)};
    const auto failed = DeltaSet::apply(fs, nullptr, fail_batch);
    if (failed->masked_tree_count() == 0) continue;

    const std::vector<EdgeUpdate> revive_batch{EdgeUpdate::weight(a, b, w + 3)};
    const auto revived = DeltaSet::apply(fs, failed.get(), revive_batch);
    EXPECT_EQ(revived->failed_link_count(), 0);
    EXPECT_EQ(revived->masked_tree_count(), 0)
        << "reviving the only failed edge must unmask every tree";
    EXPECT_GT(revived->override_count(), 0);  // the new weight stays

    const std::vector<EdgeUpdate> restore_batch{EdgeUpdate::weight(a, b, w)};
    const auto restored = DeltaSet::apply(fs, revived.get(), restore_batch);
    EXPECT_EQ(restored->override_count(), 0);
    return;
  }
  FAIL() << "no trial produced a masked tree";
}

TEST(DeltaSet, UnknownAndSelfLoopEdgesAreCountedAndSkipped) {
  const auto g = test_graph(60, 947);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 2, 23));
  // Find a non-edge.
  Vertex a = 0, b = 0;
  for (b = 1; b < g.n(); ++b) {
    if (fs.find_port(0, b) < 0) break;
  }
  ASSERT_LT(b, g.n());
  serve::DeltaStats st;
  const std::vector<EdgeUpdate> batch{EdgeUpdate::weight(a, b, 9),
                                      EdgeUpdate::fail(5, 5)};
  const auto ds = DeltaSet::apply(fs, nullptr, batch, &st);
  EXPECT_EQ(st.applied, 0);
  EXPECT_EQ(st.unknown_edges, 2);
  EXPECT_EQ(ds->override_count(), 0);
}

// ---- differential model: chained applies vs a one-batch reference -------

/// Asserts that `got` is the same overlay as `want`: overrides, counts,
/// every tree bit, and link_patch on every link of the image.
void expect_same_overlay(const serve::FrozenScheme& fs, const DeltaSet& got,
                         const DeltaSet& want) {
  ASSERT_EQ(got.sorted_overrides(), want.sorted_overrides());
  EXPECT_EQ(got.override_count(), want.override_count());
  EXPECT_EQ(got.failed_link_count(), want.failed_link_count());
  EXPECT_EQ(got.masked_tree_count(), want.masked_tree_count());
  for (std::int32_t t = 0; t < fs.num_trees(); ++t) {
    ASSERT_EQ(got.tree_masked(t), want.tree_masked(t)) << "tree " << t;
  }
  const auto links = static_cast<std::int64_t>(fs.link_map().size());
  for (std::int64_t link = 0; link < links; ++link) {
    graph::Dist gw = -7, ww = -7;
    ASSERT_EQ(got.link_patch(link, gw), want.link_patch(link, ww))
        << "link " << link;
    EXPECT_EQ(gw, ww) << "link " << link;
  }
}

/// The probe table never ratchets: a power of two, at most half full,
/// and at most 8 × the live overrides (or the 16-slot minimum).
void expect_capacity_bounded(const DeltaSet& ds) {
  const std::size_t cap = ds.slot_capacity();
  const auto live = static_cast<std::size_t>(ds.override_count());
  EXPECT_EQ(cap & (cap - 1), 0u) << cap;
  EXPECT_GE(cap, 2 * live);
  EXPECT_LE(cap, std::max<std::size_t>(16, 8 * live));
}

/// The overrides an edge-state view implies, derived without DeltaSet:
/// both directions of every edge whose state differs from its frozen
/// weight, key-sorted.
std::vector<std::pair<std::int64_t, graph::Dist>> model_overrides(
    const serve::FrozenScheme& fs,
    const std::map<EdgeKey, graph::Dist>& frozen, const EdgeState& state) {
  std::vector<std::pair<std::int64_t, graph::Dist>> out;
  for (const auto& [key, w] : state) {
    if (w == frozen.at(key)) continue;
    for (const auto& [x, y] : {key, EdgeKey{key.second, key.first}}) {
      out.emplace_back(
          fs.adj_off()[static_cast<std::size_t>(x)] + fs.find_port(x, y), w);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Seeded random batch sequences, each step checked against the reference
// "every event since the base, folded into one batch, applied over
// nullptr" and against an independent edge-state model. The sequences mix
// reprices, restore-to-frozen, fail and revive, the same edge repeated
// inside a batch, unknown and self-loop edges, snapshot applies (prev ==
// nullptr, both checkpoint-style rebases and fresh journals), batches
// that grow the table past its load factor, and journals that undo
// themselves back to the empty set.
TEST(DeltaSetModel, ChainedAppliesMatchTheOneBatchReference) {
  const auto g = test_graph(150, 1103);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 3, 41));
  const auto edges = all_edges(g);
  const std::map<EdgeKey, graph::Dist> frozen(edges.begin(), edges.end());
  const std::size_t empty_bytes =
      DeltaSet::apply(fs, nullptr, {})->byte_size();

  util::Rng pick(1109);
  std::vector<EdgeKey> non_edges;
  while (non_edges.size() < 16) {
    const auto u = static_cast<Vertex>(pick.uniform(150));
    const auto v = static_cast<Vertex>(pick.uniform(150));
    if (u != v && fs.find_port(u, v) == graph::kNoPort) {
      non_edges.push_back(key_of(u, v));
    }
  }

  int masked_steps = 0, shared_mask_steps = 0, undo_steps = 0,
      snapshot_steps = 0;
  std::size_t max_capacity = 0;
  // Pool sizes: a few hot links, a hundred and fifty, and every edge.
  for (const std::size_t pool_size :
       {std::size_t{12}, std::size_t{150}, edges.size()}) {
    util::Rng rng(1117 + pool_size);
    std::vector<EdgeKey> pool;
    for (std::size_t i = 0; i < pool_size; ++i) {
      pool.push_back(edges[(i * 7919) % edges.size()].first);
    }
    std::vector<EdgeUpdate> history;  // every event since the base
    EdgeState state;                  // known edges only
    std::shared_ptr<const DeltaSet> cur;
    std::uint64_t want_seq = 0;

    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE("pool " + std::to_string(pool_size) + ", step " +
                   std::to_string(step));
      const auto mode = rng.uniform(16);
      const bool undo = mode == 0;
      const bool rebase = mode == 1 && cur != nullptr;
      const bool fresh = mode == 2;
      const bool reprice_only = mode >= 3 && mode <= 6;
      std::vector<EdgeUpdate> batch;
      std::int64_t want_unknown = 0;
      if (undo) {
        for (const auto& [key, w] : state) {
          batch.push_back(
              EdgeUpdate::weight(key.first, key.second, frozen.at(key)));
        }
      } else if (rebase) {
        batch = cur->as_edge_updates(fs);
      } else {
        const auto events =
            1 + static_cast<int>(rng.uniform(step < 8 ? 400 : 32));
        for (int i = 0; i < events; ++i) {
          EdgeKey key = pool[rng.uniform(pool.size())];
          const auto r = rng.uniform(100);
          if (r >= 85 && !batch.empty()) {
            key = key_of(batch.back().u, batch.back().v);
          } else if (r >= 80 && !reprice_only) {
            key = r % 2 == 0 ? non_edges[rng.uniform(non_edges.size())]
                             : EdgeKey{key.first, key.first};
          }
          const bool known = frozen.count(key) > 0;
          if (reprice_only && state.count(key) > 0 &&
              state.at(key) == EdgeUpdate::kFail) {
            continue;  // a reprice would revive it
          }
          const graph::Dist fw = known ? frozen.at(key) : 5;
          switch (rng.uniform(reprice_only ? 2 : 3)) {
            case 0:
              batch.push_back(EdgeUpdate::weight(
                  key.first, key.second,
                  fw + 1 + static_cast<graph::Dist>(rng.uniform(20))));
              break;
            case 1:
              batch.push_back(EdgeUpdate::weight(key.first, key.second, fw));
              break;
            default:
              batch.push_back(EdgeUpdate::fail(key.first, key.second));
              break;
          }
          if (!known) ++want_unknown;
        }
      }

      // The predecessor must come through untouched.
      std::vector<std::pair<std::int64_t, graph::Dist>> prev_overrides;
      std::int64_t prev_masked = 0;
      if (cur != nullptr) {
        prev_overrides = cur->sorted_overrides();
        prev_masked = cur->masked_tree_count();
      }
      const bool snapshot = rebase || fresh;
      serve::DeltaStats st;
      const auto next =
          DeltaSet::apply(fs, snapshot ? nullptr : cur.get(), batch, &st);
      if (cur != nullptr) {
        EXPECT_EQ(cur->sorted_overrides(), prev_overrides);
        EXPECT_EQ(cur->masked_tree_count(), prev_masked);
      }
      const bool shared_mask = reprice_only && cur != nullptr &&
                               cur->masked_tree_count() > 0;
      cur = next;
      want_seq = snapshot ? 1 : want_seq + 1;
      if (fresh) {
        history.clear();
        state.clear();
      }
      if (!rebase) {
        history.insert(history.end(), batch.begin(), batch.end());
        for (const auto& e : batch) {
          const EdgeKey key = key_of(e.u, e.v);
          if (frozen.count(key) > 0) state[key] = e.w;
        }
      }

      serve::DeltaStats rst;
      const auto ref = DeltaSet::apply(fs, nullptr, history, &rst);
      EXPECT_EQ(cur->seq(), want_seq);
      EXPECT_EQ(st.applied,
                static_cast<std::int64_t>(batch.size()) - want_unknown);
      EXPECT_EQ(st.unknown_edges, want_unknown);
      EXPECT_EQ(st.overrides, rst.overrides);
      EXPECT_EQ(st.failed_links, rst.failed_links);
      EXPECT_EQ(st.masked_trees, rst.masked_trees);
      expect_same_overlay(fs, *cur, *ref);
      EXPECT_EQ(cur->sorted_overrides(), model_overrides(fs, frozen, state));
      expect_capacity_bounded(*cur);
      if (undo) {
        EXPECT_EQ(cur->override_count(), 0);
        EXPECT_EQ(cur->failed_link_count(), 0);
        EXPECT_EQ(cur->masked_tree_count(), 0);
        EXPECT_EQ(cur->slot_capacity(), 16u);
        EXPECT_EQ(cur->byte_size(), empty_bytes);
      }

      max_capacity = std::max(max_capacity, cur->slot_capacity());
      masked_steps += cur->masked_tree_count() > 0 ? 1 : 0;
      shared_mask_steps += shared_mask ? 1 : 0;
      undo_steps += undo ? 1 : 0;
      snapshot_steps += snapshot ? 1 : 0;
    }
  }
  EXPECT_GT(masked_steps, 0);
  EXPECT_GT(shared_mask_steps, 0);
  EXPECT_GT(undo_steps, 0);
  EXPECT_GT(snapshot_steps, 0);
  EXPECT_GE(max_capacity, 1024u) << "no batch grew the table";
}

// ---- path-exact failure handling ----------------------------------------

/// Whether any of `path`'s links carries a weight other than its frozen
/// one under `state` (a failed link never does: served paths avoid them).
bool crosses_reprice(const std::map<EdgeKey, graph::Dist>& frozen,
                     const EdgeState& state, const std::vector<Vertex>& path) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const EdgeKey key = key_of(path[i], path[i + 1]);
    const auto it = state.find(key);
    if (it != state.end() && it->second != frozen.at(key)) return true;
  }
  return false;
}

/// The edges of cluster tree `tree`: each non-root member's link toward
/// its parent (parent_port inside a subtree, up_port at a subtree root).
std::vector<EdgeKey> tree_edges(const serve::FrozenScheme& fs,
                                std::int32_t tree) {
  std::vector<EdgeKey> out;
  for (Vertex x = 0; x < fs.n(); ++x) {
    const auto* slot = fs.table_slot(x, tree);
    if (slot == nullptr) continue;
    for (const std::int32_t port : {slot->parent_port, slot->up_port}) {
      if (port == graph::kNoPort) continue;
      const auto& link =
          fs.link_map()[static_cast<std::size_t>(
              fs.adj_off()[static_cast<std::size_t>(x)] + port)];
      out.push_back(key_of(x, link.to));
    }
  }
  return out;
}

// Seeded failure/reprice sets, each with one more failure planted on an
// edge of a level-0 root's trick tree (whose other edges are repriced).
// For every sampled pair (all pairs
// from that root, plus uniform ones): the served path never crosses a
// failed link; a pair whose unpatched first-choice path avoids every
// failure is served exactly that decision at its repriced length, even
// when its tree is masked; and route_overlay, route_batch_overlay
// (uncached and cached) and the sharded submit agree on every answer and
// on the masked/repaired totals. The tree mask itself stays the exact
// reference mask — it is the stats view, no longer a read-path filter.
TEST(DeltaSetPathExact, OnlyPairsWhosePathMeetsAFailureAreReRouted) {
  const auto g = test_graph(140, 1201);
  const auto scheme = build_scheme(g, 3, 43);
  const auto fs = serve::FrozenScheme::freeze(scheme);
  ASSERT_TRUE(fs.label_trick());
  const auto edges = all_edges(g);
  const std::map<EdgeKey, graph::Dist> frozen(edges.begin(), edges.end());

  // Level-0 roots whose trick tree has at least one edge.
  std::vector<Vertex> trick_roots;
  for (Vertex u = 0; u < fs.n(); ++u) {
    if (fs.vertex_level(u) == 0 && scheme.tree_index(u) >= 0 &&
        !tree_edges(fs, scheme.tree_index(u)).empty()) {
      trick_roots.push_back(u);
    }
  }
  ASSERT_FALSE(trick_roots.empty());

  util::Rng rng(1213);
  int masked_clean = 0, trick_masked_clean = 0, rerouted = 0,
      rerouted_ok = 0;
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // The planted tree is repriced everywhere but at its failed edge, so
    // a walk abandoned in it has usually crossed a repriced link.
    const Vertex root = trick_roots[rng.uniform(trick_roots.size())];
    const std::int32_t trick_tree = scheme.tree_index(root);
    const auto planted_pool = tree_edges(fs, trick_tree);
    const EdgeKey planted = planted_pool[rng.uniform(planted_pool.size())];
    std::vector<EdgeUpdate> batch;
    for (const auto& key : planted_pool) {
      batch.push_back(
          EdgeUpdate::weight(key.first, key.second, 2 * frozen.at(key)));
    }
    const auto fails = 1 + rng.uniform(3);
    for (std::uint64_t i = 0; i < fails; ++i) {
      const auto& [key, w] = edges[rng.uniform(edges.size())];
      batch.push_back(EdgeUpdate::fail(key.first, key.second));
    }
    for (int i = 0; i < 12; ++i) {
      const auto& [key, w] = edges[rng.uniform(edges.size())];
      batch.push_back(EdgeUpdate::weight(
          key.first, key.second,
          w + static_cast<graph::Dist>(
                  rng.uniform(static_cast<std::uint64_t>(w) + 1))));
    }
    batch.push_back(EdgeUpdate::fail(planted.first, planted.second));
    EdgeState state;
    fold_batch(state, batch);
    const auto ds = DeltaSet::apply(fs, nullptr, batch);

    std::vector<EdgeKey> failed;
    for (const auto& [key, w] : state) {
      if (w == EdgeUpdate::kFail) failed.push_back(key);
    }
    const auto want_mask = reference_mask(fs, failed);
    EXPECT_EQ(ds->masked_tree_count(),
              static_cast<std::int64_t>(want_mask.size()));
    for (std::int32_t t = 0; t < fs.num_trees(); ++t) {
      ASSERT_EQ(ds->tree_masked(t), want_mask.count(t) > 0) << "tree " << t;
    }
    ASSERT_TRUE(ds->tree_masked(trick_tree));

    auto qs = random_queries(fs.n(), 600, 1217 + trial);
    for (Vertex v = 0; v < fs.n(); ++v) {
      if (v != root) qs.push_back({root, v});
    }

    std::vector<Decision> want(qs.size());
    std::int64_t want_masked = 0, want_repaired = 0;
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const auto [u, v] = qs[i];
      std::vector<Vertex> path, opath;
      const auto base = fs.route(u, v, &path);
      ASSERT_TRUE(base.ok);
      serve::OverlayTouch touch;
      want[i] = fs.route_overlay(u, v, *ds, &touch, &opath);
      const auto& d = want[i];
      if (d.ok) {
        EXPECT_EQ(path_length(g, state, opath), d.length) << u << "->" << v;
        EXPECT_EQ(touch.repaired, crosses_reprice(frozen, state, opath));
      }
      const bool first_masked =
          ds->tree_masked(scheme.tree_index(base.tree_root));
      if (!crosses_failure(state, path)) {
        // The first choice survives: same decision, repriced length.
        EXPECT_FALSE(touch.fell_back) << u << "->" << v;
        ASSERT_TRUE(d.ok) << u << "->" << v;
        EXPECT_EQ(d.tree_root, base.tree_root);
        EXPECT_EQ(d.tree_level, base.tree_level);
        EXPECT_EQ(d.via_trick, base.via_trick);
        EXPECT_EQ(d.hops, base.hops);
        EXPECT_EQ(opath, path);
        EXPECT_EQ(d.length, path_length(g, state, path));
        masked_clean += first_masked ? 1 : 0;
        trick_masked_clean += first_masked && base.via_trick ? 1 : 0;
      } else {
        EXPECT_TRUE(touch.fell_back) << u << "->" << v;
        EXPECT_TRUE(first_masked) << "a path met a failure in an unmasked tree";
        ++rerouted;
        rerouted_ok += d.ok ? 1 : 0;
      }
      want_masked += touch.fell_back ? 1 : 0;
      want_repaired += touch.repaired ? 1 : 0;
    }

    auto expect_same = [&](const std::vector<Decision>& got,
                           std::int64_t masked, std::int64_t repaired,
                           const char* what) {
      SCOPED_TRACE(what);
      for (std::size_t i = 0; i < qs.size(); ++i) {
        ASSERT_EQ(got[i].ok, want[i].ok) << qs[i].u << "->" << qs[i].v;
        EXPECT_EQ(got[i].length, want[i].length);
        EXPECT_EQ(got[i].hops, want[i].hops);
        EXPECT_EQ(got[i].tree_root, want[i].tree_root);
        EXPECT_EQ(got[i].tree_level, want[i].tree_level);
        EXPECT_EQ(got[i].via_trick, want[i].via_trick);
      }
      EXPECT_EQ(masked, want_masked);
      EXPECT_EQ(repaired, want_repaired);
    };

    std::vector<Decision> got(qs.size());
    serve::NoTableCache none;
    serve::BatchStats bs;
    fs.route_batch_overlay(qs.data(), qs.size(), got.data(), none, *ds, &bs);
    EXPECT_EQ(bs.completed, static_cast<std::int64_t>(qs.size()));
    expect_same(got, bs.masked, bs.repaired, "route_batch_overlay");

    serve::TableCache cache(fs, 256);
    serve::BatchStats cbs;
    fs.route_batch_overlay(qs.data(), qs.size(), got.data(), cache, *ds,
                           &cbs);
    expect_same(got, cbs.masked, cbs.repaired, "route_batch_overlay cached");

    serve::ShardedOptions opt;
    opt.shards = 3;
    opt.cache_entries = 256;
    serve::ShardedRouteServer srv(fs, opt);
    srv.submit(qs.data(), qs.size(), got.data(), ds).wait();
    const auto totals = srv.totals();
    expect_same(got, totals.masked, totals.repaired, "sharded submit");
  }
  EXPECT_GT(trick_masked_clean, 0)
      << "no level-0 source kept a clean trick path in a masked tree";
  EXPECT_GT(masked_clean, trick_masked_clean)
      << "no label-scan pair kept a clean path in a masked tree";
  EXPECT_GT(rerouted_ok, 0) << "no re-routed pair was served";
}

// ---- the stretch bound on the updated graph -----------------------------

TEST(DeltaSet, StretchBoundHoldsOnTheUpdatedGraph) {
  const auto g = test_graph(120, 953);
  const auto scheme = build_scheme(g, 3, 29);
  const auto fs = serve::FrozenScheme::freeze(scheme);
  const auto edges = all_edges(g);
  util::Rng rng(957);

  // Mixed batch: fail a few edges, scale a few weights by ≤ α = 2. The
  // failures are picked greedily to keep the cumulative mask small (a
  // failure in a *top-level* cluster tree leaves pairs whose path crosses
  // it with no later candidate). Pairs whose first-choice path avoids
  // every failure keep it, the rest re-route, and with this selection
  // every sampled pair is served.
  std::vector<EdgeUpdate> batch;
  EdgeState state;
  const std::int64_t mask_budget = fs.num_trees() / 24;
  for (int i = 0; i < 64 && static_cast<int>(batch.size()) < 6; ++i) {
    const auto& [key, w] = edges[rng.uniform(edges.size())];
    auto trial = batch;
    trial.push_back(EdgeUpdate::fail(key.first, key.second));
    if (DeltaSet::apply(fs, nullptr, trial)->masked_tree_count() <=
        mask_budget) {
      batch = std::move(trial);
    }
  }
  EXPECT_GE(batch.size(), 3u);
  for (int i = 0; i < 12; ++i) {
    const auto& [key, w] = edges[rng.uniform(edges.size())];
    batch.push_back(EdgeUpdate::weight(key.first, key.second, w * 2));
  }
  fold_batch(state, batch);
  const auto ds = DeltaSet::apply(fs, nullptr, batch);
  EXPECT_GT(ds->masked_tree_count(), 0);

  const auto updated = updated_graph(g, state);
  // Weight scale α = 2: served length ≤ α · frozen-weight length of the
  // walked route ≤ α · bound · d_orig ≤ α² · bound · d_updated (every
  // updated weight is within a factor α of the frozen one, failures only
  // raise d_updated). DESIGN.md §13 spells the argument out.
  const double alpha = 2.0;
  const double bound = alpha * alpha * scheme.stretch_bound() + 1e-9;

  int routed = 0, skipped = 0, rerouted = 0;
  for (Vertex u = 0; u < g.n(); u += 5) {
    const auto sp = graph::dijkstra(updated, u);
    for (Vertex v = 2; v < g.n(); v += 7) {
      if (u == v) continue;
      serve::OverlayTouch touch;
      std::vector<Vertex> path;
      const auto d = fs.route_overlay(u, v, *ds, &touch, &path);
      const auto dist = sp.dist[static_cast<std::size_t>(v)];
      if (!d.ok || graph::is_inf(dist)) {  // no candidate path / cut off
        ++skipped;
        continue;
      }
      // The served route is a real path in the updated graph (never
      // crosses a failed link — path_length fails the test otherwise),
      // so it cannot beat the updated shortest path...
      const auto len = path_length(g, state, path);
      EXPECT_EQ(len, d.length);
      EXPECT_GE(len, dist) << u << "->" << v;
      // ...and it must respect the (α-adjusted) stretch bound.
      EXPECT_LE(static_cast<double>(len),
                bound * static_cast<double>(dist))
          << u << "->" << v << " re-routed=" << touch.fell_back;
      ++routed;
      rerouted += touch.fell_back ? 1 : 0;
    }
  }
  // Path-exact failure handling serves all 405 sampled pairs: only the
  // few whose own first-choice path crosses a failure re-route, and each
  // of them still finds a clean later candidate.
  EXPECT_EQ(routed, 405);
  EXPECT_EQ(skipped, 0);
  EXPECT_GT(rerouted, 0);
}

// ---- journal parsing ----------------------------------------------------

TEST(UpdateJournal, ParsesBatchesCommentsAndBlankLines) {
  const auto batches = serve::parse_update_journal(
      "# header comment\n"
      "w 3 9 12\n"
      "f 4 7\n"
      "commit\n"
      "\n"
      "w 1 2 5\n");
  ASSERT_EQ(batches.size(), 2u);
  ASSERT_EQ(batches[0].size(), 2u);
  EXPECT_EQ(batches[0][0].u, 3);
  EXPECT_EQ(batches[0][0].v, 9);
  EXPECT_EQ(batches[0][0].w, 12);
  EXPECT_FALSE(batches[0][0].is_fail());
  EXPECT_TRUE(batches[0][1].is_fail());
  ASSERT_EQ(batches[1].size(), 1u);  // trailing open batch
  EXPECT_EQ(batches[1][0].w, 5);
}

TEST(UpdateJournal, RejectsMalformedLinesWithLineNumbers) {
  try {
    serve::parse_update_journal("w 1 2 3\nbogus line\n");
    FAIL() << "malformed journal must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos)
        << "error should carry the 1-based line number: " << e.what();
  }
}

// ---- sharded submit with a delta attached -------------------------------

TEST(ShardedDelta, SubmitWithDeltaMatchesRouteOverlay) {
  const auto g = test_graph(110, 967);
  const auto fs = serve::FrozenScheme::freeze(build_scheme(g, 3, 31));
  const auto edges = all_edges(g);
  util::Rng rng(971);

  std::vector<EdgeUpdate> batch;
  for (int i = 0; i < 8; ++i) {
    const auto& [key, w] = edges[rng.uniform(edges.size())];
    batch.push_back(i % 2 == 0
                        ? EdgeUpdate::fail(key.first, key.second)
                        : EdgeUpdate::weight(key.first, key.second, w + 7));
  }
  const auto ds = DeltaSet::apply(fs, nullptr, batch);

  serve::ShardedOptions opt;
  opt.shards = 3;
  opt.cache_entries = 256;
  serve::ShardedRouteServer srv(fs, opt);

  const auto qs = random_queries(g.n(), 3000, 977);
  std::vector<Decision> got(qs.size());
  srv.submit(qs.data(), qs.size(), got.data(), ds).wait();

  std::int64_t want_masked = 0, want_repaired = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    serve::OverlayTouch touch;
    const auto want = fs.route_overlay(qs[i].u, qs[i].v, *ds, &touch);
    ASSERT_EQ(got[i].ok, want.ok) << qs[i].u << "->" << qs[i].v;
    EXPECT_EQ(got[i].length, want.length);
    EXPECT_EQ(got[i].hops, want.hops);
    EXPECT_EQ(got[i].tree_root, want.tree_root);
    EXPECT_EQ(got[i].tree_level, want.tree_level);
    EXPECT_EQ(got[i].via_trick, want.via_trick);
    want_masked += touch.fell_back ? 1 : 0;
    want_repaired += touch.repaired ? 1 : 0;
  }
  const auto totals = srv.totals();
  EXPECT_EQ(totals.masked, want_masked);
  EXPECT_EQ(totals.repaired, want_repaired);

  // Null delta on the same pool: identical to the unpatched image, and a
  // delta→null transition must not serve stale cache state.
  std::vector<Decision> plain(qs.size());
  srv.submit(qs.data(), qs.size(), plain.data(),
             std::shared_ptr<const DeltaSet>{})
      .wait();
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto want = fs.route(qs[i].u, qs[i].v);
    ASSERT_EQ(plain[i].ok, want.ok);
    EXPECT_EQ(plain[i].length, want.length);
  }
}

// ---- update-while-serving wire stress -----------------------------------

TEST(WireUpdate, TenThousandUpdatesUnderFourPipelinedClients) {
  const auto g = test_graph(120, 983);
  const auto scheme = build_scheme(g, 3, 37);
  auto frozen = serve::FrozenScheme::freeze(scheme);
  const auto reference = serve::FrozenScheme::load(frozen.save());
  const auto edges = all_edges(g);

  net::NetServerOptions opt;
  opt.loops = 2;
  opt.shards = 2;
  opt.cache_entries = 256;
  net::Server server(std::move(frozen), opt);

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> answered{0};
  std::atomic<int> bad{0};

  // Four pipelined clients querying continuously across every update.
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      net::Client client("127.0.0.1", server.port());
      const auto qs =
          random_queries(reference.n(), 256, 991 + static_cast<unsigned>(c));
      while (!stop.load(std::memory_order_relaxed)) {
        constexpr int kDepth = 4;
        for (int f = 0; f < kDepth; ++f) {
          client.send_route(qs.data() + 64 * f, 64);
        }
        for (int f = 0; f < kDepth; ++f) {
          const auto part = client.recv_route();
          if (part.size() != 64) {
            bad.fetch_add(1);
            return;
          }
          for (const auto& d : part) {
            // Wrong-generation reads would show as zero/negative lengths
            // or torn decisions; ok answers must carry a real length.
            if (d.ok && d.length <= 0) bad.fetch_add(1);
          }
          answered.fetch_add(static_cast<std::int64_t>(part.size()));
        }
      }
    });
  }

  // The updater: ≥ 10k journaled events in 128 kUpdate batches — fail /
  // reweight / revive cycling over the edge pool, every batch published
  // as a generation while the clients above keep streaming.
  util::Rng rng(997);
  net::Client admin("127.0.0.1", server.port());
  EdgeState state;
  std::shared_ptr<const DeltaSet> mirror;
  std::uint64_t last_seq = 0;
  constexpr int kBatches = 128;
  constexpr int kPerBatch = 80;  // 128 * 80 = 10240 events
  for (int bidx = 0; bidx < kBatches; ++bidx) {
    std::vector<EdgeUpdate> batch;
    batch.reserve(kPerBatch);
    for (int i = 0; i < kPerBatch; ++i) {
      const auto& [key, w] = edges[rng.uniform(edges.size())];
      switch (rng.uniform(3)) {
        case 0:
          batch.push_back(EdgeUpdate::fail(key.first, key.second));
          break;
        case 1:
          batch.push_back(
              EdgeUpdate::weight(key.first, key.second, w * 2));
          break;
        default:  // revive / restore
          batch.push_back(EdgeUpdate::weight(key.first, key.second, w));
          break;
      }
    }
    const auto ack = admin.update(batch);
    EXPECT_GT(ack.seq, last_seq);
    last_seq = ack.seq;
    fold_batch(state, batch);
    mirror = DeltaSet::apply(reference, mirror.get(), batch);
    EXPECT_EQ(ack.overrides, mirror->override_count());
    EXPECT_EQ(ack.failed_links, mirror->failed_link_count());
    EXPECT_EQ(ack.masked_trees, mirror->masked_tree_count());
  }

  // Final batch: revive every still-failed edge at double weight, so the
  // head generation keeps plenty of overrides but no failed link. The
  // verification sweep below then holds every pair to the α² repair
  // bound: with a third of the links down, a pair whose path crosses a
  // failure in a top-level tree has no later candidate, and a re-routed
  // pair's stretch is measured (StretchBoundHoldsOnTheUpdatedGraph), not
  // proven.
  {
    std::vector<EdgeUpdate> revive;
    for (const auto& [key, w] : all_edges(g)) {
      const auto it = state.find(key);
      if (it != state.end() && it->second == EdgeUpdate::kFail) {
        revive.push_back(EdgeUpdate::weight(key.first, key.second, w * 2));
      }
    }
    if (!revive.empty()) {
      const auto ack = admin.update(revive);
      EXPECT_EQ(ack.masked_trees, 0);
      fold_batch(state, revive);
      mirror = DeltaSet::apply(reference, mirror.get(), revive);
    }
    EXPECT_EQ(mirror->masked_tree_count(), 0);
  }

  // Let the clients observe the final generation for a moment, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(answered.load(), 4 * 1024);

  // Fresh connection: answers now come from the journal's head
  // generation, bit-identical to the local mirror, and within the
  // α-adjusted stretch bound on the updated graph.
  const auto updated = updated_graph(g, state);
  const double bound = 4.0 * scheme.stretch_bound() + 1e-9;  // α = 2
  net::Client verify("127.0.0.1", server.port());
  const auto vqs = random_queries(reference.n(), 512, 1009);
  const auto wire = verify.route(vqs);
  int checked = 0;
  for (std::size_t i = 0; i < vqs.size(); ++i) {
    serve::OverlayTouch touch;
    std::vector<Vertex> path;
    const auto want =
        reference.route_overlay(vqs[i].u, vqs[i].v, *mirror, &touch, &path);
    ASSERT_EQ(wire[i].ok, want.ok);
    if (!want.ok) continue;
    EXPECT_EQ(wire[i].length, want.length);
    EXPECT_EQ(wire[i].hops, want.hops);
    EXPECT_EQ(wire[i].tree_root, want.tree_root);
    const auto dist =
        graph::pair_distance(updated, vqs[i].u, vqs[i].v);
    if (graph::is_inf(dist)) continue;
    EXPECT_EQ(path_length(g, state, path), want.length);
    EXPECT_LE(static_cast<double>(want.length),
              bound * static_cast<double>(dist));
    ++checked;
  }
  EXPECT_GT(checked, 300);

  const auto stats = server.stats();
  EXPECT_GE(stats.updates, kBatches);
  EXPECT_GE(stats.masked, 0);
  EXPECT_GE(stats.repaired, 0);
}

}  // namespace
}  // namespace nors
