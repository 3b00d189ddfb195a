#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scheme.h"
#include "util/simd.h"

namespace nors::serve {

/// Answer of one frozen route(u, v) query: everything RouteResult reports
/// except the explicit path (route() has an overload that also records it).
/// One "decision" is one next-hop port evaluation, so decisions == hops on
/// a completed walk — the quantity bench_serving rates.
struct Decision {
  bool ok = false;
  bool via_trick = false;
  std::int32_t hops = 0;
  std::int32_t tree_level = -1;
  graph::Vertex tree_root = graph::kNoVertex;
  graph::Dist length = 0;
};

/// One route decision request (shared by every serving front-end).
struct Query {
  graph::Vertex u = graph::kNoVertex;
  graph::Vertex v = graph::kNoVertex;
};

/// Counters a batch engine run reports back (route_batch and the cached
/// variant). `completed`/`hops` cover queries answered so far, so on a
/// mid-batch exception they describe exactly the prefix that finished.
/// `masked`/`repaired` stay zero unless an overlay is interposed
/// (route_batch_overlay, serve/delta.h): masked counts queries re-routed
/// after their first-choice path met a failed link, repaired counts
/// queries whose served path crossed at least one weight-patched link.
struct BatchStats {
  std::int64_t completed = 0;
  std::int64_t hops = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t masked = 0;
  std::int64_t repaired = 0;
};

/// Verdict of an overlay's per-link probe (see RouteOverlay concept).
enum class LinkPatch : std::uint8_t {
  kNone = 0,    // link unchanged: serve the frozen weight
  kWeight = 1,  // weight overridden: the overlay wrote the new weight
  kFailed = 2,  // link failed: the walk must never cross it
};

/// What one overlay-routed query touched — the per-query view of the
/// BatchStats masked/repaired counters, reported by route_overlay() so
/// tests and repair policies can tell exactly which answers the delta
/// layer altered.
struct OverlayTouch {
  bool fell_back = false;  // re-routed: first-choice path met a failed link
  bool repaired = false;   // served path crossed >= 1 weight-patched link
};

/// The null overlay: every route_* entry point without an explicit
/// overlay runs on this, and `kActive == false` compiles the overlay
/// probes out of the hot path entirely (pinned by the CI perf floor).
///
/// A real overlay (serve/delta.h's DeltaSet) models the *RouteOverlay
/// concept*: `kActive` and link_patch(link_idx, w) over the global
/// fused-link-map index adj_off()[x] + port, which may rewrite `w` and
/// returns what kind of patch applied. Failure handling is path-exact:
/// a walk that meets a kFailed link is abandoned and the tree scan
/// resumes at the next candidate, so a pair is re-routed only when its
/// own tree path crosses a failed link. Overlays are immutable while any
/// walk reads them; generation swap, not mutation, is the update model.
struct NoOverlay {
  static constexpr bool kActive = false;
  LinkPatch link_patch(std::int64_t, graph::Dist&) const {
    return LinkPatch::kNone;
  }
};

/// Cache stub for the uncached batch engine: never hits.
struct NoTableCache {
  bool probe(graph::Vertex, std::int32_t, std::int32_t&) const {
    return false;
  }
  void insert(graph::Vertex, std::int32_t, std::int32_t) const {}
};

/// An immutable, flat-memory snapshot of a constructed RoutingScheme — the
/// serving-side artifact (DESIGN.md §5, §10). freeze() packs everything a
/// router network needs to answer route(u, v) into arena-style slabs:
///
///   - per-vertex *table slabs*: one packed TableSlot per cluster tree
///     containing the vertex, tree-sorted, with the sort key split into a
///     parallel i32 key column (table_tree()) so membership tests are a
///     branch-light SIMD lower-bound scan over a few contiguous cache
///     lines instead of a pointer-chasing binary search over wide slots;
///   - per-vertex *label slots*: the k LabelEntry rows, stride-k flat, with
///     variable-length pieces (light lists, global hops) in shared pools;
///   - the 4k-5 trick slabs at level-0 cluster roots;
///   - the port→(neighbor, weight) link map (a router's physical
///     interfaces), so the walk simulation never touches WeightedGraph —
///     served from a fused {weight, neighbor} column (one cache line per
///     hop instead of two);
///   - packed wire-label blobs (core::encode_vertex_label bytes, one pool)
///     — what a node hands to connecting peers.
///
/// The hot path is allocation-free and graph-free: a query resolves the
/// destination's cluster tree from label/trick slots, then repeats
/// {search x's slab, evaluate next port, follow the link map} until
/// arrival. Decisions are bit-identical to RoutingScheme::route() — pinned
/// by test_serve. route_batch() answers many queries through a software
/// pipeline (stage machine per in-flight query with explicit prefetch one
/// stage ahead), so the table-lookup cache misses of different queries
/// overlap instead of serializing — the throughput path the serving
/// front-end (ShardedRouteServer) runs on.
///
/// Every slab is exposed as a std::span view; the bytes behind the views
/// are either *owned* (freeze()/load() fill heap vectors) or *mapped*
/// (map() mmaps a saved image and serves straight from the page cache).
/// The two load paths serve bit-identical decisions. FrozenScheme is
/// move-only: the views alias its own storage, so copies are forbidden by
/// construction.
///
/// save()/load()/map() share a versioned little-endian binary format
/// (magic NORSFRZ1, version 3, endianness tag, FNV-1a checksum; format
/// spec in DESIGN.md §5.2/§10): the table slabs are split into a raw i32
/// tree-key column and delta/varint-compressed slot columns. Any other
/// version is refused — re-freeze to migrate. save→load→save and
/// save→map→save are byte-identical.
class FrozenScheme {
 public:
  // ---------------------------------------------------------- slot PODs --
  // Every slot is padding-free (static_asserted) with alignment ≤ 8 — the
  // format's section alignment — so sections of a mapped image can be read
  // in place (static_asserted in frozen.cc next to the section writer).

  /// One (vertex, port) pair of a TZ light list.
  struct LightSlot {
    std::int32_t v = graph::kNoVertex;
    std::int32_t port = graph::kNoPort;
  };

  /// One light T'-edge of a destination label (DistTreeScheme::GlobalHop
  /// minus fields the router never reads).
  struct HopSlot {
    std::int64_t portal_a = 0;      // ℓ(x_i).a within T_{v_i}
    std::int32_t vi = graph::kNoVertex;  // T' parent (subtree root id)
    std::int32_t port = graph::kNoPort;  // e(x_i, w_i)
    std::int32_t light_off = 0;     // ℓ(x_i).light in the light pool
    std::int32_t light_len = 0;
  };

  /// One entry of a vertex's table slab: the vertex's routing state inside
  /// one cluster tree (DistTreeScheme::NodeInfo, flattened and packed).
  /// The slab's sort key — the cluster-tree index — lives in the parallel
  /// table_tree() column, and all DFS-interval fields are int32: a DFS
  /// clock is bounded by the tree size, which is bounded by n, which is
  /// itself an int32 (the narrowing is range-checked when freeze() packs
  /// them and when an image is decoded). 56 bytes = at most two cache
  /// lines per decision, usually one.
  struct TableSlot {
    std::int32_t local_a = 0;         // TZ interval of x in T_{w(x)}
    std::int32_t local_b = 0;
    std::int32_t a_prime = 0;         // interval of w(x) in T'
    std::int32_t b_prime = 0;
    std::int32_t heavy_portal_a = 0;  // ℓ(y).a, y = p_T(h'(w)) ∈ T_w
    std::int32_t subtree_root = graph::kNoVertex;  // w with x ∈ T_w
    std::int32_t parent_port = graph::kNoPort;  // toward subtree parent
    std::int32_t heavy_child_port = graph::kNoPort;  // local TZ heavy child
    std::int32_t heavy_prime = graph::kNoVertex;     // h'(w); kNoVertex ⇒ none
    std::int32_t heavy_cross_port = graph::kNoPort;  // e(y, h'(w))
    std::int32_t heavy_light_off = 0;  // ℓ(y).light in the light pool
    std::int32_t heavy_light_len = 0;
    std::int32_t up_port = graph::kNoPort;  // at w: port toward p_T(w)
    std::int32_t pad = 0;
  };

  /// One level of a destination label (RoutingScheme::LabelEntry,
  /// flattened): pivot + membership + the tree label ℓ'(v).
  struct LabelSlot {
    std::int64_t pivot_dist = graph::kDistInf;
    std::int64_t a_prime = 0;   // ℓ'(v).a' (DFS entry of w(v) in T')
    std::int64_t local_a = 0;   // ℓ(v).a within T_{w(v)}
    std::int32_t pivot = graph::kNoVertex;
    std::int32_t tree = -1;     // cluster tree of the pivot, -1 if none
    std::int32_t member = 0;    // v ∈ C̃(ẑ_i(v))
    std::int32_t local_light_off = 0;
    std::int32_t local_light_len = 0;
    std::int32_t hop_off = 0;   // global_light in the hop pool
    std::int32_t hop_len = 0;
    std::int32_t pad = 0;
  };

  /// Directory row of the 4k-5 trick slab of one level-0 cluster root.
  struct TrickRoot {
    std::int32_t root = graph::kNoVertex;
    std::int32_t tree = -1;       // the tree route() walks from this root
    std::int64_t off = 0;         // entries in tricks_, sorted by dest
    std::int64_t len = 0;
  };

  /// One member's tree label stored at its level-0 root.
  struct TrickSlot {
    std::int64_t a_prime = 0;
    std::int64_t local_a = 0;
    std::int32_t dest = graph::kNoVertex;  // slab sort key
    std::int32_t local_light_off = 0;
    std::int32_t local_light_len = 0;
    std::int32_t hop_off = 0;
    std::int32_t hop_len = 0;
    std::int32_t pad = 0;
  };

  /// Fused link-map entry: the weight and target of one (vertex, port)
  /// interface in a single 16-byte read. Derived at bind time from the
  /// serialized adj_to/adj_w columns (not itself a wire section) — the
  /// walk pays one cache line per hop for the link instead of two.
  struct LinkSlot {
    graph::Dist w = 0;
    graph::Vertex to = graph::kNoVertex;
    std::int32_t pad = 0;
  };

  static_assert(sizeof(LightSlot) == 8);
  static_assert(sizeof(HopSlot) == 24);
  static_assert(sizeof(TableSlot) == 56);
  static_assert(sizeof(LabelSlot) == 56);
  static_assert(sizeof(TrickRoot) == 24);
  static_assert(sizeof(TrickSlot) == 40);
  static_assert(sizeof(LinkSlot) == 16);

  // --------------------------------------------------------- life cycle --

  FrozenScheme() = default;
  FrozenScheme(FrozenScheme&&) = default;
  FrozenScheme& operator=(FrozenScheme&&) = default;
  FrozenScheme(const FrozenScheme&) = delete;
  FrozenScheme& operator=(const FrozenScheme&) = delete;

  /// Snapshots a constructed scheme (and its graph's link map) into flat
  /// slabs. The frozen scheme is self-contained: the RoutingScheme and the
  /// WeightedGraph may be destroyed afterwards. The table slabs are filled
  /// tree-major — one walk over each tree's members with a cursor per
  /// vertex, no sort and no member search — and every slab and pool is
  /// sized before it is filled (DESIGN.md §9).
  static FrozenScheme freeze(const core::RoutingScheme& scheme);

  /// Versioned binary image (format: DESIGN.md §5.2/§10). All save paths
  /// share one streaming emitter: the image is written front to back
  /// once, its checksum computed on the way, so the vector save() returns
  /// is the only copy ever made — and save_file() makes none.
  std::vector<std::uint8_t> save() const;

  /// save() with the link-map weight column patched by `overrides`
  /// ((global link index, weight) pairs; negative weights — failures —
  /// are skipped, the image format has no failure notion). This is the
  /// checkpoint-compaction image (DESIGN.md §14): delta weight repairs are
  /// baked into a fresh image, and everything else is byte-identical to
  /// save().
  std::vector<std::uint8_t> save_with_link_weights(
      std::span<const std::pair<std::int64_t, graph::Dist>> overrides) const;
  static FrozenScheme load(const std::vector<std::uint8_t>& bytes);

  /// Writes save()'s bytes to `path` without staging the image: it streams
  /// through a small fixed buffer into `path + ".tmp"`, which is then
  /// renamed over `path`. The target is replaced whole or not at all — a
  /// failed save leaves the old file (and no temp file) behind, and a
  /// process that has the old file map()ped keeps its intact pages.
  /// Throws std::runtime_error on an I/O failure.
  void save_file(const std::string& path) const;

  /// The checkpoint writer (DESIGN.md §14.3): save_with_link_weights()'s
  /// bytes, streamed like save_file(), and durable — the temp file is
  /// fsynced before the rename and the directory after it, so a crash at
  /// any instant leaves the old image or the complete new one.
  void save_file_with_link_weights(
      const std::string& path,
      std::span<const std::pair<std::int64_t, graph::Dist>> overrides) const;
  static FrozenScheme load_file(const std::string& path);

  /// Zero-copy load: mmaps the NORSFRZ1 image at `path` read-only,
  /// validates the checksum against the mapped bytes, and binds slab
  /// views directly into the mapping wherever the wire layout matches the
  /// in-memory one (labels, pools, tricks, link columns, blobs and the
  /// tree-key column). Table slots are inflated from the varint columns
  /// into owned memory. Rejects corrupt images exactly like load().
  static FrozenScheme map(const std::string& path);

  /// True when the slabs alias an mmap'ed image rather than owned heap
  /// vectors (inspection/bench reporting only — serving is identical).
  bool is_mapped() const { return mapping_ != nullptr; }

  /// The on-disk format version save() emits and load()/map() accept.
  static constexpr std::uint32_t format_version() { return 3; }

  // ------------------------------------------------------------ serving --

  /// Frozen route decision query; answers are identical to
  /// RoutingScheme::route() on the live scheme (length, hops, tree choice,
  /// via_trick). A non-null `path` also records the visited vertices
  /// (including u and v). Throws like the live walk on impossible states.
  Decision route(graph::Vertex u, graph::Vertex v,
                 std::vector<graph::Vertex>* path = nullptr) const {
    return route_overlay(u, v, NoOverlay{}, nullptr, path);
  }

  /// Software-pipelined batch engine (DESIGN.md §10): answers queries[i]
  /// into out[i] with up to kBatchLanes queries in flight, each advanced
  /// one stage per engine round — label decode, slab prefetch, table
  /// lookup, port emit — with the next stage's cache lines prefetched one
  /// round ahead, so the lookup misses of different queries overlap.
  /// Decisions are identical to route() per query; exceptions (bad query,
  /// corrupt state) propagate like route()'s, leaving out[] slots of
  /// unfinished queries unspecified (`stats`, if given, describes exactly
  /// the completed prefix).
  void route_batch(const Query* queries, std::size_t count, Decision* out,
                   BatchStats* stats = nullptr) const {
    NoTableCache none;
    NoOverlay nov;
    route_batch_impl(queries, count, out, none, nov, stats);
  }

  /// As route_batch(), resolving (vertex, tree) slab lookups through a
  /// caller-owned cache first (serve/table_cache.h shape: probe()/
  /// insert()); hit/miss counts land in `stats`.
  template <typename Cache>
  void route_batch_cached(const Query* queries, std::size_t count,
                          Decision* out, Cache& cache,
                          BatchStats* stats = nullptr) const {
    NoOverlay none;
    route_batch_impl(queries, count, out, cache, none, stats);
  }

  /// The delta-serving batch engine (DESIGN.md §13): identical pipeline,
  /// but every link crossing consults link_patch() — weight patches
  /// rewrite the hop's length contribution, and a failed link is never
  /// crossed: the lane abandons that walk and resumes the tree scan at
  /// the next candidate (the fallback re-route). With NoOverlay this is
  /// exactly route_batch_cached().
  template <typename Cache, typename Overlay>
  void route_batch_overlay(const Query* queries, std::size_t count,
                           Decision* out, Cache& cache, const Overlay& ov,
                           BatchStats* stats = nullptr) const {
    route_batch_impl(queries, count, out, cache, ov, stats);
  }

  /// Single-query overlay route — the scalar walk behind route(), and the
  /// reference test_serve and test_delta pin the lane engine against.
  /// `touch`, if given, reports whether the answer was re-routed past a
  /// failed link or crossed a patched link.
  template <typename Overlay>
  Decision route_overlay(graph::Vertex u, graph::Vertex v, const Overlay& ov,
                         OverlayTouch* touch = nullptr,
                         std::vector<graph::Vertex>* path = nullptr) const;

  /// Queries in flight per route_batch() engine round.
  static constexpr int kBatchLanes = 16;

  /// Index into tables() of x's slab entry for cluster tree `tree`, or -1
  /// when x is not in that tree — a SIMD lower-bound scan over the slab's
  /// run of the tree-key column (util/simd.h). This is the lookup the
  /// (vertex, tree) table cache (serve/table_cache.h) memoizes.
  std::int32_t table_index(graph::Vertex x, std::int32_t tree) const {
    const std::int64_t lo = table_off_[static_cast<std::size_t>(x)];
    const std::int64_t hi = table_off_[static_cast<std::size_t>(x) + 1];
    const auto* keys = table_tree_.data() + lo;
    const auto len = static_cast<std::int32_t>(hi - lo);
    const std::int32_t rel = util::simd::lower_bound_i32(keys, len, tree);
    if (rel < len && keys[rel] == tree) {
      return static_cast<std::int32_t>(lo) + rel;
    }
    return -1;
  }

  const TableSlot* table_slot(graph::Vertex x, std::int32_t tree) const {
    const std::int32_t idx = table_index(x, tree);
    return idx < 0 ? nullptr : &tables_[static_cast<std::size_t>(idx)];
  }

  // -------------------------------------------------------- inspection --

  int n() const { return n_; }
  int k() const { return k_; }
  bool label_trick() const { return label_trick_ != 0; }
  std::int32_t num_trees() const { return num_trees_; }
  int vertex_level(graph::Vertex v) const {
    return level_[static_cast<std::size_t>(v)];
  }
  std::span<const TableSlot> tables() const { return tables_; }

  /// The table-slab sort-key column, parallel to tables(): entry i of
  /// tables() describes the vertex's state in cluster tree
  /// table_tree()[i]; tree-sorted within each vertex's slab.
  std::span<const std::int32_t> table_tree() const { return table_tree_; }

  /// v's packed wire label (core::encode_vertex_label bytes) — what the
  /// serving layer hands to a peer at connection setup.
  std::span<const std::uint8_t> label_blob(graph::Vertex v) const {
    return {blobs_.data() + blob_off_[static_cast<std::size_t>(v)],
            blobs_.data() + blob_off_[static_cast<std::size_t>(v) + 1]};
  }

  /// Total bytes of in-memory frozen state behind the serving views
  /// (section payloads; framing and the derived fused link map excluded).
  std::int64_t byte_size() const;

  // ------------------------------------------------- link-map accessors --
  // The delta layer (serve/delta.h) reads these to journal edge updates
  // against the frozen image: link indices are adj_off()[x] + port — the
  // same index the walk hands an overlay's link_patch().

  /// [n+1] offsets bounding each vertex's run of the fused link map.
  std::span<const std::int64_t> adj_off() const { return adj_off_; }

  /// The fused link map: entry adj_off()[x] + port is the (weight,
  /// neighbor) behind x's interface `port`.
  std::span<const LinkSlot> link_map() const { return links_; }

  /// [n+1] offsets bounding each vertex's table slab (parallel to
  /// tables()/table_tree()).
  std::span<const std::int64_t> table_off() const { return table_off_; }

  /// x's port toward neighbor `to`, or kNoPort when no such link exists —
  /// a linear scan of x's link row (degree-bounded; update-apply only,
  /// never the serving path).
  std::int32_t find_port(graph::Vertex x, graph::Vertex to) const {
    const std::int64_t lo = adj_off_[static_cast<std::size_t>(x)];
    const std::int64_t hi = adj_off_[static_cast<std::size_t>(x) + 1];
    for (std::int64_t i = lo; i < hi; ++i) {
      if (links_[static_cast<std::size_t>(i)].to == to) {
        return static_cast<std::int32_t>(i - lo);
      }
    }
    return graph::kNoPort;
  }

 private:
  /// The destination's tree label as the walk consumes it — a view into
  /// the slot pools, no ownership.
  struct DestView {
    std::int64_t a_prime = 0;
    std::int64_t local_a = 0;
    std::int32_t local_light_off = 0;
    std::int32_t local_light_len = 0;
    std::int32_t hop_off = 0;
    std::int32_t hop_len = 0;
  };

  /// TzTreeScheme::next_hop over slab fields: next port within the subtree
  /// T_{w(x)} toward the local label (dest_a, lights). kNoPort == arrived
  /// at the labelled vertex.
  std::int32_t tz_next(const TableSlot& t, graph::Vertex x,
                       std::int64_t dest_a, std::int32_t light_off,
                       std::int32_t light_len) const {
    if (dest_a == t.local_a) return graph::kNoPort;  // arrived
    if (dest_a < t.local_a || dest_a >= t.local_b) {
      NORS_CHECK_MSG(t.parent_port != graph::kNoPort,
                     "destination is outside this tree");
      return t.parent_port;
    }
    const LightSlot* l = lights_.data() + light_off;
    for (std::int32_t j = 0; j < light_len; ++j) {
      if (l[j].v == x) return l[j].port;
    }
    NORS_CHECK_MSG(t.heavy_child_port != graph::kNoPort,
                   "interval claims a descendant but no child exists");
    return t.heavy_child_port;
  }

  /// DistTreeScheme::next_hop over slab fields.
  std::int32_t next_port(const TableSlot& t, graph::Vertex x,
                         const DestView& d) const {
    if (d.a_prime == t.a_prime) {
      // Same subtree: pure local interval routing.
      return tz_next(t, x, d.local_a, d.local_light_off, d.local_light_len);
    }
    if (d.a_prime < t.a_prime || d.a_prime >= t.b_prime) {
      // Destination subtree is not below w(x) in T': go up.
      if (t.parent_port != graph::kNoPort) return t.parent_port;
      NORS_CHECK_MSG(t.up_port != graph::kNoPort,
                     "route-up requested at the tree root");
      return t.up_port;
    }
    // Strictly below w(x) in T': a light hop recorded in the destination
    // label, else the heavy T'-child.
    const HopSlot* h = hops_.data() + d.hop_off;
    for (std::int32_t j = 0; j < d.hop_len; ++j) {
      if (h[j].vi == t.subtree_root) {
        const std::int32_t p =
            tz_next(t, x, h[j].portal_a, h[j].light_off, h[j].light_len);
        return p == graph::kNoPort ? h[j].port : p;
      }
    }
    NORS_CHECK_MSG(t.heavy_prime != graph::kNoVertex,
                   "descend requested but w(x) has no T' children");
    const std::int32_t p = tz_next(t, x, t.heavy_portal_a, t.heavy_light_off,
                                   t.heavy_light_len);
    return p == graph::kNoPort ? t.heavy_cross_port : p;
  }

  static DestView view_of(const LabelSlot& s) {
    return {s.a_prime,       s.local_a, s.local_light_off,
            s.local_light_len, s.hop_off, s.hop_len};
  }
  static DestView view_of(const TrickSlot& s) {
    return {s.a_prime,       s.local_a, s.local_light_off,
            s.local_light_len, s.hop_off, s.hop_len};
  }

  /// Finds the cluster tree a (u, v) walk uses — the 4k-5 trick slab at a
  /// level-0 u, else the label scan (Algorithm 1 order, exactly as the
  /// live route()). Candidates are numbered by ordinal: 0 is the trick
  /// slab, 1 + i is label row i. The scan starts at ordinal `ord` and
  /// leaves the picked candidate's ordinal there, so a walk that met a
  /// failed link resumes at `ord + 1`. Returns the tree (or -1: no
  /// candidate left), fills `dest` and the decision's tree fields.
  /// `lookup` answers "is u in tree t" (index or -1), letting callers
  /// interpose a cache.
  template <typename IndexLookup>
  std::int32_t find_tree(graph::Vertex u, graph::Vertex v,
                         IndexLookup&& lookup, std::int32_t& ord,
                         DestView& dest, Decision& r) const;

  template <typename Cache, typename Overlay>
  void route_batch_impl(const Query* queries, std::size_t count,
                        Decision* out, Cache& cache, const Overlay& ov,
                        BatchStats* stats) const;

  /// Structural sanity of all offsets/ranges; throws on violation. Run
  /// after freeze() (cheap self-check) and after load()/map() (so a
  /// corrupt but checksum-valid image can never cause out-of-bounds
  /// serving reads).
  void validate() const;

  /// The one image emitter behind every save: streams every section from
  /// the instance, front to back, into `sink` (a byte vector or a buffered
  /// temp file, frozen.cc), hashing as it goes. The link-weight column is
  /// the caller's (the unpatched adj_w_, or a patched copy).
  template <typename Sink>
  void save_impl(Sink& sink, std::span<const std::int64_t> adj_w) const;

  /// adj_w_ with the weight overrides of save_with_link_weights() applied.
  std::vector<std::int64_t> patched_link_weights(
      std::span<const std::pair<std::int64_t, graph::Dist>> overrides) const;

  /// Heap storage behind the views on the owning paths (freeze, load) —
  /// and, on the map() path, behind the packed table slots, which are
  /// decoded out of the image rather than aliased. Held by pointer so
  /// moving the FrozenScheme never relocates the vectors the spans alias.
  struct Storage {
    std::vector<std::int32_t> level;
    std::vector<std::int32_t> tree_root;
    std::vector<std::int32_t> tree_level;
    std::vector<std::int64_t> table_off;
    std::vector<std::int32_t> table_tree;
    std::vector<TableSlot> tables;
    std::vector<LabelSlot> labels;
    std::vector<HopSlot> hops;
    std::vector<LightSlot> lights;
    std::vector<TrickRoot> trick_roots;
    std::vector<TrickSlot> tricks;
    std::vector<std::int64_t> adj_off;
    std::vector<std::int32_t> adj_to;
    std::vector<std::int64_t> adj_w;
    std::vector<std::int64_t> blob_off;
    std::vector<std::uint8_t> blobs;
  };

  /// RAII image memory of the map() path: a read-only file mapping.
  struct Mapping {
    Mapping() = default;
    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;
    ~Mapping();
    const std::uint8_t* data() const {
      return static_cast<const std::uint8_t*>(addr);
    }
    void* addr = nullptr;
    std::size_t len = 0;  // image bytes
  };

  /// Points every span at the owned vectors.
  void bind_owned();

  /// Builds the derived serving structures (the fused link map) from the
  /// bound adj views; called on every load path after binding.
  void build_derived();

  std::int32_t n_ = 0;
  std::int32_t k_ = 0;
  std::int32_t label_trick_ = 0;
  std::int32_t num_trees_ = 0;

  // Slab views — into storage_ (owning paths) or mapping_ (map()).
  std::span<const std::int32_t> level_;       // [n] hierarchy level
  std::span<const std::int32_t> tree_root_;   // [num_trees]
  std::span<const std::int32_t> tree_level_;  // [num_trees]
  std::span<const std::int64_t> table_off_;   // [n+1] bounds into tables_
  std::span<const std::int32_t> table_tree_;  // slab sort-key column
  std::span<const TableSlot> tables_;         // tree-sorted within each slab
  std::span<const LabelSlot> labels_;         // [n*k], stride k
  std::span<const HopSlot> hops_;             // global-hop pool
  std::span<const LightSlot> lights_;         // light-list pool
  std::span<const TrickRoot> trick_roots_;    // sorted by root
  std::span<const TrickSlot> tricks_;         // per root: sorted by dest
  std::span<const std::int64_t> adj_off_;     // [n+1] link-map offsets
  std::span<const std::int32_t> adj_to_;      // neighbor behind (v, port)
  std::span<const std::int64_t> adj_w_;       // weight of that link
  std::span<const std::int64_t> blob_off_;    // [n+1] byte offsets
  std::span<const std::uint8_t> blobs_;       // packed wire labels

  std::vector<LinkSlot> links_;  // derived fused link map (build_derived)

  std::unique_ptr<Storage> storage_;  // owned sections; null iff all mapped
  std::unique_ptr<Mapping> mapping_;  // map() path; null when owned
};

template <typename IndexLookup>
std::int32_t FrozenScheme::find_tree(graph::Vertex u, graph::Vertex v,
                                     IndexLookup&& lookup, std::int32_t& ord,
                                     DestView& dest, Decision& r) const {
  // Find the tree (Algorithm 1 + the 4k-5 trick), mirroring the live
  // RoutingScheme::route() decision order exactly. A resumed scan walks
  // the same order from a later ordinal, so the fallback is
  // deterministic: the first candidate whose path avoids every failure.
  if (ord == 0 && label_trick_ != 0 &&
      level_[static_cast<std::size_t>(u)] == 0) {
    // Is u a level-0 cluster root holding v's tree label locally?
    std::size_t a = 0, b = trick_roots_.size();
    while (a < b) {
      const std::size_t mid = (a + b) / 2;
      if (trick_roots_[mid].root < u) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    if (a < trick_roots_.size() && trick_roots_[a].root == u) {
      const TrickRoot& tr = trick_roots_[a];
      std::int64_t lo = tr.off, hi = tr.off + tr.len;
      while (lo < hi) {
        const std::int64_t mid = (lo + hi) / 2;
        if (tricks_[static_cast<std::size_t>(mid)].dest < v) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < tr.off + tr.len &&
          tricks_[static_cast<std::size_t>(lo)].dest == v) {
        dest = view_of(tricks_[static_cast<std::size_t>(lo)]);
        r.tree_root = u;
        r.tree_level = 0;
        r.via_trick = true;
        return tr.tree;
      }
    }
  }
  const LabelSlot* lv = labels_.data() +
                        static_cast<std::size_t>(v) *
                            static_cast<std::size_t>(k_);
  for (std::int32_t i = ord == 0 ? 0 : ord - 1; i < k_; ++i) {
    const LabelSlot& ls = lv[i];
    if (ls.member == 0) continue;  // v ∉ C̃(ẑ_i(v)): keep searching
    if (ls.tree < 0) continue;     // pivot has no cluster tree
    if (lookup(u, ls.tree) < 0) continue;  // u ∉ C̃(ẑ_i(v))
    dest = view_of(ls);
    r.tree_root = ls.pivot;
    r.tree_level = i;
    ord = i + 1;
    return ls.tree;
  }
  return -1;  // coverage failure (prevented by build; possible past failures)
}

template <typename Overlay>
Decision FrozenScheme::route_overlay(graph::Vertex u, graph::Vertex v,
                                     const Overlay& ov, OverlayTouch* touch,
                                     std::vector<graph::Vertex>* path) const {
  NORS_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  Decision r;
  if (path != nullptr) {
    path->clear();
    path->push_back(u);
  }
  if (u == v) {
    r.ok = true;
    return r;
  }

  bool fell_back = false;
  bool repaired = false;
  std::int32_t ord = 0;
  DestView dest;
  auto index = [this](graph::Vertex x, std::int32_t t) {
    return table_index(x, t);
  };
  std::int32_t tree = find_tree(u, v, index, ord, dest, r);

  // Walk the unique tree path over the frozen link map.
  graph::Vertex x = u;
  while (tree >= 0 && x != v) {
    const TableSlot* t = table_slot(x, tree);
    NORS_CHECK_MSG(t != nullptr, "walk left cluster tree " << tree);
    const std::int32_t port = next_port(*t, x, dest);
    NORS_CHECK_MSG(port != graph::kNoPort, "router stalled before arrival");
    const std::int64_t base = adj_off_[static_cast<std::size_t>(x)];
    // Both bounds: a corrupt-but-checksummed image could carry any port
    // value. Ports index the link map only here and in route_batch_impl's
    // kDecide stage, which checks them the same way.
    NORS_CHECK_MSG(
        port >= 0 && base + port < adj_off_[static_cast<std::size_t>(x) + 1],
        "bad port " << port << " at vertex " << x);
    const LinkSlot& link = links_[static_cast<std::size_t>(base + port)];
    graph::Dist w = link.w;
    if constexpr (Overlay::kActive) {
      const LinkPatch lp = ov.link_patch(base + port, w);
      if (lp == LinkPatch::kFailed) {
        // This tree path is broken: restart from u on the next candidate.
        fell_back = true;
        repaired = false;
        r = Decision{};
        if (path != nullptr) path->resize(1);
        x = u;
        ++ord;
        tree = find_tree(u, v, index, ord, dest, r);
        continue;
      }
      if (lp == LinkPatch::kWeight) repaired = true;
    }
    r.length += w;
    ++r.hops;
    x = link.to;
    if (path != nullptr) path->push_back(x);
    NORS_CHECK_MSG(r.hops <= 4 * n_, "routing loop detected");
  }
  if (touch != nullptr) {
    touch->fell_back = fell_back;
    touch->repaired = repaired;
  }
  r.ok = tree >= 0;  // -1: coverage failure (prevented by build)
  return r;
}

template <typename Cache, typename Overlay>
void FrozenScheme::route_batch_impl(const Query* queries, std::size_t count,
                                    Decision* out, Cache& cache,
                                    const Overlay& ov,
                                    BatchStats* stats) const {
  // Stage machine per in-flight query (DESIGN.md §10.2). A hop costs three
  // engine rounds — kPrep (slab bounds + key/link prefetch), kSearch (SIMD
  // key scan + slot prefetch), kDecide (port emit + link follow) — so the
  // DRAM misses of ~kBatchLanes/3 queries are outstanding at every point
  // instead of one query's miss chain serializing.
  auto touch = [](const void* p) { __builtin_prefetch(p, 0, 3); };

  struct Lane {
    enum class St : std::uint8_t { kIdle, kFind, kPrep, kSearch, kDecide };
    St state = St::kIdle;
    graph::Vertex u = 0, v = 0, x = 0;
    std::int32_t tree = -1;
    std::int32_t ord = 0;  // find_tree candidate ordinal of `tree`
    std::int64_t slab_lo = 0, slab_hi = 0;
    const TableSlot* slot = nullptr;
    DestView dest;
    Decision d;
    std::size_t pos = 0;
    bool fell_back = false;  // first-choice path met a failed link
    bool repaired = false;   // walk crossed an overridden-weight link
  };

  BatchStats local;
  BatchStats& bs = stats != nullptr ? *stats : local;

  // Synchronous (vertex, tree) → index probe for the find-tree scan: the
  // scan's candidate trees are data-dependent, so it is not pipelined —
  // it costs one round per query, not per decision.
  auto lookup_idx = [&](graph::Vertex x, std::int32_t tree) {
    std::int32_t idx = 0;
    if (cache.probe(x, tree, idx)) {
      ++bs.cache_hits;
      return idx;
    }
    idx = table_index(x, tree);
    cache.insert(x, tree, idx);
    ++bs.cache_misses;
    return idx;
  };

  std::size_t next = 0;
  int active = 0;
  Lane lanes[kBatchLanes];

  // Admits queries into `L` until one needs the pipeline (u != v); trivial
  // u == v queries retire immediately, like route(). Returns false when
  // the query stream is exhausted.
  auto admit = [&](Lane& L) {
    while (next < count) {
      const std::size_t i = next++;
      const graph::Vertex u = queries[i].u;
      const graph::Vertex v = queries[i].v;
      NORS_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
      if (u == v) {
        Decision r;
        r.ok = true;
        out[i] = r;
        ++bs.completed;
        continue;
      }
      L.state = Lane::St::kFind;
      L.u = u;
      L.v = v;
      L.x = u;
      L.d = Decision{};
      L.pos = i;
      L.ord = 0;
      L.fell_back = false;
      L.repaired = false;
      // One round of lead time for the find-tree reads: u's level and
      // slab bounds, v's label row (k slots ≤ 3 lines), u's link row
      // bounds.
      touch(&level_[static_cast<std::size_t>(u)]);
      touch(&table_off_[static_cast<std::size_t>(u)]);
      touch(&adj_off_[static_cast<std::size_t>(u)]);
      const auto* lv = labels_.data() + static_cast<std::size_t>(v) *
                                            static_cast<std::size_t>(k_);
      const auto* lb = reinterpret_cast<const char*>(lv);
      const std::size_t lbytes = static_cast<std::size_t>(k_) *
                                 sizeof(LabelSlot);
      for (std::size_t b = 0; b < lbytes; b += 64) touch(lb + b);
      return true;
    }
    L.state = Lane::St::kIdle;
    return false;
  };

  auto retire = [&](Lane& L) {
    L.d.ok = true;
    out[L.pos] = L.d;
    ++bs.completed;
    bs.hops += L.d.hops;
    if (L.fell_back) ++bs.masked;
    if (L.repaired) ++bs.repaired;
    if (!admit(L)) --active;
  };

  // Prefetches the first lines of x's link row and of the key run
  // [slab_lo, slab_hi) — issued as soon as the bounds are known.
  auto touch_row = [&](Lane& L) {
    const auto* keys = reinterpret_cast<const char*>(
        table_tree_.data() + L.slab_lo);
    const std::size_t kbytes =
        static_cast<std::size_t>(L.slab_hi - L.slab_lo) * sizeof(std::int32_t);
    for (std::size_t b = 0; b < kbytes && b < 256; b += 64) touch(keys + b);
    const std::int64_t base = adj_off_[static_cast<std::size_t>(L.x)];
    touch(links_.data() + base);
    touch(links_.data() + base + 4);
  };

  for (int l = 0; l < kBatchLanes; ++l) {
    if (admit(lanes[l])) ++active;
  }

  while (active > 0) {
    for (int l = 0; l < kBatchLanes; ++l) {
      Lane& L = lanes[l];
      switch (L.state) {
        case Lane::St::kIdle:
          break;

        case Lane::St::kFind: {
          L.tree = find_tree(L.u, L.v, lookup_idx, L.ord, L.dest, L.d);
          if (L.tree < 0) {
            // Coverage failure: report !ok, exactly like route(). Under an
            // overlay this can also mean every covering tree's path to v
            // crosses a failed link.
            out[L.pos] = L.d;
            ++bs.completed;
            if (L.fell_back) ++bs.masked;
            if (!admit(L)) --active;
            break;
          }
          // The walk's first lookup, (u, tree): the label scan just
          // searched u's slab (bounds prefetched at admit), so resolve it
          // synchronously and give the decide stage a round of lead time
          // on the slot, the destination's hop list and u's link row.
          const std::int32_t idx = lookup_idx(L.x, L.tree);
          NORS_CHECK_MSG(idx >= 0, "walk left cluster tree " << L.tree);
          L.slot = &tables_[static_cast<std::size_t>(idx)];
          touch(L.slot);
          touch(reinterpret_cast<const char*>(L.slot) + 55);
          touch(hops_.data() + L.dest.hop_off);
          const std::int64_t base = adj_off_[static_cast<std::size_t>(L.x)];
          touch(links_.data() + base);
          L.state = Lane::St::kDecide;
          break;
        }

        case Lane::St::kPrep: {
          // Bounds lines were prefetched when the hop landed on x.
          L.slab_lo = table_off_[static_cast<std::size_t>(L.x)];
          L.slab_hi = table_off_[static_cast<std::size_t>(L.x) + 1];
          touch_row(L);
          std::int32_t idx = 0;
          if (cache.probe(L.x, L.tree, idx)) {
            ++bs.cache_hits;
            NORS_CHECK_MSG(idx >= 0, "walk left cluster tree " << L.tree);
            L.slot = &tables_[static_cast<std::size_t>(idx)];
            touch(L.slot);
            touch(reinterpret_cast<const char*>(L.slot) + 55);
            L.state = Lane::St::kDecide;
            break;
          }
          L.state = Lane::St::kSearch;
          break;
        }

        case Lane::St::kSearch: {
          const auto* keys = table_tree_.data() + L.slab_lo;
          const auto len = static_cast<std::int32_t>(L.slab_hi - L.slab_lo);
          const std::int32_t rel =
              util::simd::lower_bound_i32(keys, len, L.tree);
          const bool found = rel < len && keys[rel] == L.tree;
          const std::int32_t idx =
              found ? static_cast<std::int32_t>(L.slab_lo) + rel : -1;
          cache.insert(L.x, L.tree, idx);
          ++bs.cache_misses;
          NORS_CHECK_MSG(found, "walk left cluster tree " << L.tree);
          L.slot = &tables_[static_cast<std::size_t>(idx)];
          touch(L.slot);
          touch(reinterpret_cast<const char*>(L.slot) + 55);
          L.state = Lane::St::kDecide;
          break;
        }

        case Lane::St::kDecide: {
          const TableSlot& t = *L.slot;
          const std::int32_t port = next_port(t, L.x, L.dest);
          NORS_CHECK_MSG(port != graph::kNoPort,
                         "router stalled before arrival");
          const std::int64_t base =
              adj_off_[static_cast<std::size_t>(L.x)];
          NORS_CHECK_MSG(
              port >= 0 &&
                  base + port <
                      adj_off_[static_cast<std::size_t>(L.x) + 1],
              "bad port " << port << " at vertex " << L.x);
          const LinkSlot& link =
              links_[static_cast<std::size_t>(base + port)];
          graph::Dist w = link.w;
          if constexpr (Overlay::kActive) {
            const LinkPatch lp = ov.link_patch(base + port, w);
            if (lp == LinkPatch::kFailed) {
              // This tree path is broken: restart the query from u and
              // resume the tree scan at the next candidate.
              L.fell_back = true;
              L.repaired = false;
              L.d = Decision{};
              L.x = L.u;
              ++L.ord;
              L.state = Lane::St::kFind;
              break;
            }
            if (lp == LinkPatch::kWeight) L.repaired = true;
          }
          L.d.length += w;
          ++L.d.hops;
          L.x = link.to;
          NORS_CHECK_MSG(L.d.hops <= 4 * n_, "routing loop detected");
          if (L.x == L.v) {
            retire(L);
            break;
          }
          // Next hop: warm the new vertex's bounds lines one round early.
          touch(&table_off_[static_cast<std::size_t>(L.x)]);
          touch(&adj_off_[static_cast<std::size_t>(L.x)]);
          L.state = Lane::St::kPrep;
          break;
        }
      }
    }
  }
}

}  // namespace nors::serve
