#include "primitives/source_detection.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "util/arena.h"
#include "util/radix.h"
#include "util/threads.h"

namespace nors::primitives {

namespace {

using graph::Dist;
using graph::Vertex;

/// Reusable buffers for the per-(source, scale) Bellman–Ford sweeps. The
/// sweep allocates nothing and costs O(region explored), not O(n): between
/// runs the arrays hold their rest state (inf / kNoPort) and only the
/// entries named in `touched` are dirty, so each run resets exactly what it
/// wrote.
struct ScaleScratch {
  util::Buffer<Dist> cur, next;          // committed / tentative, q units
  util::Buffer<std::int32_t> cur_port;   // committed parent port
  util::Buffer<std::int32_t> next_port;  // tentative parent port
  std::vector<Vertex> frontier, changed;
  std::vector<Vertex> touched;           // every vertex written this run
  util::Buffer<char> in_touched;
  std::vector<Vertex> sort_scratch;

  explicit ScaleScratch(std::size_t n) {
    cur.assign_fill(n, graph::kDistInf);
    next.assign_fill(n, graph::kDistInf);
    cur_port.assign_fill(n, graph::kNoPort);
    next_port.assign_fill(n, graph::kNoPort);
    in_touched.assign_fill(n, 0);
  }

  void touch(Vertex v) {
    if (!in_touched[static_cast<std::size_t>(v)]) {
      in_touched[static_cast<std::size_t>(v)] = 1;
      touched.push_back(v);
    }
  }

  /// Restore the rest state after the caller has consumed `touched`.
  void reset() {
    for (const Vertex v : touched) {
      const auto vi = static_cast<std::size_t>(v);
      cur[vi] = graph::kDistInf;
      next[vi] = graph::kDistInf;
      cur_port[vi] = graph::kNoPort;
      next_port[vi] = graph::kNoPort;
      in_touched[vi] = 0;
    }
    touched.clear();
    frontier.clear();
    changed.clear();
  }
};

/// One distance scale of the [Nan14] rounding scheme: exact hop-bounded
/// Bellman–Ford under quantized weights wq (ceil(w/q), precomputed per
/// scale, aligned with the CSR half-edge array; wq == nullptr means q == 1,
/// where the quantized weight is the weight itself), truncated at `cap`
/// quantized units (the scale only covers its distance window — this is
/// what bounds the number of distinct distance levels, and what makes the
/// scheme genuinely approximate instead of collapsing into one exact
/// sweep). On return, s.cur holds quantized distances and s.cur_port the
/// parent ports for every vertex in s.touched; call s.reset() afterwards.
struct SweepOutcome {
  int iterations = 0;
  bool truncated = false;  // some relaxation hit the cap
};

template <bool kUnitQuantum>
SweepOutcome run_scale_impl(const graph::WeightedGraph& g, Vertex src,
                            std::int64_t hop_bound, const Dist* wq, Dist cap,
                            ScaleScratch& s) {
  SweepOutcome out;
  s.cur[static_cast<std::size_t>(src)] = 0;
  s.next[static_cast<std::size_t>(src)] = 0;
  s.touch(src);
  s.frontier.assign(1, src);
  for (std::int64_t it = 0; it < hop_bound && !s.frontier.empty(); ++it) {
    s.changed.clear();
    for (const Vertex v : s.frontier) {
      const Dist dv = s.cur[static_cast<std::size_t>(v)];
      const std::size_t base = g.edge_base(v);
      const auto nbrs = g.neighbors(v);
      for (std::size_t p = 0; p < nbrs.size(); ++p) {
        const Dist nd = dv + (kUnitQuantum ? nbrs[p].w : wq[base + p]);
        if (nd > cap) {
          out.truncated = true;
          continue;
        }
        const auto to = static_cast<std::size_t>(nbrs[p].to);
        if (nd < s.next[to]) {
          if (s.next[to] == s.cur[to]) s.changed.push_back(nbrs[p].to);
          s.next[to] = nd;
          s.next_port[to] = nbrs[p].rev;
        }
      }
    }
    if (s.changed.empty()) break;
    // The first-improvement guard above keeps `changed` duplicate-free, so
    // ordering ascending (the historical frontier order) is all that's left.
    util::radix_sort(s.changed, s.sort_scratch, g.n() - 1);
    for (const Vertex v : s.changed) {
      s.cur[static_cast<std::size_t>(v)] = s.next[static_cast<std::size_t>(v)];
      s.cur_port[static_cast<std::size_t>(v)] =
          s.next_port[static_cast<std::size_t>(v)];
      s.touch(v);
    }
    s.frontier.swap(s.changed);
    out.iterations = static_cast<int>(it) + 1;
  }
  return out;
}

SweepOutcome run_scale(const graph::WeightedGraph& g, Vertex src,
                       std::int64_t hop_bound, const Dist* wq, Dist cap,
                       ScaleScratch& s) {
  return wq == nullptr
             ? run_scale_impl<true>(g, src, hop_bound, nullptr, cap, s)
             : run_scale_impl<false>(g, src, hop_bound, wq, cap, s);
}

/// Scratch for the exact-scale fast path (DESIGN.md §7): a bucket-queue
/// (Dial) Dijkstra that reconstructs the Bellman–Ford sweep's committed
/// layers and winning parent ports *during relaxation* — every shortest-path
/// predecessor of v settles (and therefore relaxes v) strictly before v
/// settles, so the first-writer tie-break resolves with one lexicographic
/// candidate update on equal proposals, and the hot loop does no more work
/// than a plain Dijkstra. A compact int32 CSR (8 bytes per half edge, port
/// order preserved) is built once per source_detection call so the sweep's
/// working set stays cache-resident; everything else resets through
/// `touched`, so a run costs O(region + max distance), never O(n).
struct FastScratch {
  struct Cell {
    std::int32_t dist;   // INT32_MAX at rest
    std::int32_t layer;  // -1 = not settled; set at settle time
  };
  struct Cand {  // pending winner for the current tentative value
    std::int32_t layer, u, port_at_u, port;
  };
  util::Buffer<Cell> cell;
  util::Buffer<Cand> cand;  // needs no rest state: improvements reset it
  std::vector<Vertex> touched;
  std::vector<std::vector<Vertex>> buckets;
  int max_layer = 0;
  // run_pruned only: members in settle order, past-window offers.
  std::vector<Vertex> member_ids, overflow, sort_scratch;
  // Compact CSR (built lazily, same indexing as the graph's half edges).
  bool csr_built = false;
  bool csr_ok = false;
  util::Buffer<std::int64_t> off;
  struct Edge {
    std::int32_t to, w;
  };
  util::Buffer<Edge> edges;
  util::Buffer<std::int32_t> rev;

  explicit FastScratch(std::size_t n) {
    cell.assign_fill(n, {INT32_MAX, -1});
    cand.assign_fill(n, {0, 0, 0, 0});
  }

  void build_csr(const graph::WeightedGraph& g) {
    csr_built = true;
    if (g.max_weight() > INT32_MAX) return;  // csr_ok stays false
    const int n = g.n();
    off.ensure(static_cast<std::size_t>(n) + 1);
    edges.ensure(g.total_half_edges());
    rev.ensure(g.total_half_edges());
    std::size_t at = 0;
    for (Vertex v = 0; v < n; ++v) {
      off[static_cast<std::size_t>(v)] = static_cast<std::int64_t>(at);
      for (const auto& e : g.neighbors(v)) {
        edges[at] = {e.to, static_cast<std::int32_t>(e.w)};
        rev[at] = e.rev;
        ++at;
      }
    }
    off[static_cast<std::size_t>(n)] = static_cast<std::int64_t>(at);
    csr_ok = true;
  }

  void reset() {
    for (const Vertex v : touched) {
      cell[static_cast<std::size_t>(v)] = {INT32_MAX, -1};
    }
    touched.clear();
  }
};

/// Exact-quantum fast path. A q=1 scale whose sweep never hits `cap` and
/// converges within the hop bound computes the plain single-source shortest
/// paths — so run the Dial Dijkstra above and reproduce the sweep's outputs
/// exactly:
///
///   * distances — identical by optimality;
///   * iterations — the sweep commits v's final value at iteration
///     L(v) − 1, where L(v) = 1 + min over shortest-path predecessors
///     (L(src) = 0), so its iteration count is max_v L(v);
///   * parent ports — the sweep's winner is the first relaxation achieving
///     the final value: the predecessor with minimal (L(u), u), and among
///     parallel edges of that u the one with the smallest port at u. Only
///     exact-valued predecessors can ever propose a final value, so the
///     candidate kept on equal proposals is exact, not heuristic.
///
/// Sound only when no proposal can exceed `cap` (else the sweep would set
/// `truncated`): every value the sweep commits at iteration t is the weight
/// of a ≤(t+1)-hop path, so proposals are bounded by max_w · (max_layer+1).
/// Returns false — leaving no state behind — when that margin, the hop
/// bound, or the cap itself fails; the caller falls back to the sweep. On
/// success, f.cell/f.cand hold the sweep's exact output for f.touched.
bool run_fast_exact(const graph::WeightedGraph& g, Vertex src,
                    std::int64_t hop_bound, Dist cap, FastScratch& f) {
  if (!f.csr_built) f.build_csr(g);
  // Distances live in int32 cells; a window past 2^30 cannot overflow-check
  // cheaply, so leave it to the reference sweep.
  if (!f.csr_ok || cap >= (Dist{1} << 30)) return false;
  const auto cap32 = static_cast<std::int32_t>(cap);
  f.max_layer = 0;
  f.cell[static_cast<std::size_t>(src)].dist = 0;
  f.cand[static_cast<std::size_t>(src)].port = graph::kNoPort;
  f.touched.push_back(src);
  if (f.buckets.empty()) f.buckets.resize(1);
  f.buckets[0].push_back(src);
  std::int32_t max_seen = 0;
  bool failed = false;
  for (std::int32_t d = 0; d <= max_seen && !failed; ++d) {
    // Index f.buckets afresh on every access: pushes below may grow (and
    // relocate) the outer bucket array.
    for (std::size_t bi = 0;
         bi < f.buckets[static_cast<std::size_t>(d)].size(); ++bi) {
      const Vertex v = f.buckets[static_cast<std::size_t>(d)][bi];
      const auto vi = static_cast<std::size_t>(v);
      if (f.cell[vi].dist != d || f.cell[vi].layer >= 0) continue;  // stale
      // Settle v: every shortest-path predecessor has already relaxed v, so
      // its committed layer and winning port are final in f.cand.
      const std::int32_t lv =
          v == src ? 0 : f.cand[vi].layer + 1;
      f.cell[vi].layer = lv;
      f.max_layer = std::max(f.max_layer, static_cast<int>(lv));
      const std::int64_t b0 = f.off[vi];
      const std::int64_t b1 = f.off[vi + 1];
      for (std::int64_t ei = b0; ei < b1; ++ei) {
        const auto [to, w] = f.edges[static_cast<std::size_t>(ei)];
        const std::int64_t nd64 = static_cast<std::int64_t>(d) + w;
        if (nd64 > cap32) {
          // Outside the scale window: the sweep could truncate here, so
          // the fast path is not provably equivalent. Clean up and bail.
          for (std::int32_t dd = d; dd <= max_seen; ++dd) {
            f.buckets[static_cast<std::size_t>(dd)].clear();
          }
          failed = true;
          break;
        }
        const auto nd = static_cast<std::int32_t>(nd64);
        const auto toi = static_cast<std::size_t>(to);
        const std::int32_t cur = f.cell[toi].dist;
        if (nd < cur) {
          if (cur == INT32_MAX) f.touched.push_back(to);
          f.cell[toi].dist = nd;
          f.cand[toi] = {lv, v, static_cast<std::int32_t>(ei - b0),
                         f.rev[static_cast<std::size_t>(ei)]};
          if (nd > max_seen) {
            max_seen = nd;
            if (f.buckets.size() <= static_cast<std::size_t>(nd)) {
              f.buckets.resize(static_cast<std::size_t>(nd) + 1);
            }
          }
          f.buckets[static_cast<std::size_t>(nd)].push_back(to);
        } else if (nd == cur) {
          // Equal proposal: keep the sweep's first writer — lexicographic
          // min over (committed layer, predecessor id, port at pred).
          auto& c = f.cand[toi];
          const std::int32_t p_at_u = static_cast<std::int32_t>(ei - b0);
          if (lv < c.layer ||
              (lv == c.layer &&
               (v < c.u || (v == c.u && p_at_u < c.port_at_u)))) {
            c = {lv, v, p_at_u, f.rev[static_cast<std::size_t>(ei)]};
          }
        }
      }
    }
    f.buckets[static_cast<std::size_t>(d)].clear();
  }

  // Equivalence margin: the sweep must have converged strictly within the
  // hop bound and no proposal may have reached the cap.
  const Dist max_w = std::max<Dist>(1, g.max_weight());
  if (!failed &&
      (f.max_layer >= hop_bound ||
       max_w * (static_cast<Dist>(f.max_layer) + 1) > cap)) {
    failed = true;
  }
  if (failed) {
    f.reset();
    return false;
  }
  return true;
}

/// Join-pruned Dial sweep (cluster_detection_stream): run_fast_exact's
/// settle rule — every shortest-path predecessor of v settles and relaxes v
/// before v settles, so layers and first-writer ports resolve during
/// relaxation — but edges are relaxed only out of members (the source, and
/// every v settled at d < bound[v]). Non-members still settle (that is how
/// they are classified) and are never expanded. The caller's soundness
/// argument needs every member inside the scale window (distance ≤ cap,
/// layer ≤ hop_bound); returns false — leaving no state behind — when a
/// member breaks it. A relaxation past `cap` that offers a vertex a value
/// below its bound names a member (the offer is a real path length), which
/// lies beyond the window unless it settles inside it. On success `out`
/// holds the members in ascending vertex order. `settled` counts every
/// settled vertex, success or not.
bool run_pruned(const graph::WeightedGraph& g, Vertex src,
                std::int64_t hop_bound, Dist cap, const Dist* bound,
                FastScratch& f, std::vector<DetectedMember>& out,
                std::int64_t& settled) {
  if (!f.csr_built) f.build_csr(g);
  if (!f.csr_ok || cap >= (Dist{1} << 30)) return false;
  const auto cap32 = static_cast<std::int32_t>(cap);
  f.member_ids.clear();
  f.overflow.clear();
  f.cell[static_cast<std::size_t>(src)].dist = 0;
  f.cand[static_cast<std::size_t>(src)].port = graph::kNoPort;
  f.touched.push_back(src);
  if (f.buckets.empty()) f.buckets.resize(1);
  f.buckets[0].push_back(src);
  std::int32_t max_seen = 0;
  bool ok = true;
  for (std::int32_t d = 0; d <= max_seen && ok; ++d) {
    for (std::size_t bi = 0;
         bi < f.buckets[static_cast<std::size_t>(d)].size(); ++bi) {
      const Vertex v = f.buckets[static_cast<std::size_t>(d)][bi];
      const auto vi = static_cast<std::size_t>(v);
      if (f.cell[vi].dist != d || f.cell[vi].layer >= 0) continue;  // stale
      const std::int32_t lv = v == src ? 0 : f.cand[vi].layer + 1;
      f.cell[vi].layer = lv;
      ++settled;
      if (v != src && d >= bound[vi]) continue;  // not a member: no relax
      if (lv > hop_bound) {
        ok = false;
        break;
      }
      f.member_ids.push_back(v);
      const std::int64_t b0 = f.off[vi];
      const std::int64_t b1 = f.off[vi + 1];
      for (std::int64_t ei = b0; ei < b1; ++ei) {
        const auto [to, w] = f.edges[static_cast<std::size_t>(ei)];
        const std::int64_t nd64 = static_cast<std::int64_t>(d) + w;
        const auto toi = static_cast<std::size_t>(to);
        if (nd64 > cap32) {
          if (nd64 < bound[toi]) f.overflow.push_back(to);
          continue;
        }
        const auto nd = static_cast<std::int32_t>(nd64);
        const std::int32_t cur = f.cell[toi].dist;
        if (nd < cur) {
          if (cur == INT32_MAX) f.touched.push_back(to);
          f.cell[toi].dist = nd;
          f.cand[toi] = {lv, v, static_cast<std::int32_t>(ei - b0),
                         f.rev[static_cast<std::size_t>(ei)]};
          if (nd > max_seen) {
            max_seen = nd;
            if (f.buckets.size() <= static_cast<std::size_t>(nd)) {
              f.buckets.resize(static_cast<std::size_t>(nd) + 1);
            }
          }
          f.buckets[static_cast<std::size_t>(nd)].push_back(to);
        } else if (nd == cur) {
          auto& c = f.cand[toi];
          const std::int32_t p_at_u = static_cast<std::int32_t>(ei - b0);
          if (lv < c.layer ||
              (lv == c.layer &&
               (v < c.u || (v == c.u && p_at_u < c.port_at_u)))) {
            c = {lv, v, p_at_u, f.rev[static_cast<std::size_t>(ei)]};
          }
        }
      }
    }
    if (!ok) {
      for (std::int32_t dd = d; dd <= max_seen; ++dd) {
        f.buckets[static_cast<std::size_t>(dd)].clear();
      }
    } else {
      f.buckets[static_cast<std::size_t>(d)].clear();
    }
  }
  // Members offered a value past the window must have settled inside it.
  for (const Vertex v : f.overflow) {
    if (!ok) break;
    if (f.cell[static_cast<std::size_t>(v)].layer < 0) ok = false;
  }
  if (ok) {
    util::radix_sort(f.member_ids, f.sort_scratch, g.n() - 1);
    out.clear();
    for (const Vertex v : f.member_ids) {
      const auto vi = static_cast<std::size_t>(v);
      out.push_back({v, f.cell[vi].dist, f.cand[vi].port});
    }
  }
  f.reset();
  return ok;
}

struct Scale {
  Dist q;
  Dist cap;
};

/// Per-call state of one source-detection stream: the scale schedule, the
/// lazily built quantized weights of the q > 1 scales, and one scratch set
/// and output row per pool worker. full_row() runs one source's whole scale
/// sequence; both streaming entry points drive it.
class Detector {
 public:
  struct Worker {
    std::unique_ptr<ScaleScratch> scale;
    std::unique_ptr<FastScratch> fast;
    util::Buffer<Dist> row_d;
    util::Buffer<std::int32_t> row_p;
    int max_iterations = 0;
    // cluster_detection_stream only.
    std::vector<DetectedMember> members;
    std::int64_t settled = 0, pruned = 0, fallback = 0;
  };

  Detector(const graph::WeightedGraph& g, const std::vector<Vertex>& sources,
           std::int64_t hop_bound, const util::Epsilon& eps, int threads,
           bool fast_paths)
      : g_(g), sources_(sources), hop_bound_(hop_bound),
        fast_enabled_(fast_paths) {
    NORS_CHECK(!sources.empty());
    NORS_CHECK(hop_bound >= 1);
    const auto n = static_cast<std::size_t>(g.n());
    // Scales 2^s up to the largest possible B-hop distance. Scale s uses
    // quantum q_s = max(1, floor(ε·2^s / (2B))) and covers rounded
    // distances up to cap_s = ceil(2^s/q_s) + B; every true B-hop distance
    // d lands in the window of s* = ceil(log2 d) with error ≤ B·q_{s*} ≤ ε·d.
    const Dist max_dist = std::min<Dist>(
        graph::kDistInf / 4,
        static_cast<Dist>(hop_bound) * std::max<Dist>(1, g.max_weight()));
    for (Dist scale = 1; scale > 0 && scale / 2 <= max_dist; scale *= 2) {
      const __int128 num = static_cast<__int128>(eps.num()) * scale;
      const __int128 den = static_cast<__int128>(eps.den()) * 2 * hop_bound;
      const Dist q = std::max<Dist>(1, static_cast<Dist>(num / den));
      const Dist cap = (scale + q - 1) / q + hop_bound;
      scales_.push_back({q, cap});
    }
    wq_.resize(scales_.size());
    for (std::size_t s = 0; s < scales_.size(); ++s) {
      wq_once_.push_back(std::make_unique<std::once_flag>());
    }
    outcomes0_.reserve(scales_.size());

    // Worker arenas: sources are independent — each owns its sink slot and
    // its own bookkeeping — so the pool size changes wall-clock only; the
    // serial folds consume per-worker records in a fixed order.
    nthreads_ = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(util::resolve_threads(threads)),
        sources.size()));
    workers_.resize(static_cast<std::size_t>(std::max(1, nthreads_)));
    for (Worker& w : workers_) {
      w.scale = std::make_unique<ScaleScratch>(n);
      w.fast = std::make_unique<FastScratch>(n);
      w.row_d.ensure(n);
      w.row_p.ensure(n);
    }
  }

  int nthreads() const { return nthreads_; }
  Worker& worker(int t) { return workers_[static_cast<std::size_t>(t)]; }
  const std::vector<Worker>& workers() const { return workers_; }
  /// The first scale's window when it is exact (q = 1), else -1.
  Dist first_exact_cap() const {
    return scales_[0].q == 1 ? scales_[0].cap : -1;
  }

  /// Source-major execution: source si runs exactly the scale sequence it
  /// would have run scale-major — its early exit and fast-path failure cap
  /// depend only on its own outcomes — so its row (min over its scales) is
  /// final in w.row_d / w.row_p on return, and the |sources| × n slab never
  /// exists. Exact (q=1) scales take the Dial fast path when its
  /// equivalence margin holds (run_fast_exact above) — the common case for
  /// the preprocessing and middle-level calls, whose hop bounds dwarf the
  /// true distances; the quantized reference sweep remains the general
  /// path and the ground truth the fast path is tested against.
  void full_row(std::size_t si, Worker& w) {
    const auto n = static_cast<std::size_t>(g_.n());
    Dist* row_d = w.row_d.data();
    std::int32_t* row_p = w.row_p.data();
    // The row holds the previous source's values until the first executed
    // scale overwrites or resets it: a dense first scale writes every slot
    // in one fused pass (no separate fill + min-merge), a sparse first
    // scale resets the row before its merge. Later scales min-merge. This
    // is value-identical to fill-then-merge-every-scale — the first
    // executed scale's merge wins every slot against an all-∞ row.
    bool row_virgin = true;
    const auto reset_row = [&] {
      std::fill(row_d, row_d + n, graph::kDistInf);
      std::fill(row_p, row_p + n, graph::kNoPort);
    };
    // Cap at which the fast path already failed: a failure only heals once
    // the scale window grows past it.
    Dist fast_failed_cap = -1;
    for (std::size_t sc_idx = 0; sc_idx < scales_.size(); ++sc_idx) {
      const Scale& sc = scales_[sc_idx];
      SweepOutcome run;
      if (fast_enabled_ && sc.q == 1 && fast_failed_cap < sc.cap &&
          run_fast_exact(g_, sources_[si], hop_bound_, sc.cap, *w.fast)) {
        FastScratch& fast = *w.fast;
        if (fast.touched.size() * 2 >= n) {
          // Dense region: one sequential pass over the cells beats chasing
          // the touched list in discovery order; it restores the rest state
          // as it reads, replacing the touched-driven reset.
          if (row_virgin) {
            for (std::size_t v = 0; v < n; ++v) {
              const std::int32_t dv = fast.cell[v].dist;
              if (dv == INT32_MAX) {
                row_d[v] = graph::kDistInf;
                row_p[v] = graph::kNoPort;
                continue;
              }
              fast.cell[v] = {INT32_MAX, -1};
              row_d[v] = dv;
              row_p[v] = fast.cand[v].port;
            }
          } else {
            for (std::size_t v = 0; v < n; ++v) {
              const std::int32_t dv = fast.cell[v].dist;
              if (dv == INT32_MAX) continue;
              fast.cell[v] = {INT32_MAX, -1};
              if (dv < row_d[v]) {
                row_d[v] = dv;
                row_p[v] = fast.cand[v].port;
              }
            }
          }
          fast.touched.clear();
        } else {
          if (row_virgin) reset_row();
          for (const Vertex tv : fast.touched) {
            const auto v = static_cast<std::size_t>(tv);
            const Dist d = fast.cell[v].dist;
            if (d < row_d[v]) {
              row_d[v] = d;
              row_p[v] = fast.cand[v].port;
            }
          }
          fast.reset();
        }
        run = {fast.max_layer, false};
      } else {
        if (sc.q == 1) fast_failed_cap = sc.cap;
        ScaleScratch& scratch = *w.scale;
        run = run_scale(g_, sources_[si], hop_bound_, wq_for(sc_idx), sc.cap,
                        scratch);
        if (row_virgin) reset_row();
        for (const Vertex tv : scratch.touched) {
          const auto v = static_cast<std::size_t>(tv);
          const Dist d = scratch.cur[v] * sc.q;
          if (d < row_d[v]) {
            row_d[v] = d;
            row_p[v] = scratch.cur_port[v];
          }
        }
        scratch.reset();
      }
      row_virgin = false;
      // Source 0's per-scale outcomes drive the round charge (the pipelined
      // [Nan14] schedule runs all sources of one scale together), recorded
      // by whichever worker runs source 0 and folded serially in fold().
      if (si == 0) outcomes0_.push_back(run);
      w.max_iterations = std::max(w.max_iterations, run.iterations);
      // Early exit: an untruncated, fully converged exact-quantum sweep is
      // the complete d^(B); coarser scales can never improve on it.
      if (sc.q == 1 && !run.truncated && run.iterations < hop_bound_) break;
    }
    if (row_virgin) reset_row();  // no scale executed (impossible today,
                                  // but the sink contract is a full row)
  }

  /// Serial fold: the round charge per scale source 0 executed — the
  /// pipelined schedule runs all sources of one scale together, so each
  /// charge is |S| + hop layers + D — plus the iteration maximum over the
  /// rows built.
  void fold(int bfs_height, SourceDetectionStats& out) const {
    out.distinct_scales = static_cast<int>(scales_.size());
    for (const SweepOutcome& run : outcomes0_) {
      out.round_cost +=
          static_cast<std::int64_t>(sources_.size()) +
          std::min<std::int64_t>(hop_bound_, std::max(1, run.iterations)) +
          2 * static_cast<std::int64_t>(bfs_height);
      ++out.executed_scales;
    }
    for (const Worker& w : workers_) {
      out.max_iterations = std::max(out.max_iterations, w.max_iterations);
    }
  }

 private:
  /// Quantized weights for scale sc_idx (nullptr when q == 1: the sweeps
  /// read the CSR weights directly). Built once, on first use, and shared
  /// read-only across sources.
  const Dist* wq_for(std::size_t sc_idx) {
    if (scales_[sc_idx].q == 1) return nullptr;
    std::call_once(*wq_once_[sc_idx], [&] {
      const Dist q = scales_[sc_idx].q;
      Dist* w = wq_[sc_idx].ensure(g_.total_half_edges());
      std::size_t idx = 0;
      for (Vertex v = 0; v < g_.n(); ++v) {
        for (const auto& e : g_.neighbors(v)) {
          w[idx++] = (e.w + q - 1) / q;
        }
      }
    });
    return wq_[sc_idx].data();
  }

  const graph::WeightedGraph& g_;
  const std::vector<Vertex>& sources_;
  std::int64_t hop_bound_;
  std::vector<Scale> scales_;
  std::vector<util::Buffer<Dist>> wq_;
  std::vector<std::unique_ptr<std::once_flag>> wq_once_;
  bool fast_enabled_;  // false: every exact scale runs the reference sweep
  int nthreads_ = 1;
  std::vector<Worker> workers_;
  std::vector<SweepOutcome> outcomes0_;
};

}  // namespace

SourceDetectionStats source_detection_stream(
    const graph::WeightedGraph& g, const std::vector<Vertex>& sources,
    std::int64_t hop_bound, const util::Epsilon& eps, int bfs_height,
    int threads, const SourceRowSink& sink, bool fast_paths) {
  Detector det(g, sources, hop_bound, eps, threads, fast_paths);
  const auto n = static_cast<std::size_t>(g.n());
  util::parallel_for(det.nthreads(), sources.size(),
                     [&](int t, std::size_t si) {
                       Detector::Worker& w = det.worker(t);
                       det.full_row(si, w);
                       sink(static_cast<int>(si), {w.row_d.data(), n},
                            {w.row_p.data(), n});
                     });
  SourceDetectionStats out;
  det.fold(bfs_height, out);
  return out;
}

ClusterDetectionStats cluster_detection_stream(
    const graph::WeightedGraph& g, const std::vector<Vertex>& sources,
    std::int64_t hop_bound, const util::Epsilon& eps, int bfs_height,
    int threads, std::span<const Dist> join_bound, const ClusterSink& sink) {
  const auto n = static_cast<std::size_t>(g.n());
  NORS_CHECK(join_bound.size() == n);
  Detector det(g, sources, hop_bound, eps, threads, /*fast_paths=*/true);
  const Dist cap = det.first_exact_cap();
  const bool prune = cap >= 0;
  util::parallel_for(det.nthreads(), sources.size(), [&](int t,
                                                         std::size_t si) {
    Detector::Worker& w = det.worker(t);
    const Vertex u = sources[si];
    if (prune && si != 0) {
      if (run_pruned(g, u, hop_bound, cap, join_bound.data(), *w.fast,
                     w.members, w.settled)) {
        ++w.pruned;
        sink(static_cast<int>(si), w.members);
        return;
      }
      ++w.fallback;
    }
    // Full stream, then the join filter over the finished row.
    det.full_row(si, w);
    w.settled += static_cast<std::int64_t>(n);
    w.members.clear();
    const Dist* row_d = w.row_d.data();
    const std::int32_t* row_p = w.row_p.data();
    for (std::size_t v = 0; v < n; ++v) {
      const Dist bv = row_d[v];
      if (graph::is_inf(bv)) continue;
      if (static_cast<Vertex>(v) != u && bv >= join_bound[v]) continue;
      w.members.push_back({static_cast<Vertex>(v), bv, row_p[v]});
    }
    sink(static_cast<int>(si), w.members);
  });
  ClusterDetectionStats out;
  det.fold(bfs_height, out);
  for (const Detector::Worker& w : det.workers()) {
    out.pruned_sources += w.pruned;
    out.fallback_sources += w.fallback;
    out.settled += w.settled;
  }
  return out;
}

SourceDetectionResult source_detection(
    const graph::WeightedGraph& g, const std::vector<Vertex>& sources,
    std::int64_t hop_bound, const util::Epsilon& eps, int bfs_height,
    int threads, bool fast_paths) {
  const auto n = static_cast<std::size_t>(g.n());
  SourceDetectionResult out;
  out.n_ = n;
  out.sources = sources;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out.source_index[sources[i]] = static_cast<int>(i);
  }
  out.dist.resize(sources.size() * n);
  out.parent_port.resize(sources.size() * n);
  const SourceDetectionStats stats = source_detection_stream(
      g, sources, hop_bound, eps, bfs_height, threads,
      [&](int si, std::span<const Dist> dist,
          std::span<const std::int32_t> port) {
        std::copy(dist.begin(), dist.end(),
                  out.dist.begin() + static_cast<std::ptrdiff_t>(
                                         static_cast<std::size_t>(si) * n));
        std::copy(port.begin(), port.end(),
                  out.parent_port.begin() +
                      static_cast<std::ptrdiff_t>(
                          static_cast<std::size_t>(si) * n));
      },
      fast_paths);
  out.round_cost = stats.round_cost;
  out.distinct_scales = stats.distinct_scales;
  out.executed_scales = stats.executed_scales;
  out.max_iterations = stats.max_iterations;
  return out;
}

}  // namespace nors::primitives
