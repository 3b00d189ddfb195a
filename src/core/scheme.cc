#include "core/scheme.h"
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>

#include "graph/properties.h"
#include "primitives/bfs_tree.h"

namespace nors::core {

namespace {

using graph::Dist;
using graph::Vertex;

/// Converts a ClusterTree into the TreeSpec consumed by the Section-6 tree
/// routing. Flat cluster trees are already vertex-sorted, so the spec is a
/// straight column copy — no re-sort (the specs-stay-sorted regression test
/// in test_scheme pins this invariant).
treeroute::TreeSpec to_spec(const ClusterTree& t) {
  const std::size_t sz = t.size();
  treeroute::TreeSpec spec;
  spec.root = t.root;
  spec.members = t.members;
  spec.parent.resize(sz);
  spec.parent_port.resize(sz);
  for (std::size_t i = 0; i < sz; ++i) {
    if (t.members[i] == t.root) {
      spec.parent[i] = graph::kNoVertex;
      spec.parent_port[i] = graph::kNoPort;
    } else {
      spec.parent[i] = t.info[i].parent;
      spec.parent_port[i] = t.info[i].parent_port;
    }
  }
  return spec;
}

}  // namespace

RoutingScheme RoutingScheme::build(const graph::WeightedGraph& g,
                                   const SchemeParams& params) {
  NORS_CHECK(params.k >= 1);
  NORS_CHECK_MSG(graph::is_connected(g), "graph must be connected");
  RoutingScheme s;
  s.g_ = &g;
  s.params_ = params;
  const int n = g.n();
  const int k = params.k;
  util::Rng rng(params.seed);

  // Broadcast backbone: the paper assumes a BFS tree for Lemma-1 pipelines;
  // we build it for real and measure its rounds.
  const auto bfs = primitives::distributed_bfs_tree(g, 0, params.threads);
  s.ledger_.add("infra/BFS tree", congest::CostKind::kSimulated,
                bfs.construction_rounds, 0,
                "height=" + std::to_string(bfs.height));
  const int height = bfs.height;

  const primitives::Hierarchy h = primitives::Hierarchy::sample(n, k, rng);
  s.level_.resize(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) {
    s.level_[static_cast<std::size_t>(v)] = h.level(v);
  }

  // Exact pivots (levels ≤ ⌈k/2⌉), simulated.
  s.pivots_ = compute_exact_pivots(g, h, params, s.ledger_);

  // Preprocess + approximate pivots + all cluster trees, with a coverage
  // retry loop: if the whp hitting event fails and some vertex is missing
  // from a top-level tree, rebuild with doubled hop bound B.
  SchemeParams attempt_params = params;
  for (int attempt = 0;; ++attempt) {
    NORS_CHECK_MSG(attempt <= params.max_b_retries,
                   "top-level coverage failed after retries");
    s.trees_.clear();
    s.middle_settled_ = 0;
    congest::RoundLedger attempt_ledger;

    Preprocess pre;
    if (k >= 2) {
      pre = build_preprocess(g, h, attempt_params, height, attempt_ledger,
                             rng);
      s.beta_ = pre.beta();
      compute_approx_pivots(g, h, pre, s.pivots_, bfs, attempt_ledger);
    }

    for (int i = 0; i < k; ++i) {
      std::vector<ClusterTree> level_trees;
      LevelKind kind = classify_level(i, k);
      if (kind == LevelKind::kMiddle && !params.middle_level_opt) {
        // E8 ablation: the middle level can also run the small-level
        // Bellman–Ford (its i+1 pivots are exact) at a higher round cost.
        kind = LevelKind::kSmall;
      }
      switch (kind) {
        case LevelKind::kSmall:
          level_trees = build_small_level_trees(g, h, i, s.pivots_,
                                                attempt_params,
                                                attempt_ledger);
          break;
        case LevelKind::kMiddle:
          level_trees = build_middle_level_trees(g, h, i, s.pivots_,
                                                 attempt_params, height,
                                                 attempt_ledger,
                                                 &s.middle_settled_);
          break;
        case LevelKind::kLarge:
          level_trees = build_large_level_trees(g, h, i, s.pivots_, pre,
                                                attempt_params, bfs,
                                                attempt_ledger);
          break;
      }
      for (auto& t : level_trees) s.trees_.push_back(std::move(t));
    }

    s.pruned_ = sanitize_trees(g, s.trees_, params.threads);
    // The member/info columns were grown by push_back; give back the
    // geometric-growth slack now — the trees stay resident for the
    // scheme's lifetime and the batch peak sits on top of them (§9.2).
    for (auto& t : s.trees_) {
      t.members.shrink_to_fit();
      t.info.shrink_to_fit();
    }

    // Coverage: every top-level tree must span all of V (the find-tree loop
    // terminates at level k-1 only then).
    bool covered = true;
    for (const auto& t : s.trees_) {
      if (t.level == k - 1 && t.size() != static_cast<std::size_t>(n)) {
        covered = false;
        break;
      }
    }
    if (covered) {
      s.ledger_.merge(attempt_ledger);
      break;
    }
    s.coverage_retries_ = attempt + 1;
    attempt_params.hit_constant *= 2.0;  // doubles every hop bound B
  }

  // Section-6 tree routing over every cluster tree (batched, Remark 3).
  std::vector<treeroute::TreeSpec> specs;
  specs.reserve(s.trees_.size());
  s.tree_of_root_.assign(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < s.trees_.size(); ++i) {
    s.tree_of_root_[static_cast<std::size_t>(s.trees_[i].root)] =
        static_cast<int>(i);
    specs.push_back(to_spec(s.trees_[i]));
  }
  treeroute::DistTreeBatchParams tp;
  tp.seed = rng.next();
  tp.threads = params.threads;
  util::Rng tree_rng(tp.seed);
  // Construction scratch (network slabs, detection rows, cluster chains) is
  // done and freed: hand the heap's free pages back to the OS before the
  // Section-6 batch grows the scheme to its resident peak (DESIGN.md §9).
  // Without malloc_trim the freed pages (scratch, and growth churn from the
  // cluster-tree columns) stay resident under the batch's peak.
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
  s.tree_schemes_ = std::make_shared<treeroute::DistTreeBatch>(
      treeroute::build_dist_tree_batch(g, std::move(specs), tp, bfs,
                                       tree_rng));
  s.ledger_.merge(s.tree_schemes_->ledger);

  // Labels: per vertex, per level, the pivot and the tree label (if the
  // vertex belongs to its pivot's cluster tree). One flat arena, stride k.
  s.labels_.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(k),
                   {});
  for (Vertex v = 0; v < n; ++v) {
    LabelEntry* lv =
        s.labels_.data() + static_cast<std::size_t>(v) * static_cast<std::size_t>(k);
    for (int i = 0; i < k; ++i) {
      LabelEntry& le = lv[static_cast<std::size_t>(i)];
      le.pivot = s.pivots_.z(i, v);
      le.pivot_dist = s.pivots_.d(i, v);
      if (le.pivot == graph::kNoVertex) continue;
      const int ti = s.tree_of_root_[static_cast<std::size_t>(le.pivot)];
      if (ti < 0) continue;
      const auto& scheme =
          s.tree_schemes_->schemes[static_cast<std::size_t>(ti)];
      const int pos = scheme.find(v);
      if (pos >= 0) {
        le.member = true;
        le.tree_label = scheme.label_at(static_cast<std::size_t>(pos));
      }
    }
  }

  // The 4k-5 trick labels (level-0 roots holding their members' tree
  // labels) need no build step: they are exactly the member labels of the
  // root's own tree scheme, served via trick_label().

  // The finished scheme owns its own storage: a serving process should not
  // keep the heap's construction churn resident.
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
  return s;
}

RoutingScheme::RouteResult RoutingScheme::route(Vertex u, Vertex v) const {
  RouteResult r;
  r.path.push_back(u);
  if (u == v) {
    r.ok = true;
    return r;
  }

  // Find the tree (Algorithm 1, plus the 4k-5 trick: if v is in u's own
  // level-0 cluster, u holds v's tree label locally and routes in C̃(u)).
  const treeroute::DistTreeScheme* tree = nullptr;
  const treeroute::DistTreeScheme::VLabel* dest = nullptr;
  if (params_.label_trick && level_[static_cast<std::size_t>(u)] == 0) {
    const int ti = tree_of_root_[static_cast<std::size_t>(u)];
    if (ti >= 0) {
      const auto& scheme = tree_schemes_->schemes[static_cast<std::size_t>(ti)];
      const int pos = scheme.find(v);
      if (pos >= 0) {
        tree = &scheme;
        dest = &scheme.label_at(static_cast<std::size_t>(pos));
        r.tree_root = u;
        r.tree_level = 0;
        r.via_trick = true;
      }
    }
  }
  if (tree == nullptr) {
    for (int i = 0; i < params_.k; ++i) {
      const LabelEntry& le = label_entry(v, i);
      if (!le.member) continue;  // v ∉ C̃(ẑ_i(v)): keep searching
      const int ti = tree_of_root_[static_cast<std::size_t>(le.pivot)];
      if (ti < 0) continue;
      const auto& scheme =
          tree_schemes_->schemes[static_cast<std::size_t>(ti)];
      if (!scheme.contains(u)) continue;  // u ∉ C̃(ẑ_i(v))
      tree = &scheme;
      dest = &le.tree_label;
      r.tree_root = le.pivot;
      r.tree_level = i;
      break;
    }
  }
  if (tree == nullptr) return r;  // coverage failure (prevented by build)

  // Walk the unique tree path over real edges.
  Vertex x = u;
  while (x != v) {
    const std::int32_t port = tree->next_hop(x, *dest);
    NORS_CHECK_MSG(port != graph::kNoPort, "router stalled before arrival");
    const auto& e = g_->edge(x, port);
    r.length += e.w;
    ++r.hops;
    x = e.to;
    r.path.push_back(x);
    NORS_CHECK_MSG(r.hops <= 4 * g_->n(), "routing loop detected");
  }
  r.ok = true;
  return r;
}

std::int64_t RoutingScheme::table_words(Vertex v) const {
  // Pivot list (id + dist per level) + one tree-routing table per cluster
  // tree containing v (+ root id and b value), + trick labels at level-0
  // roots.
  std::int64_t words = 2LL * params_.k;
  for (std::size_t ti = 0; ti < trees_.size(); ++ti) {
    const auto& scheme = tree_schemes_->schemes[ti];
    const int pos = scheme.find(v);
    if (pos >= 0) {
      words += 2 + scheme.table_words_at(static_cast<std::size_t>(pos));
    }
  }
  if (params_.label_trick && level_[static_cast<std::size_t>(v)] == 0) {
    const int ti = tree_of_root_[static_cast<std::size_t>(v)];
    if (ti >= 0 && trees_[static_cast<std::size_t>(ti)].level == 0) {
      const auto& scheme = tree_schemes_->schemes[static_cast<std::size_t>(ti)];
      for (std::size_t i = 0; i < scheme.members().size(); ++i) {
        words += 1 + scheme.label_at(i).words();
      }
    }
  }
  return words;
}

std::int64_t RoutingScheme::label_words(Vertex v) const {
  std::int64_t words = 0;
  for (int i = 0; i < params_.k; ++i) {
    const LabelEntry& le = label_entry(v, i);
    words += 3 + (le.member ? le.tree_label.words() : 0);
  }
  return words;
}

int RoutingScheme::overlap(Vertex v) const {
  int c = 0;
  for (const auto& t : trees_) c += t.contains(v) ? 1 : 0;
  return c;
}

double RoutingScheme::stretch_bound() const {
  return core::stretch_bound(params_.k, params_.epsilon(),
                             params_.label_trick);
}

int RoutingScheme::tree_index(Vertex root) const {
  if (root < 0 || static_cast<std::size_t>(root) >= tree_of_root_.size()) {
    return -1;
  }
  return tree_of_root_[static_cast<std::size_t>(root)];
}

}  // namespace nors::core
