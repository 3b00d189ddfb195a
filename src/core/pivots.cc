#include "core/pivots.h"

#include "primitives/set_bf.h"

namespace nors::core {

int last_exact_pivot_level(int k) {
  const int ceil_half = (k + 1) / 2;
  return std::min(ceil_half, k - 1);
}

PivotTable compute_exact_pivots(const graph::WeightedGraph& g,
                                const primitives::Hierarchy& h,
                                const SchemeParams& params,
                                congest::RoundLedger& ledger) {
  const int n = g.n();
  const int k = params.k;
  PivotTable t;
  t.k = k;
  t.n = n;
  t.pivot.assign(static_cast<std::size_t>(k) * n, graph::kNoVertex);
  t.dist.assign(static_cast<std::size_t>(k + 1) * n, graph::kDistInf);
  t.exact.assign(static_cast<std::size_t>(k), 0);

  // Level 0: ẑ_0(v) = v, d = 0 — no communication needed.
  for (graph::Vertex v = 0; v < n; ++v) {
    t.pivot[static_cast<std::size_t>(v)] = v;
    t.dist[static_cast<std::size_t>(v)] = 0;
  }
  t.exact[0] = 1;

  const int last = last_exact_pivot_level(k);
  for (int i = 1; i <= last; ++i) {
    const auto r = primitives::distributed_set_bellman_ford(
        g, h.set_at(i), params.edge_capacity, params.threads);
    if (i < k) {
      t.exact[static_cast<std::size_t>(i)] = 1;
      for (graph::Vertex v = 0; v < n; ++v) {
        t.pivot[static_cast<std::size_t>(i) * n + v] =
            r.source[static_cast<std::size_t>(v)];
      }
    }
    for (graph::Vertex v = 0; v < n; ++v) {
      t.dist[static_cast<std::size_t>(i) * n + v] =
          r.dist[static_cast<std::size_t>(v)];
    }
    ledger.add("pivots/exact level " + std::to_string(i),
               congest::CostKind::kSimulated, r.rounds, r.messages,
               "|A_i|=" + std::to_string(h.set_at(i).size()));
  }
  return t;
}

}  // namespace nors::core
