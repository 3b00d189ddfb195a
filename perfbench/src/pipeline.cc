#include "pipeline.h"

#include <algorithm>
#include <vector>

#include "common.h"
#include "graph/generators.h"
#include "serve/frozen.h"

namespace pb {

nors::graph::WeightedGraph make_graph(int n, std::uint64_t seed) {
  nors::util::Rng rng(seed);
  return nors::graph::connected_gnm(
      n, 3LL * n, nors::graph::WeightSpec::uniform(1, 32), rng);
}

BuildResult build_image(const nors::graph::WeightedGraph& g, int k,
                        std::uint64_t seed, int threads,
                        const std::string& path) {
  nors::core::SchemeParams params;
  params.k = k;
  params.seed = seed;
  params.threads = threads;

  BuildResult r;
  const double t0 = now_s();
  const auto scheme = nors::core::RoutingScheme::build(g, params);
  const double t1 = now_s();
  {
    const auto frozen = nors::serve::FrozenScheme::freeze(scheme);
    const double t2 = now_s();
    frozen.save_file(path);
    const double t3 = now_s();
    r.build_s = t1 - t0;
    r.freeze_s = t2 - t1;
    r.save_s = t3 - t2;
  }

  r.rounds = scheme.total_rounds();
  r.trees = static_cast<std::int64_t>(scheme.trees().size());
  r.stretch_bound = scheme.stretch_bound();
  // Table words of every vertex in one pass over the trees (the per-vertex
  // RoutingScheme::table_words scans every tree), checked against it on a
  // sample.
  std::vector<std::int64_t> words(static_cast<std::size_t>(g.n()),
                                  2LL * scheme.params().k);
  for (std::size_t ti = 0; ti < scheme.trees().size(); ++ti) {
    const auto& ts = scheme.tree_scheme(ti);
    const auto& members = ts.members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      words[static_cast<std::size_t>(members[i])] += 2 + ts.table_words_at(i);
    }
    const auto& tree = scheme.trees()[ti];
    if (scheme.params().label_trick && tree.level == 0 &&
        scheme.vertex_level(tree.root) == 0 &&
        scheme.tree_index(tree.root) == static_cast<int>(ti)) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        words[static_cast<std::size_t>(tree.root)] += 1 + ts.label_at(i).words();
      }
    }
  }
  r.table_words_checked = true;
  for (nors::graph::Vertex v = 0; v < g.n(); ++v) {
    r.table_words_max =
        std::max(r.table_words_max, words[static_cast<std::size_t>(v)]);
    r.label_words_max = std::max(r.label_words_max, scheme.label_words(v));
  }
  for (nors::graph::Vertex v = 0; v < g.n(); v += std::max(1, g.n() / 8)) {
    r.table_words_checked = r.table_words_checked &&
                            words[static_cast<std::size_t>(v)] ==
                                scheme.table_words(v);
  }
  for (const char* p : kLedgerPhases) {
    r.phase_rounds[p] = 0;
    r.phase_messages[p] = 0;
  }
  for (const auto& e : scheme.ledger().entries()) {
    const std::string prefix = e.phase.substr(0, e.phase.find('/'));
    r.phase_rounds[prefix] += e.rounds;
    r.phase_messages[prefix] += e.messages;
  }
  return r;
}

}  // namespace pb
