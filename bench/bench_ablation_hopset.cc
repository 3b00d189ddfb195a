// Experiment E9: the hopset ablation — §1.1's "the use of hopsets allows us
// to avoid the large memory requirement ... while significantly shortening
// the exploration range". With hopsets, Phase 1 explores β = O(1) hops of
// G''; without them (the [LP15]-style regime) it must explore up to the
// shortest-path hop diameter of G', and every virtual hop costs a global
// broadcast. We grow a heavy-weighted ring-with-chords whose virtual graph
// has a long hop diameter, and compare Phase-1 exploration depth and round
// cost with the hopset on and off. Routed stretch must be identical — the
// routing is oblivious to the hopset (§1.1).

#include <set>
#include <utility>

#include "common.h"
#include "core/scheme.h"

namespace {

/// The cluster levels' Phase-1 exploration (and its 1.5 fix-up); tree
/// routing's own "treeroute/phase1 ..." entries do not depend on the hopset.
std::int64_t phase1_rounds(const nors::congest::RoundLedger& ledger) {
  std::int64_t total = 0;
  for (const auto& e : ledger.entries()) {
    if (e.phase.starts_with("clusters/") &&
        e.phase.find("phase1") != std::string::npos) {
      total += e.rounds;
    }
  }
  return total;
}

/// Weighted cycle with heavy long chords: the chords keep the hop diameter
/// D modest but are too heavy to appear on any shortest path, so the
/// shortest-path structure (and hence the virtual graph G' once B < n) is
/// ring-like with a large hop diameter — the regime where exploration
/// range matters.
nors::graph::WeightedGraph ring_with_chords(int n, std::uint64_t seed) {
  using namespace nors;
  util::Rng rng(seed);
  const auto ws = graph::WeightSpec::uniform(1, 8);
  graph::WeightedGraph g(n);
  std::set<std::pair<graph::Vertex, graph::Vertex>> used;
  auto key = [](graph::Vertex a, graph::Vertex b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  // Ring, matching graph::cycle's edge and weight-draw order.
  for (graph::Vertex v = 0; v + 1 < n; ++v) {
    used.insert(key(v, v + 1));
    g.add_edge(v, v + 1, ws.draw(rng));
  }
  used.insert(key(n - 1, 0));
  g.add_edge(n - 1, 0, ws.draw(rng));
  for (int i = 0; i < n / 32; ++i) {
    const auto u = static_cast<graph::Vertex>(rng.uniform(n));
    const auto v = static_cast<graph::Vertex>(rng.uniform(n));
    if (u != v && used.insert(key(u, v)).second) {
      g.add_edge(u, v, 8LL * n);  // heavier than any ring path
    }
  }
  g.freeze();
  return g;
}

}  // namespace

int main() {
  using namespace nors;
  const int n_max = bench::env_n(4096);
  bench::print_header("E9 / hopset ablation",
                      "Phase-1 exploration depth and rounds, hopset on/off");

  util::TextTable table({"n", "variant", "beta", "phase1 rounds",
                         "total rounds", "stretch max"});
  for (int n = 1024; n <= n_max; n *= 2) {
    const auto g = ring_with_chords(n, 33 + static_cast<std::uint64_t>(n));
    for (const bool hopset : {true, false}) {
      core::SchemeParams p;
      p.k = 2;
      p.seed = 12;
      // hit_constant 1 keeps B = √n·ln n below the ring's hop distances, so
      // G' is sparse and the exploration range is the live quantity (with
      // the paper's 4, B ≥ n at simulator scale and G' is complete).
      p.hit_constant = 1.0;
      p.max_b_retries = 6;
      p.use_hopset = hopset;
      const auto s = core::RoutingScheme::build(g, p);
      const auto st = bench::measure_stretch(
          g, [&](graph::Vertex u, graph::Vertex v) {
            return s.route(u, v).length;
          });
      table.add_row({std::to_string(n),
                     hopset ? "with hopset (paper)" : "without ([LP15] regime)",
                     std::to_string(s.beta()),
                     util::TextTable::fmt(phase1_rounds(s.ledger())),
                     util::TextTable::fmt(s.total_rounds()),
                     util::TextTable::fmt(st.max)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "shape checks: without the hopset the exploration depth beta grows\n"
      "with |V'| (the virtual graph's hop diameter) and Phase-1 rounds grow\n"
      "with it; with the hopset beta stays flat. Stretch is identical —\n"
      "routing is oblivious to the hopset (paper section 1.1).\n");
  return 0;
}
