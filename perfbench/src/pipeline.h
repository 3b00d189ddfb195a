#pragma once

// The construction pipeline the benchmark times: seeded graph →
// RoutingScheme::build → FrozenScheme::freeze → save_file, with the
// ledger's round and message counts grouped by phase prefix.

#include <cstdint>
#include <map>
#include <string>

#include "core/scheme.h"
#include "graph/graph.h"

namespace pb {

/// G(n, 3n): connected_gnm with 3n extra edges, weights uniform in [1, 32].
nors::graph::WeightedGraph make_graph(int n, std::uint64_t seed);

struct BuildResult {
  double build_s = 0;   // core: RoutingScheme::build
  double freeze_s = 0;  // serve: FrozenScheme::freeze
  double save_s = 0;    // serve: save_file
  double total_s() const { return build_s + freeze_s + save_s; }
  std::int64_t rounds = 0;
  std::int64_t trees = 0;
  std::int64_t table_words_max = 0;
  std::int64_t label_words_max = 0;
  bool table_words_checked = false;  // one-pass count == table_words(v)
  double stretch_bound = 0;
  /// Ledger rounds / messages summed per phase prefix ("infra",
  /// "pivots", "preprocess", "clusters", "treeroute").
  std::map<std::string, std::int64_t> phase_rounds;
  std::map<std::string, std::int64_t> phase_messages;
};

/// The ledger phase prefixes reported as congest.* metrics.
inline const char* const kLedgerPhases[] = {"infra", "pivots", "preprocess",
                                            "clusters", "treeroute"};

/// Builds the scheme for `g` with `threads` construction workers, freezes
/// it and saves the image to `path`. Table/label word maxima are taken
/// after the timed phases.
BuildResult build_image(const nors::graph::WeightedGraph& g, int k,
                        std::uint64_t seed, int threads,
                        const std::string& path);

}  // namespace pb
