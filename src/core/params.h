#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/ratio.h"

namespace nors::core {

/// Configuration of the distributed routing-scheme construction (paper §3-4).
struct SchemeParams {
  /// Stretch/size parameter k ≥ 1: tables Õ(n^{1/k}), stretch 4k-5+o(1).
  int k = 3;

  /// ε of §3.1. Defaults to the paper's 1/(48 k⁴); benches may use larger
  /// practical values (E7 ablation). Always an exact rational.
  std::optional<util::Epsilon> eps;

  std::uint64_t seed = 1;

  /// Multiplier of the "4·…·ln n" hitting-set constants (Claim 3). 1.0 is
  /// the paper value; smaller values shrink hop bounds / BF depths at the
  /// cost of a higher (measured) failure probability — used in robustness
  /// tests only.
  double hit_constant = 4.0;

  /// Store the labels of every member of level-0 clusters at the cluster
  /// root (the TZ01 trick) — improves stretch 4k-3 → 4k-5.
  bool label_trick = true;

  /// CONGEST per-edge capacity (1 = the standard model).
  int edge_capacity = 1;

  /// Worker threads for construction: the simulated rounds of the BFS
  /// tree, exact pivots and level-0 clusters, source-detection sweeps,
  /// large-level phase 2, tree sanitizing, the Section-6 per-tree builds
  /// and serve::FrozenScheme::freeze. 0 consults the NORS_THREADS environment
  /// variable; 1 is serial. Every value yields bit-identical schemes,
  /// labels, round counts and ledgers — the pool only changes wall-clock
  /// (DESIGN.md §7.2).
  int threads = 0;

  /// Retries with doubled hop bound B if top-level tree coverage fails
  /// (possible when the whp hitting event of Claim 3 does not materialize).
  int max_b_retries = 3;

  /// §3.2 "The middle level": for odd k, build level (k-1)/2 via Theorem-1
  /// source detection instead of plain Bellman–Ford. Disable to measure the
  /// ablation (bench_middle_level, experiment E8).
  bool middle_level_opt = true;

  /// §3.3 hopsets: the paper's key device — Phase 1 explores β hops of
  /// G'' = G' ∪ F instead of up to |V'| hops of G'. Disabling emulates the
  /// hopset-less approach (the [LP15] regime the paper improves on): the
  /// exploration range, and with it the Phase-1 round cost, grows with the
  /// virtual graph's shortest-path hop diameter (bench_ablation_hopset).
  bool use_hopset = true;

  util::Epsilon epsilon() const {
    return eps ? *eps : util::Epsilon::paper_value(k);
  }

  std::string describe() const;
};

/// The paper's analytic stretch bound for these parameters, from the
/// recursion of §4 (equations (33)–(39)) with the exact ε: routing cost ≤
/// bound · d_G(u,v). With the label trick the recursion starts from
/// x₁ ≤ (1+ε)(1+6ε)·y₀ instead of x₁ ≈ 2y₀, giving 4k-5+o(1) instead of
/// 4k-3+o(1).
double stretch_bound(int k, const util::Epsilon& eps, bool label_trick);

/// Analytic bound for the distance-estimation scheme (§5): 2k-1+o(1).
double estimation_stretch_bound(int k, const util::Epsilon& eps);

}  // namespace nors::core
