#pragma once

// Seeded inputs over a frozen image: the live-churn update stream and the
// Dijkstra-checked stretch sample.

#include <cstdint>
#include <deque>
#include <vector>

#include "serve/delta.h"
#include "serve/frozen.h"
#include "util/random.h"

namespace pb {

/// The bounded churn stream: events touch only a seeded pool of real links
/// (u < v). Most events reprice a link between its frozen weight and twice
/// it; every `fail_every`-th event fails a pool link, and when that puts
/// more than `fail_cap` links down the next event revives the oldest
/// failure at its frozen weight. The override set therefore stays within
/// the pool and the failed set at `fail_cap`: the stream is stationary.
class Churn {
 public:
  Churn(const nors::serve::FrozenScheme& fs, std::uint64_t seed,
        int pool_links, int fail_every, int fail_cap);

  std::vector<nors::serve::EdgeUpdate> next_batch(int events);

 private:
  struct Link {
    nors::graph::Vertex u, v;
    nors::graph::Dist w;
    std::uint8_t state;  // 0 frozen weight, 1 doubled, 2 failed
  };
  std::size_t pick_live();

  nors::util::Rng rng_;
  std::vector<Link> links_;
  std::deque<std::size_t> failed_;
  int fail_every_;
  int fail_cap_;
  std::uint64_t events_ = 0;
};

/// Single-source distances over the image's link map, with the overlay's
/// weight patches applied and failed links removed (`delta` may be null).
std::vector<nors::graph::Dist> link_map_dijkstra(
    const nors::serve::FrozenScheme& fs, const nors::serve::DeltaSet* delta,
    nors::graph::Vertex src);

struct StretchSample {
  double stretch_max = 0;
  std::int64_t pairs = 0;    // reachable pairs routed
  std::int64_t ok = 0;       // answered with a route
  std::int64_t short_ = 0;   // ok answers shorter than the true distance
};

/// Routes every (s, v) pair for `sources` seeded sources through the batch
/// engine (under `delta` when non-null) and compares each ok answer with
/// the exact distance.
StretchSample stretch_sample(const nors::serve::FrozenScheme& fs,
                             const nors::serve::DeltaSet* delta, int sources,
                             std::uint64_t seed);

}  // namespace pb
