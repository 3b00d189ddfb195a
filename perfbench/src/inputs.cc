#include "inputs.h"

#include <queue>
#include <set>
#include <utility>

#include "util/check.h"

namespace pb {

using nors::graph::Dist;
using nors::graph::Vertex;
using nors::serve::EdgeUpdate;

Churn::Churn(const nors::serve::FrozenScheme& fs, std::uint64_t seed,
             int pool_links, int fail_every, int fail_cap)
    : rng_(seed), fail_every_(fail_every), fail_cap_(fail_cap) {
  const auto off = fs.adj_off();
  const auto links = fs.link_map();
  const auto n = static_cast<std::uint64_t>(fs.n());
  std::set<std::pair<Vertex, Vertex>> seen;
  const auto want = std::min<std::size_t>(static_cast<std::size_t>(pool_links),
                                          links.size() / 2);
  while (links_.size() < want) {
    const auto x = static_cast<Vertex>(rng_.uniform(n));
    const std::int64_t lo = off[static_cast<std::size_t>(x)];
    const std::int64_t deg = off[static_cast<std::size_t>(x) + 1] - lo;
    if (deg == 0) continue;
    const auto& l = links[static_cast<std::size_t>(
        lo + static_cast<std::int64_t>(
                 rng_.uniform(static_cast<std::uint64_t>(deg))))];
    if (l.to == x) continue;
    const Vertex u = std::min(x, l.to);
    const Vertex v = std::max(x, l.to);
    if (seen.insert({u, v}).second) links_.push_back({u, v, l.w, 0});
  }
  NORS_CHECK_MSG(!links_.empty(), "churn pool is empty");
}

std::size_t Churn::pick_live() {
  for (;;) {
    const auto i = static_cast<std::size_t>(rng_.uniform(links_.size()));
    if (links_[i].state != 2) return i;
  }
}

std::vector<EdgeUpdate> Churn::next_batch(int events) {
  std::vector<EdgeUpdate> batch;
  batch.reserve(static_cast<std::size_t>(events));
  for (int e = 0; e < events; ++e, ++events_) {
    if (static_cast<int>(failed_.size()) > fail_cap_) {
      // Revive the oldest failure right after the fail that overflowed.
      Link& back = links_[failed_.front()];
      failed_.pop_front();
      back.state = 0;
      batch.push_back(EdgeUpdate::weight(back.u, back.v, back.w));
      continue;
    }
    if (fail_every_ > 0 &&
        events_ % static_cast<std::uint64_t>(fail_every_) == 0) {
      const std::size_t i = pick_live();
      links_[i].state = 2;
      failed_.push_back(i);
      batch.push_back(EdgeUpdate::fail(links_[i].u, links_[i].v));
      continue;
    }
    Link& l = links_[pick_live()];
    l.state = l.state == 0 ? 1 : 0;
    batch.push_back(EdgeUpdate::weight(l.u, l.v, l.state == 1 ? 2 * l.w : l.w));
  }
  return batch;
}

std::vector<Dist> link_map_dijkstra(const nors::serve::FrozenScheme& fs,
                                    const nors::serve::DeltaSet* delta,
                                    Vertex src) {
  const auto off = fs.adj_off();
  const auto links = fs.link_map();
  std::vector<Dist> dist(static_cast<std::size_t>(fs.n()),
                         nors::graph::kDistInf);
  using Item = std::pair<Dist, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<std::size_t>(src)] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    const auto [d, x] = pq.top();
    pq.pop();
    if (d != dist[static_cast<std::size_t>(x)]) continue;
    for (std::int64_t i = off[static_cast<std::size_t>(x)];
         i < off[static_cast<std::size_t>(x) + 1]; ++i) {
      Dist w = links[static_cast<std::size_t>(i)].w;
      if (delta != nullptr &&
          delta->link_patch(i, w) == nors::serve::LinkPatch::kFailed) {
        continue;
      }
      const Vertex y = links[static_cast<std::size_t>(i)].to;
      if (d + w < dist[static_cast<std::size_t>(y)]) {
        dist[static_cast<std::size_t>(y)] = d + w;
        pq.push({d + w, y});
      }
    }
  }
  return dist;
}

StretchSample stretch_sample(const nors::serve::FrozenScheme& fs,
                             const nors::serve::DeltaSet* delta, int sources,
                             std::uint64_t seed) {
  nors::util::Rng rng(seed);
  StretchSample out;
  std::vector<nors::serve::Query> qs;
  std::vector<Dist> truth;
  std::vector<nors::serve::Decision> ds;
  for (int s = 0; s < sources; ++s) {
    const auto src = static_cast<Vertex>(
        rng.uniform(static_cast<std::uint64_t>(fs.n())));
    const auto dist = link_map_dijkstra(fs, delta, src);
    qs.clear();
    truth.clear();
    for (Vertex v = 0; v < fs.n(); ++v) {
      const Dist d = dist[static_cast<std::size_t>(v)];
      if (v == src || nors::graph::is_inf(d) || d <= 0) continue;
      qs.push_back({src, v});
      truth.push_back(d);
    }
    ds.assign(qs.size(), {});
    nors::serve::NoTableCache none;
    if (delta != nullptr) {
      fs.route_batch_overlay(qs.data(), qs.size(), ds.data(), none, *delta);
    } else {
      fs.route_batch(qs.data(), qs.size(), ds.data());
    }
    for (std::size_t i = 0; i < qs.size(); ++i) {
      ++out.pairs;
      if (!ds[i].ok) continue;
      ++out.ok;
      if (ds[i].length < truth[i]) ++out.short_;
      out.stretch_max =
          std::max(out.stretch_max, static_cast<double>(ds[i].length) /
                                        static_cast<double>(truth[i]));
    }
  }
  return out;
}

}  // namespace pb
