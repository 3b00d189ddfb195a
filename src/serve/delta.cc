#include "serve/delta.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/serialize.h"
#include "util/check.h"

namespace nors::serve {

namespace {

constexpr std::size_t kMinSlots = 16;

/// Smallest probe-table capacity holding `live` keys at ≤ 1/2 load.
std::size_t fit_capacity(std::int64_t live) {
  std::size_t cap = kMinSlots;
  while (cap < static_cast<std::size_t>(live) * 2) cap <<= 1;
  return cap;
}

}  // namespace

std::shared_ptr<const DeltaSet> DeltaSet::apply(
    const FrozenScheme& fs, const DeltaSet* prev,
    std::span<const EdgeUpdate> batch, DeltaStats* stats) {
  const auto adj_off = fs.adj_off();
  const auto links = fs.link_map();

  // Start from a flat copy of the predecessor (or an empty table) and
  // edit it in place: the copy is the only cost that scales with the
  // size of the set. Every event after it is O(1) expected, plus a
  // sorted insert or erase in the short failed list when it fails or
  // revives a link.
  auto out = std::shared_ptr<DeltaSet>(new DeltaSet());
  if (prev != nullptr) {
    out->slots_ = prev->slots_;
    out->probe_mask_ = prev->probe_mask_;
    out->failed_ = prev->failed_;
    out->override_count_ = prev->override_count_;
    out->seq_ = prev->seq_ + 1;
  } else {
    out->slots_ = SlotTable(kMinSlots, Slot{});
    out->probe_mask_ = kMinSlots - 1;
    out->seq_ = 1;
  }

  DeltaStats local;
  DeltaStats& ds = stats != nullptr ? *stats : local;
  ds = DeltaStats{};

  for (const EdgeUpdate& e : batch) {
    NORS_CHECK_MSG(e.u >= 0 && e.u < fs.n() && e.v >= 0 && e.v < fs.n(),
                   "edge update names vertex outside the image");
    const std::int32_t pu = fs.find_port(e.u, e.v);
    const std::int32_t pv = fs.find_port(e.v, e.u);
    if (e.u == e.v || pu == graph::kNoPort || pv == graph::kNoPort) {
      ++ds.unknown_edges;
      continue;
    }
    ++ds.applied;
    const std::int64_t dir[2] = {
        adj_off[static_cast<std::size_t>(e.u)] + pu,
        adj_off[static_cast<std::size_t>(e.v)] + pv,
    };
    for (const std::int64_t idx : dir) {
      if (!e.is_fail() && e.w == links[static_cast<std::size_t>(idx)].w) {
        out->erase(idx);  // restored to frozen: no override needed
      } else {
        out->put(idx, e.w);
      }
    }
  }

  // Growth happens inside put(); shrinking waits for the end of the batch
  // so a batch that deletes and re-inserts does not rehash twice. Below
  // 1/8 load the table is refit, which keeps capacity ≤ 8 × live
  // overrides (or the 16-slot minimum) after every apply.
  if (out->slots_.size() > kMinSlots &&
      static_cast<std::size_t>(out->override_count_) * 8 <
          out->slots_.size()) {
    out->rehash(fit_capacity(out->override_count_));
  }

  // The mask depends only on the failed list: share the predecessor's
  // when the batch left the list as it was.
  if (prev != nullptr && out->failed_ == prev->failed_) {
    out->mask_ = prev->mask_;
    out->mask_words_ = prev->mask_words_;
    out->masked_count_ = prev->masked_count_;
  } else {
    out->rebuild_mask(fs);
  }

  ds.overrides = out->override_count_;
  ds.failed_links = out->failed_link_count();
  ds.masked_trees = out->masked_count_;
  return out;
}

void DeltaSet::put(std::int64_t key, graph::Dist w) {
  Slot& s = slots_[probe_for(key)];
  const bool was_failed = s.key == key && s.w < 0;
  if (s.key == kEmpty) {
    s.key = key;
    ++override_count_;
  }
  s.w = w;
  if (w < 0 && !was_failed) {
    failed_.insert(std::lower_bound(failed_.begin(), failed_.end(), key), key);
  } else if (w >= 0 && was_failed) {
    failed_.erase(std::lower_bound(failed_.begin(), failed_.end(), key));
  }
  if (static_cast<std::size_t>(override_count_) * 2 > slots_.size()) {
    rehash(slots_.size() * 2);
  }
}

void DeltaSet::erase(std::int64_t key) {
  std::uint64_t hole = probe_for(key);
  if (slots_[hole].key == kEmpty) return;
  if (slots_[hole].w < 0) {
    failed_.erase(std::lower_bound(failed_.begin(), failed_.end(), key));
  }
  --override_count_;
  // Backward-shift deletion: walk the rest of the probe run and pull each
  // entry whose home slot does not lie in (hole, j] back into the hole,
  // so lookups never meet a gap inside a run and no tombstones build up.
  for (std::uint64_t j = (hole + 1) & probe_mask_; slots_[j].key != kEmpty;
       j = (j + 1) & probe_mask_) {
    const std::uint64_t home =
        mix(static_cast<std::uint64_t>(slots_[j].key)) & probe_mask_;
    if (((j - home) & probe_mask_) >= ((j - hole) & probe_mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
}

void DeltaSet::rehash(std::size_t capacity) {
  SlotTable old(capacity, Slot{});
  old.swap(slots_);
  probe_mask_ = capacity - 1;
  for (const Slot& s : old) {
    if (s.key != kEmpty) slots_[probe_for(s.key)] = s;
  }
}

void DeltaSet::rebuild_mask(const FrozenScheme& fs) {
  // A failed link direction (x, port) breaks exactly the trees whose
  // table slot at x points back across it — parent_port for interior
  // vertices, up_port at subtree roots (every routed port kind is the
  // reverse of one of these at the child endpoint). Both directions of a
  // failed edge are in the list, so the child side is always scanned.
  const auto adj_off = fs.adj_off();
  const auto table_off = fs.table_off();
  const auto tables = fs.tables();
  const auto table_tree = fs.table_tree();
  mask_words_ =
      (static_cast<std::size_t>(std::max<std::int32_t>(fs.num_trees(), 1)) +
       63) / 64;
  auto mask = std::make_shared<std::uint64_t[]>(mask_words_);
  for (const std::int64_t key : failed_) {
    const auto it = std::upper_bound(adj_off.begin(), adj_off.end(), key);
    const auto x = static_cast<std::size_t>(it - adj_off.begin()) - 1;
    const auto port = static_cast<std::int32_t>(key - adj_off[x]);
    for (std::int64_t i = table_off[x]; i < table_off[x + 1]; ++i) {
      const FrozenScheme::TableSlot& t = tables[static_cast<std::size_t>(i)];
      if (t.parent_port == port || t.up_port == port) {
        const auto tree =
            static_cast<std::uint32_t>(table_tree[static_cast<std::size_t>(i)]);
        mask[tree >> 6] |= 1ull << (tree & 63);
      }
    }
  }
  masked_count_ = 0;
  for (std::size_t w = 0; w < mask_words_; ++w) {
    masked_count_ += __builtin_popcountll(mask[w]);
  }
  mask_ = std::move(mask);
}

std::size_t DeltaSet::byte_size() const {
  return slots_.size() * sizeof(Slot) +
         failed_.size() * sizeof(std::int64_t) +
         mask_words_ * sizeof(std::uint64_t);
}

std::vector<std::pair<std::int64_t, graph::Dist>> DeltaSet::sorted_overrides()
    const {
  std::vector<std::pair<std::int64_t, graph::Dist>> out;
  out.reserve(static_cast<std::size_t>(override_count_));
  for (const Slot& s : slots_) {
    if (s.key != kEmpty) out.emplace_back(s.key, s.w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<EdgeUpdate> DeltaSet::as_edge_updates(const FrozenScheme& fs) const {
  const auto adj_off = fs.adj_off();
  const auto links = fs.link_map();
  std::vector<EdgeUpdate> out;
  out.reserve(static_cast<std::size_t>(override_count_) / 2 + 1);
  // apply() always patches both directions of an edge together, so keeping
  // only the x < to direction emits each overridden edge exactly once.
  for (const auto& [idx, w] : sorted_overrides()) {
    const auto it = std::upper_bound(adj_off.begin(), adj_off.end(), idx);
    const auto x = static_cast<graph::Vertex>(it - adj_off.begin() - 1);
    const graph::Vertex to = links[static_cast<std::size_t>(idx)].to;
    if (x < to) out.push_back({x, to, w});
  }
  return out;
}

void encode_edge_updates(std::vector<std::uint8_t>& out,
                         std::span<const EdgeUpdate> updates) {
  core::put_uvarint(out, updates.size());
  for (const EdgeUpdate& e : updates) {
    core::put_uvarint(out, e.is_fail() ? 1u : 0u);
    core::put_uvarint(out, core::zigzag(e.u));
    core::put_uvarint(out, core::zigzag(e.v));
    if (!e.is_fail()) core::put_uvarint(out, core::zigzag(e.w));
  }
}

const std::uint8_t* decode_edge_updates(const std::uint8_t* p,
                                        const std::uint8_t* end,
                                        std::vector<EdgeUpdate>& out,
                                        std::uint64_t max_events) {
  auto vertex = [&p, end]() {
    std::uint64_t x = 0;
    p = core::get_uvarint(p, end, x);
    const std::int64_t v = core::unzigzag(x);
    NORS_CHECK_MSG(v >= INT32_MIN && v <= INT32_MAX,
                   "update vertex out of int32 range");
    return static_cast<graph::Vertex>(v);
  };
  std::uint64_t count = 0;
  p = core::get_uvarint(p, end, count);
  NORS_CHECK_MSG(count <= max_events, "update batch count exceeds the cap");
  out.assign(static_cast<std::size_t>(count), EdgeUpdate{});
  for (auto& e : out) {
    std::uint64_t flag = 0;
    p = core::get_uvarint(p, end, flag);
    NORS_CHECK_MSG(flag <= 1, "unknown update flags");
    e.u = vertex();
    e.v = vertex();
    if (flag == 1) {
      e.w = EdgeUpdate::kFail;
    } else {
      std::uint64_t x = 0;
      p = core::get_uvarint(p, end, x);
      e.w = core::unzigzag(x);
      NORS_CHECK_MSG(e.w >= 0, "negative update weight");
    }
  }
  return p;
}

std::vector<std::vector<EdgeUpdate>> parse_update_journal(
    const std::string& text) {
  std::vector<std::vector<EdgeUpdate>> batches;
  std::vector<EdgeUpdate> cur;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& why) {
    throw std::runtime_error(
        "update journal batch " + std::to_string(batches.size() + 1) +
        ", line " + std::to_string(lineno) + ": " + why);
  };
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op) || op[0] == '#') continue;
    if (op == "commit") {
      batches.push_back(std::move(cur));
      cur.clear();
      continue;
    }
    EdgeUpdate e;
    if (op == "w") {
      if (!(ls >> e.u >> e.v >> e.w) || e.w < 0) {
        fail("expected 'w U V WEIGHT' with WEIGHT >= 0");
      }
    } else if (op == "f") {
      if (!(ls >> e.u >> e.v)) fail("expected 'f U V'");
      e.w = EdgeUpdate::kFail;
    } else {
      fail("unknown op '" + op + "' (want w/f/commit)");
    }
    std::string rest;
    if (ls >> rest && rest[0] != '#') fail("trailing junk '" + rest + "'");
    cur.push_back(e);
  }
  if (!cur.empty()) batches.push_back(std::move(cur));
  return batches;
}

std::vector<std::vector<EdgeUpdate>> load_update_journal(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open update journal: " + path);
  }
  // Read explicitly and distinguish "the file ended" from "the read
  // failed": rdbuf() slurping folds an EIO mid-file into a silently
  // shorter journal, which is exactly the wrong failure mode for data
  // that feeds the WAL.
  std::string text;
  char chunk[1 << 16];
  do {
    in.read(chunk, sizeof chunk);
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  } while (in.good());
  if (in.bad() || (in.fail() && !in.eof())) {
    throw std::runtime_error("read error in update journal (not EOF): " +
                             path);
  }
  return parse_update_journal(text);
}

}  // namespace nors::serve
