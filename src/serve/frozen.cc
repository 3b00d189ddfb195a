#include "serve/frozen.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define NORS_HAVE_MMAP 1
#else
#define NORS_HAVE_MMAP 0
#endif

#include "core/serialize.h"
#include "util/failpoint.h"
#include "util/threads.h"

namespace nors::serve {

namespace {

using graph::Vertex;

// ------------------------------------------------------------ wire format --
// DESIGN.md §5.2/§10. Fixed 32-byte header, then every array as (u64 count,
// raw elements, zero padding to the next 8-byte boundary), then a trailing
// FNV-1a64 checksum of all preceding bytes. The per-section padding is what
// makes the image mappable: the header is 32 bytes and every count field is
// 8 bytes, so with padded payloads every section's elements start at a file
// offset that is a multiple of 8 — and mmap() returns page-aligned memory,
// so an in-place view of any section is correctly aligned for its element
// type (all slot types have alignment ≤ 8, asserted below). Multi-byte
// values are stored in the host byte order and stamped with an endianness
// tag; load() rejects a foreign-endian image instead of byte-swapping (the
// format is defined as little-endian — every platform this repo targets).
//
// The table slabs (between table_off and labels) take two sections: the
// i32 tree-key column raw (zero-copy on map, SIMD-scannable in place),
// then the remaining slot fields as one delta/varint byte section —
// canonical LEB128+zigzag per field (core/serialize.h), interval widths
// and light-offset deltas instead of absolutes. save→load→save and
// save→map→save are byte-identical: the varint codec is canonical
// (exactly one encoding per value) and every transform below is
// bijective. Both loaders range-check the decoded int64→int32 narrowing —
// DFS clocks are bounded by n, itself an int32, so legitimate images
// always fit; a checksum-forged one is rejected.

constexpr char kMagic[8] = {'N', 'O', 'R', 'S', 'F', 'R', 'Z', '1'};
constexpr std::uint32_t kVersion = FrozenScheme::format_version();
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::size_t kPreambleBytes =
    sizeof(kMagic) + 2 * sizeof(std::uint32_t);  // magic, version, endian
constexpr std::size_t kHeaderBytes =
    kPreambleBytes + 4 * sizeof(std::int32_t);   // + n, k, trick, trees
static_assert(kHeaderBytes % 8 == 0, "sections must start 8-byte aligned");

// The in-place (mmap) reader casts section bytes to these types directly.
static_assert(alignof(FrozenScheme::LightSlot) <= 8);
static_assert(alignof(FrozenScheme::HopSlot) <= 8);
static_assert(alignof(FrozenScheme::TableSlot) <= 8);
static_assert(alignof(FrozenScheme::LabelSlot) <= 8);
static_assert(alignof(FrozenScheme::TrickRoot) <= 8);
static_assert(alignof(FrozenScheme::TrickSlot) <= 8);

/// Zero bytes needed after a payload of `len` bytes to reach the next
/// 8-byte file offset (counts and payloads both start 8-aligned).
constexpr std::size_t pad8(std::size_t len) { return (8 - len % 8) % 8; }

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/// FNV-1a64 of [p, p + len), continuing from state `h`.
std::uint64_t fnv1a(const std::uint8_t* p, std::size_t len,
                    std::uint64_t h = kFnvOffset) {
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ------------------------------------------------------------ image sinks --
// save_impl writes the image once, front to back, into one of two sinks;
// the writer on top folds every byte into the trailing checksum as it
// passes, so no whole-image copy is ever staged (DESIGN.md §5.2).

/// Appends to a byte vector (save(), save_with_link_weights()).
struct VectorSink {
  std::vector<std::uint8_t>& out;

  void write(const std::uint8_t* p, std::size_t len) {
    // resize+memcpy instead of insert: same effect, and it sidesteps a
    // gcc-12 -Wstringop-overflow false positive on small fixed-size appends.
    const std::size_t old = out.size();
    out.resize(old + len);
    std::memcpy(out.data() + old, p, len);
  }
};

[[noreturn]] void io_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Streams to `path + ".tmp"` through a fixed buffer; commit() renames the
/// temp file over `path`, so the target is replaced whole or not at all —
/// never truncated in place under a process that has it map()ped. With
/// `durable`, commit() also fsyncs the file before the rename and the
/// directory after it (the checkpoint writer, DESIGN.md §14.3). A sink
/// destroyed uncommitted (a failed save) removes its temp file.
class FileSink {
 public:
  FileSink(const std::string& path, bool durable)
      : path_(path), tmp_(path + ".tmp"), durable_(durable),
        buf_(kBufferBytes) {
    fp_ = std::fopen(tmp_.c_str(), "wb");
    if (fp_ == nullptr) io_fail("cannot open " + tmp_ + " for writing");
  }
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;
  ~FileSink() {
    if (fp_ != nullptr) {
      std::fclose(fp_);
      std::remove(tmp_.c_str());
    }
  }

  void write(const std::uint8_t* p, std::size_t len) {
    while (len > 0) {
      const std::size_t take = std::min(len, buf_.size() - used_);
      std::memcpy(buf_.data() + used_, p, take);
      used_ += take;
      p += take;
      len -= take;
      if (used_ == buf_.size()) flush();
    }
  }

  void commit() {
    flush();
    if (std::fflush(fp_) != 0) io_fail("write to " + tmp_);
#if NORS_HAVE_MMAP
    if (durable_ && ::fsync(::fileno(fp_)) != 0) io_fail("fsync " + tmp_);
#endif
    std::FILE* fp = fp_;
    fp_ = nullptr;
    if (std::fclose(fp) != 0) {
      const int e = errno;
      std::remove(tmp_.c_str());
      errno = e;
      io_fail("close " + tmp_);
    }
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
      const int e = errno;
      std::remove(tmp_.c_str());
      errno = e;
      io_fail("rename " + tmp_ + " over " + path_);
    }
#if NORS_HAVE_MMAP
    if (durable_) {
      const auto slash = path_.rfind('/');
      const std::string dir = slash == std::string::npos
                                  ? std::string(".")
                                  : path_.substr(0, slash + 1);
      const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
      if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
      }
    }
#endif
  }

 private:
  // Large enough that each write(2) moves a big chunk, small enough that
  // a save's heap footprint stays a small fraction of even a small image.
  static constexpr std::size_t kBufferBytes = std::size_t{256} << 10;

  void flush() {
    if (used_ > 0 && std::fwrite(buf_.data(), 1, used_, fp_) != used_) {
      io_fail("short write to " + tmp_);
    }
    used_ = 0;
  }

  std::string path_;
  std::string tmp_;
  bool durable_;
  std::vector<std::uint8_t> buf_;
  std::size_t used_ = 0;
  std::FILE* fp_ = nullptr;
};

/// The image framing over a sink: raw bytes and padded (count, elements)
/// sections, each hashed on its way through.
template <typename Sink>
class ImageWriter {
 public:
  explicit ImageWriter(Sink& sink) : sink_(sink) {}

  void put(const void* p, std::size_t len) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    hash_ = fnv1a(b, len, hash_);
    sink_.write(b, len);
  }

  /// Zero padding after a payload of `payload` bytes.
  void pad(std::size_t payload) {
    static constexpr std::uint8_t kZeros[8] = {};
    put(kZeros, pad8(payload));
  }

  template <typename T>
  void put_span(std::span<const T> v) {
    const std::uint64_t count = v.size();
    put(&count, sizeof(count));
    const std::size_t payload = static_cast<std::size_t>(count) * sizeof(T);
    if (count > 0) put(v.data(), payload);
    pad(payload);
  }

  /// The trailing checksum of everything written so far.
  void finish() {
    const std::uint64_t h = hash_;
    sink_.write(reinterpret_cast<const std::uint8_t*>(&h), sizeof(h));
  }

 private:
  Sink& sink_;
  std::uint64_t hash_ = kFnvOffset;
};

// ------------------------------------------------- v3 table-entry codec --

std::int32_t narrow_i32(std::int64_t v) {
  NORS_CHECK_MSG(v >= INT32_MIN && v <= INT32_MAX,
                 "frozen table field out of int32 range");
  return static_cast<std::int32_t>(v);
}

/// Hands one packed slot's v3 varint fields, zigzagged, to `put`. Field
/// order and transforms are part of the format: intervals as (start,
/// width), light offsets as deltas against the previous entry (they grow
/// monotonically in freeze order), everything zigzagged so sentinel -1s
/// cost one byte.
template <typename Put>
void table_entry_fields(const FrozenScheme::TableSlot& t,
                        std::int64_t& prev_light_off, Put&& put) {
  auto field = [&put](std::int64_t v) { put(core::zigzag(v)); };
  field(t.local_a);
  field(static_cast<std::int64_t>(t.local_b) - t.local_a);
  field(t.a_prime);
  field(static_cast<std::int64_t>(t.b_prime) - t.a_prime);
  field(t.heavy_portal_a);
  field(t.subtree_root);
  field(t.parent_port);
  field(t.heavy_child_port);
  field(t.heavy_prime);
  field(t.heavy_cross_port);
  field(static_cast<std::int64_t>(t.heavy_light_off) - prev_light_off);
  field(t.heavy_light_len);
  field(t.up_port);
  prev_light_off = t.heavy_light_off;
}

/// Upper bound on one encoded entry: 13 fields of at most 10 bytes each.
constexpr std::size_t kMaxTableEntryBytes = 13 * 10;

/// Decodes one entry; throws (core::get_uvarint / narrow_i32) on truncated
/// tails, over-long encodings and values outside int32. Delta sums are
/// computed in uint64 so a forged image cannot trigger signed overflow —
/// a wrapped sum lands outside int32 and is rejected.
const std::uint8_t* decode_table_entry(const std::uint8_t* p,
                                       const std::uint8_t* end,
                                       FrozenScheme::TableSlot& t,
                                       std::int64_t& prev_light_off) {
  auto get = [&p, end]() {
    std::uint64_t u = 0;
    p = core::get_uvarint(p, end, u);
    return core::unzigzag(u);
  };
  auto add = [](std::int64_t base, std::int64_t delta) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(base) +
                                     static_cast<std::uint64_t>(delta));
  };
  t.local_a = narrow_i32(get());
  t.local_b = narrow_i32(add(t.local_a, get()));
  t.a_prime = narrow_i32(get());
  t.b_prime = narrow_i32(add(t.a_prime, get()));
  t.heavy_portal_a = narrow_i32(get());
  t.subtree_root = narrow_i32(get());
  t.parent_port = narrow_i32(get());
  t.heavy_child_port = narrow_i32(get());
  t.heavy_prime = narrow_i32(get());
  t.heavy_cross_port = narrow_i32(get());
  t.heavy_light_off = narrow_i32(add(prev_light_off, get()));
  t.heavy_light_len = narrow_i32(get());
  t.up_port = narrow_i32(get());
  t.pad = 0;
  prev_light_off = t.heavy_light_off;
  return p;
}

/// Inflates a whole v3 varint section (`entries` comes from the tree-key
/// column's count). The section must be consumed exactly. Cache-line
/// aligned: the branchy decode loop is most of map()'s time after the
/// checksum, and it ran ~20% slower (n = 2^14: 45 → 55 ms) when unrelated
/// code shifted its placement by 16 bytes.
[[gnu::aligned(64)]] void decode_table_blob(
    const std::uint8_t* p, std::size_t len, std::size_t entries,
    std::vector<FrozenScheme::TableSlot>& out) {
  const std::uint8_t* end = p + len;
  out.resize(entries);
  std::int64_t prev_light_off = 0;
  for (auto& t : out) p = decode_table_entry(p, end, t, prev_light_off);
  NORS_CHECK_MSG(p == end,
                 "frozen-table varint section length mismatch");
}

/// Bounds-checked cursor core shared by both decode paths, so the owning
/// and mapped readers can never diverge on framing, bounds or padding
/// semantics (the property test_frozen_fuzz pins).
class CursorBase {
 public:
  CursorBase(const std::uint8_t* p, std::size_t len) : p_(p), len_(len) {}

  void read(void* dst, std::size_t len) {
    NORS_CHECK_MSG(pos_ + len <= len_, "truncated frozen-table image");
    std::memcpy(dst, p_ + pos_, len);
    pos_ += len;
  }

  /// Reads a section's u64 element count, bounds-checked against the
  /// remaining bytes.
  template <typename T>
  std::size_t read_count() {
    std::uint64_t count = 0;
    read(&count, sizeof(count));
    NORS_CHECK_MSG(count <= (len_ - pos_) / sizeof(T),
                   "corrupt frozen-table section length");
    return static_cast<std::size_t>(count);
  }

  void skip_pad(std::size_t payload) {
    for (std::size_t i = 0; i < pad8(payload); ++i) {
      std::uint8_t z = 0;
      read(&z, 1);
      NORS_CHECK_MSG(z == 0, "nonzero section padding");
    }
  }

  std::size_t pos() const { return pos_; }

 protected:
  const std::uint8_t* cursor() const { return p_ + pos_; }
  void advance(std::size_t len) { pos_ += len; }

 private:
  const std::uint8_t* p_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// Copying decoder (the owning load path).
class Cursor : public CursorBase {
 public:
  using CursorBase::CursorBase;

  template <typename T>
  void read_vec(std::vector<T>& v) {
    const std::size_t count = read_count<T>();
    v.resize(count);
    const std::size_t payload = count * sizeof(T);
    if (count > 0) read(v.data(), payload);
    skip_pad(payload);
  }
};

/// In-place decoder over a mapped image: sections become views into the
/// mapping instead of copies.
class ViewCursor : public CursorBase {
 public:
  using CursorBase::CursorBase;

  template <typename T>
  void read_span(std::span<const T>& v) {
    const std::size_t count = read_count<T>();
    NORS_CHECK_MSG(
        reinterpret_cast<std::uintptr_t>(cursor()) % alignof(T) == 0,
        "misaligned frozen-table section");
    v = {reinterpret_cast<const T*>(cursor()), count};
    const std::size_t payload = count * sizeof(T);
    advance(payload);
    skip_pad(payload);
  }
};

/// Shared header framing check; returns the payload limit (bytes before
/// the trailing checksum) after verifying magic/version/endian/checksum.
std::size_t check_framing(const std::uint8_t* p, std::size_t size) {
  NORS_CHECK_MSG(size >= kHeaderBytes + sizeof(std::uint64_t),
                 "frozen-table image too short for a header");
  NORS_CHECK_MSG(std::memcmp(p, kMagic, sizeof(kMagic)) == 0,
                 "bad magic: not a frozen routing-table image");
  std::uint32_t version = 0, endian = 0;
  std::memcpy(&version, p + sizeof(kMagic), sizeof(version));
  std::memcpy(&endian, p + sizeof(kMagic) + sizeof(version), sizeof(endian));
  NORS_CHECK_MSG(version == kVersion,
                 "unsupported frozen-table version " << version);
  NORS_CHECK_MSG(endian == kEndianTag,
                 "endianness mismatch: image written on a foreign-endian "
                 "machine");
  std::uint64_t stored = 0;
  std::memcpy(&stored, p + size - sizeof(stored), sizeof(stored));
  NORS_CHECK_MSG(fnv1a(p, size - sizeof(stored)) == stored,
                 "checksum mismatch: corrupt frozen-table image");
  return size - sizeof(stored);
}

template <typename Off>
void check_offsets(std::span<const Off> off, std::size_t n, std::size_t pool,
                   const char* what) {
  NORS_CHECK_MSG(off.size() == n + 1, what << ": offset array size");
  NORS_CHECK_MSG(off.front() == 0, what << ": offsets must start at 0");
  for (std::size_t i = 0; i + 1 < off.size(); ++i) {
    NORS_CHECK_MSG(off[i] <= off[i + 1], what << ": offsets not monotone");
  }
  NORS_CHECK_MSG(static_cast<std::size_t>(off.back()) == pool,
                 what << ": offsets do not cover the pool");
}

}  // namespace

FrozenScheme::Mapping::~Mapping() {
#if NORS_HAVE_MMAP
  if (addr != nullptr) ::munmap(addr, len);
#endif
}

void FrozenScheme::bind_owned() {
  const Storage& s = *storage_;
  level_ = s.level;
  tree_root_ = s.tree_root;
  tree_level_ = s.tree_level;
  table_off_ = s.table_off;
  table_tree_ = s.table_tree;
  tables_ = s.tables;
  labels_ = s.labels;
  hops_ = s.hops;
  lights_ = s.lights;
  trick_roots_ = s.trick_roots;
  tricks_ = s.tricks;
  adj_off_ = s.adj_off;
  adj_to_ = s.adj_to;
  adj_w_ = s.adj_w;
  blob_off_ = s.blob_off;
  blobs_ = s.blobs;
}

void FrozenScheme::build_derived() {
  // Fuse the serialized (to, weight) columns into 16-byte LinkSlots so the
  // walk reads one cache line per hop. Derived, never serialized — the
  // image keeps the split columns.
  links_.resize(adj_to_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    links_[i].w = adj_w_[i];
    links_[i].to = adj_to_[i];
    links_[i].pad = 0;
  }
}

FrozenScheme FrozenScheme::freeze(const core::RoutingScheme& scheme) {
  const graph::WeightedGraph& g = scheme.graph();
  NORS_CHECK_MSG(g.frozen(), "freeze() needs the CSR (frozen) graph");
  FrozenScheme f;
  f.storage_ = std::make_unique<Storage>();
  Storage& st = *f.storage_;
  const int n = g.n();
  const int k = scheme.params().k;
  f.n_ = n;
  f.k_ = k;
  f.label_trick_ = scheme.params().label_trick ? 1 : 0;
  const auto& trees = scheme.trees();
  f.num_trees_ = static_cast<std::int32_t>(trees.size());

  st.level.resize(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) {
    st.level[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(scheme.vertex_level(v));
  }
  st.tree_root.reserve(trees.size());
  st.tree_level.reserve(trees.size());
  for (const auto& t : trees) {
    st.tree_root.push_back(t.root);
    st.tree_level.push_back(t.level);
  }

  // Flat cluster trees keep their members vertex-sorted (DESIGN.md §7),
  // so every slab below is order-deterministic reading trees[ti].members
  // in place.

  auto put_lights = [&st](const treeroute::TzTreeScheme::Label& l,
                          std::int32_t& off, std::int32_t& len) {
    off = static_cast<std::int32_t>(st.lights.size());
    len = static_cast<std::int32_t>(l.light.size());
    for (const auto& [v, p] : l.light) st.lights.push_back({v, p});
  };
  auto put_vlabel = [&st, &put_lights](
                        const treeroute::DistTreeScheme::VLabel& l,
                        std::int64_t& a_prime, std::int64_t& local_a,
                        std::int32_t& lloff, std::int32_t& lllen,
                        std::int32_t& hoff, std::int32_t& hlen) {
    a_prime = l.a_prime;
    local_a = l.local.a;
    put_lights(l.local, lloff, lllen);
    hoff = static_cast<std::int32_t>(st.hops.size());
    hlen = static_cast<std::int32_t>(l.global_light.size());
    for (const auto& hop : l.global_light) {
      HopSlot h;
      h.portal_a = hop.portal_label.a;
      h.vi = hop.vi;
      h.port = hop.port;
      put_lights(hop.portal_label, h.light_off, h.light_len);
      st.hops.push_back(h);
    }
  };

  // Every pool is sized before it is filled: lights hold the table slots'
  // heavy-portal lists (slab order), then the label slots' lists, then the
  // trick slots' (the image's pool order); hops hold the label slots'
  // global hops, then the trick slots'.
  std::size_t light_total = 0, hop_total = 0, trick_total = 0;
  auto count_vlabel = [&](const treeroute::DistTreeScheme::VLabel& l) {
    light_total += l.local.light.size();
    hop_total += l.global_light.size();
    for (const auto& hop : l.global_light) {
      light_total += hop.portal_label.light.size();
    }
  };

  // Per-vertex table slabs: one packed TableSlot (+ its tree key in the
  // parallel column) per (vertex, tree) membership, grouped by vertex and
  // tree-sorted within the slab. Built tree-major: walking the trees in
  // ascending index with one cursor per vertex lands each membership at
  // its slab position, in order, with no sort and no member search (each
  // tree scheme's arrays are parallel to trees[ti].members, checked per
  // tree). Pass 1 places the keys and light lengths; a scan in slab order
  // turns lengths into light offsets; pass 2 fills the slots and copies
  // their lights. Every DFS-interval field provably fits int32 (clocks
  // are bounded by the tree size ≤ n), checked as it lands.
  //
  // Both passes run on a pool: worker c walks a contiguous chunk of trees
  // (cut at equal membership counts) with its own cursors, which start at
  // table_off[v] plus v's memberships in the earlier chunks — exactly
  // where the serial walk's cursor stands when it reaches the chunk.
  util::WorkerTeam team(std::min<int>(
      util::resolve_threads(scheme.params().threads),
      static_cast<int>(std::max<std::size_t>(1, trees.size()))));
  const auto chunks = static_cast<std::size_t>(team.size());
  std::size_t members_total = 0;
  for (const auto& t : trees) members_total += t.members.size();
  std::vector<std::size_t> chunk_lo(chunks + 1, trees.size());
  chunk_lo[0] = 0;
  {
    std::size_t c = 1, seen = 0;
    for (std::size_t ti = 0; ti < trees.size() && c < chunks; ++ti) {
      while (c < chunks && seen * chunks >= members_total * c) {
        chunk_lo[c++] = ti;
      }
      seen += trees[ti].members.size();
    }
  }
  // cursor[c * n + v]: chunk c's count of v, then its cursor for v.
  const auto nn = static_cast<std::size_t>(n);
  std::vector<std::int32_t> cursor(chunks * nn, 0);
  team.run([&](int c) {
    std::int32_t* cnt = cursor.data() + static_cast<std::size_t>(c) * nn;
    for (std::size_t ti = chunk_lo[static_cast<std::size_t>(c)];
         ti < chunk_lo[static_cast<std::size_t>(c) + 1]; ++ti) {
      for (Vertex v : trees[ti].members) ++cnt[static_cast<std::size_t>(v)];
    }
  });
  st.table_off.assign(nn + 1, 0);
  for (std::size_t v = 0; v < nn; ++v) {
    std::int64_t at = st.table_off[v];
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::int32_t cnt = cursor[c * nn + v];
      cursor[c * nn + v] = static_cast<std::int32_t>(at);
      at += cnt;
      NORS_CHECK_MSG(at < 0x7fffffff, "table slab index overflow");
    }
    st.table_off[v + 1] = at;
  }
  const auto slots = static_cast<std::size_t>(st.table_off.back());
  st.tables.resize(slots);
  st.table_tree.resize(slots);
  team.run([&](int c) {
    std::int32_t* cur = cursor.data() + static_cast<std::size_t>(c) * nn;
    for (std::size_t ti = chunk_lo[static_cast<std::size_t>(c)];
         ti < chunk_lo[static_cast<std::size_t>(c) + 1]; ++ti) {
      const auto& ts = scheme.tree_scheme(ti);
      const auto& members = trees[ti].members;
      NORS_CHECK_MSG(ts.members() == members,
                     "tree scheme " << ti << " is not parallel to its tree");
      for (std::size_t i = 0; i < members.size(); ++i) {
        const auto slot =
            static_cast<std::size_t>(cur[static_cast<std::size_t>(members[i])]++);
        st.table_tree[slot] = static_cast<std::int32_t>(ti);
        st.tables[slot].heavy_light_len = static_cast<std::int32_t>(
            ts.heavy_portal_label_at(i).light.size());
      }
    }
  });
  for (auto& s : st.tables) {
    s.heavy_light_off = static_cast<std::int32_t>(light_total);
    light_total += static_cast<std::size_t>(s.heavy_light_len);
    NORS_CHECK_MSG(light_total <= 0x7fffffff, "light pool overflow");
  }
  const std::size_t table_lights = light_total;

  for (Vertex v = 0; v < n; ++v) {
    for (int i = 0; i < k; ++i) {
      const auto& le = scheme.label_entry(v, i);
      if (le.member) count_vlabel(le.tree_label);
    }
  }
  if (f.label_trick_ != 0) {
    for (std::size_t ti = 0; ti < trees.size(); ++ti) {
      if (trees[ti].level != 0) continue;
      const auto& ts = scheme.tree_scheme(ti);
      trick_total += trees[ti].members.size();
      for (std::size_t i = 0; i < trees[ti].members.size(); ++i) {
        count_vlabel(ts.label_at(i));
      }
    }
  }
  NORS_CHECK_MSG(light_total <= 0x7fffffff && hop_total <= 0x7fffffff,
                 "light or hop pool overflow");
  st.lights.reserve(light_total);
  st.lights.resize(table_lights);
  st.hops.reserve(hop_total);
  st.tricks.reserve(trick_total);

  // Pass 1 left chunk c's cursors where chunk c + 1's started: shift the
  // rows up one to restart every chunk for pass 2.
  std::copy_backward(cursor.begin(),
                     cursor.end() - static_cast<std::ptrdiff_t>(nn),
                     cursor.end());
  std::copy(st.table_off.begin(), st.table_off.end() - 1, cursor.begin());
  team.run([&](int c) {
    std::int32_t* cur = cursor.data() + static_cast<std::size_t>(c) * nn;
    for (std::size_t ti = chunk_lo[static_cast<std::size_t>(c)];
         ti < chunk_lo[static_cast<std::size_t>(c) + 1]; ++ti) {
      const auto& ts = scheme.tree_scheme(ti);
      const auto& members = trees[ti].members;
      for (std::size_t i = 0; i < members.size(); ++i) {
        const auto& info = ts.info_at(i);
        const auto& heavy_label = ts.heavy_portal_label_at(i);
        TableSlot& s = st.tables[static_cast<std::size_t>(
            cur[static_cast<std::size_t>(members[i])]++)];
        s.subtree_root = info.subtree_root;
        s.local_a = narrow_i32(info.local.a);
        s.local_b = narrow_i32(info.local.b);
        s.parent_port = info.local.parent_port;
        s.heavy_child_port = info.local.heavy_port;
        s.a_prime = narrow_i32(info.a_prime);
        s.b_prime = narrow_i32(info.b_prime);
        s.heavy_prime = info.heavy_prime;
        s.heavy_cross_port = info.heavy_port;
        s.heavy_portal_a = narrow_i32(heavy_label.a);
        s.up_port = info.up_port;
        LightSlot* out = st.lights.data() + s.heavy_light_off;
        for (const auto& [lv, lp] : heavy_label.light) *out++ = {lv, lp};
      }
    }
  });
  // The rest of freeze grows the image to its peak: drop the cursors first.
  std::vector<std::int32_t>().swap(cursor);

  // Destination labels, flat stride-k (mirrors the live label arena).
  st.labels.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  for (Vertex v = 0; v < n; ++v) {
    for (int i = 0; i < k; ++i) {
      const auto& le = scheme.label_entry(v, i);
      LabelSlot s;
      s.pivot = le.pivot;
      s.pivot_dist = le.pivot_dist;
      s.member = le.member ? 1 : 0;
      s.tree = le.pivot == graph::kNoVertex
                   ? -1
                   : static_cast<std::int32_t>(scheme.tree_index(le.pivot));
      if (le.member) {
        put_vlabel(le.tree_label, s.a_prime, s.local_a, s.local_light_off,
                   s.local_light_len, s.hop_off, s.hop_len);
      }
      st.labels[static_cast<std::size_t>(v) * static_cast<std::size_t>(k) +
                static_cast<std::size_t>(i)] = s;
    }
  }

  // 4k-5 trick slabs at level-0 cluster roots.
  if (f.label_trick_ != 0) {
    for (std::size_t ti = 0; ti < trees.size(); ++ti) {
      if (trees[ti].level != 0) continue;
      TrickRoot tr;
      tr.root = trees[ti].root;
      // The tree the live route() walks from this root: tree_index(root),
      // which may differ from ti if the same vertex roots several trees.
      tr.tree = static_cast<std::int32_t>(scheme.tree_index(trees[ti].root));
      tr.off = static_cast<std::int64_t>(st.tricks.size());
      tr.len = static_cast<std::int64_t>(trees[ti].members.size());
      const auto& ts = scheme.tree_scheme(ti);
      for (std::size_t i = 0; i < trees[ti].members.size(); ++i) {
        TrickSlot s;
        s.dest = trees[ti].members[i];
        put_vlabel(ts.label_at(i), s.a_prime, s.local_a, s.local_light_off,
                   s.local_light_len, s.hop_off, s.hop_len);
        st.tricks.push_back(s);
      }
      st.trick_roots.push_back(tr);
    }
    std::sort(st.trick_roots.begin(), st.trick_roots.end(),
              [](const TrickRoot& a, const TrickRoot& b) {
                return a.root < b.root;
              });
    for (std::size_t i = 0; i + 1 < st.trick_roots.size(); ++i) {
      NORS_CHECK_MSG(st.trick_roots[i].root != st.trick_roots[i + 1].root,
                     "two level-0 trees share root "
                         << st.trick_roots[i].root);
    }
  }

  // The link map: port p of v resolves to (adj_to_, adj_w_) at
  // adj_off_[v] + p — the router's physical interfaces, snapshotted so the
  // serving walk never touches the WeightedGraph.
  st.adj_off.resize(static_cast<std::size_t>(n) + 1);
  st.adj_to.reserve(g.total_half_edges());
  st.adj_w.reserve(g.total_half_edges());
  for (Vertex v = 0; v < n; ++v) {
    st.adj_off[static_cast<std::size_t>(v)] =
        static_cast<std::int64_t>(st.adj_to.size());
    for (const auto& e : g.neighbors(v)) {
      st.adj_to.push_back(e.to);
      st.adj_w.push_back(e.w);
    }
  }
  st.adj_off[static_cast<std::size_t>(n)] =
      static_cast<std::int64_t>(st.adj_to.size());

  // Packed wire-label blobs (connection-setup handouts).
  st.blob_off.resize(static_cast<std::size_t>(n) + 1);
  util::WordWriter w;
  for (Vertex v = 0; v < n; ++v) {
    st.blob_off[static_cast<std::size_t>(v)] =
        static_cast<std::int64_t>(st.blobs.size());
    w.clear();
    core::encode_vertex_label(scheme, v, w);
    const auto* b = reinterpret_cast<const std::uint8_t*>(w.words().data());
    st.blobs.insert(st.blobs.end(), b,
                    b + w.word_count() * core::kWireWordBytes);
  }
  st.blob_off[static_cast<std::size_t>(n)] =
      static_cast<std::int64_t>(st.blobs.size());

  f.bind_owned();
  f.build_derived();
  f.validate();
  return f;
}

void FrozenScheme::validate() const {
  NORS_CHECK_MSG(n_ >= 0 && k_ >= 1 && num_trees_ >= 0,
                 "frozen header out of range");
  const auto n = static_cast<std::size_t>(n_);
  NORS_CHECK_MSG(level_.size() == n, "level array size");
  NORS_CHECK_MSG(tree_root_.size() == static_cast<std::size_t>(num_trees_) &&
                     tree_level_.size() == static_cast<std::size_t>(num_trees_),
                 "tree directory size");
  NORS_CHECK_MSG(labels_.size() == n * static_cast<std::size_t>(k_),
                 "label arena size");
  check_offsets(table_off_, n, tables_.size(), "table slabs");
  // table_index() narrows slab indices to int32 (the cacheable key of the
  // serving-side table cache), so the table arena must fit.
  NORS_CHECK_MSG(tables_.size() <= 0x7fffffff, "table arena too large");
  NORS_CHECK_MSG(table_tree_.size() == tables_.size(),
                 "table key column size");
  check_offsets(adj_off_, n, adj_to_.size(), "link map");
  NORS_CHECK_MSG(adj_w_.size() == adj_to_.size(), "link map weight column");
  // Link targets feed back into every per-vertex array as the walk's next
  // x; range-check them here so serving never indexes out of bounds even
  // on a corrupt-but-checksummed image (ports are bounds-checked where
  // they index the link map: in route_overlay and in route_batch_impl).
  for (const auto to : adj_to_) {
    NORS_CHECK_MSG(to >= 0 && to < n_, "link map target out of range");
  }
  check_offsets(blob_off_, n, blobs_.size(), "label blobs");

  auto check_lights = [this](std::int32_t off, std::int32_t len,
                             const char* what) {
    NORS_CHECK_MSG(off >= 0 && len >= 0 &&
                       static_cast<std::size_t>(off) + len <= lights_.size(),
                   what << ": light range out of pool");
  };
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    NORS_CHECK_MSG(table_tree_[i] >= 0 && table_tree_[i] < num_trees_,
                   "table slot tree id out of range");
    check_lights(tables_[i].heavy_light_off, tables_[i].heavy_light_len,
                 "table slot");
  }
  // The SIMD lower-bound lookup requires each slab's key run to be
  // strictly sorted — enforce it so a forged image degrades to a thrown
  // error, never to a wrong or divergent lookup.
  for (std::size_t v = 0; v < n; ++v) {
    const auto lo = static_cast<std::size_t>(table_off_[v]);
    const auto hi = static_cast<std::size_t>(table_off_[v + 1]);
    for (std::size_t i = lo + 1; i < hi; ++i) {
      NORS_CHECK_MSG(table_tree_[i - 1] < table_tree_[i],
                     "table slab not tree-sorted");
    }
  }
  auto check_hops = [this](std::int32_t off, std::int32_t len,
                           const char* what) {
    NORS_CHECK_MSG(off >= 0 && len >= 0 &&
                       static_cast<std::size_t>(off) + len <= hops_.size(),
                   what << ": hop range out of pool");
  };
  for (const auto& l : labels_) {
    NORS_CHECK_MSG(l.tree >= -1 && l.tree < num_trees_,
                   "label slot tree id out of range");
    check_lights(l.local_light_off, l.local_light_len, "label slot");
    check_hops(l.hop_off, l.hop_len, "label slot");
  }
  for (const auto& h : hops_) check_lights(h.light_off, h.light_len, "hop");
  for (std::size_t i = 0; i < trick_roots_.size(); ++i) {
    const auto& tr = trick_roots_[i];
    NORS_CHECK_MSG(tr.root >= 0 && tr.root < n_, "trick root out of range");
    NORS_CHECK_MSG(i == 0 || trick_roots_[i - 1].root < tr.root,
                   "trick directory not sorted");
    NORS_CHECK_MSG(tr.tree >= 0 && tr.tree < num_trees_,
                   "trick tree id out of range");
    // Overflow-safe form: tr.off + tr.len could wrap on an adversarial
    // (checksum-forged) image, which would be UB before the range check.
    NORS_CHECK_MSG(tr.off >= 0 && tr.len >= 0 &&
                       static_cast<std::size_t>(tr.len) <= tricks_.size() &&
                       static_cast<std::size_t>(tr.off) <=
                           tricks_.size() -
                               static_cast<std::size_t>(tr.len),
                   "trick slab out of pool");
    for (std::int64_t j = tr.off; j < tr.off + tr.len; ++j) {
      const auto& ts = tricks_[static_cast<std::size_t>(j)];
      NORS_CHECK_MSG(ts.dest >= 0 && ts.dest < n_,
                     "trick destination out of range");
      NORS_CHECK_MSG(j == tr.off ||
                         tricks_[static_cast<std::size_t>(j - 1)].dest <
                             ts.dest,
                     "trick slab not dest-sorted");
      check_lights(ts.local_light_off, ts.local_light_len, "trick slot");
      check_hops(ts.hop_off, ts.hop_len, "trick slot");
    }
  }
}

std::vector<std::uint8_t> FrozenScheme::save() const {
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(byte_size()) + 512);
  VectorSink sink{out};
  save_impl(sink, adj_w_);
  return out;
}

std::vector<std::int64_t> FrozenScheme::patched_link_weights(
    std::span<const std::pair<std::int64_t, graph::Dist>> overrides) const {
  // Checkpoint compaction (DESIGN.md §14): bake the delta's *weight*
  // overrides into the link-map weight column; the image is then emitted
  // through the ordinary save path. Failed links (w < 0) are skipped —
  // the image format has no failure notion, and the checkpoint squash
  // record re-applies them on every boot, so a rebuilt image plus its
  // squash serves bit-identically to the daemon that wrote them.
  std::vector<std::int64_t> patched(adj_w_.begin(), adj_w_.end());
  for (const auto& [link, w] : overrides) {
    NORS_CHECK_MSG(link >= 0 &&
                       link < static_cast<std::int64_t>(patched.size()),
                   "link override outside the link map");
    if (w >= 0) patched[static_cast<std::size_t>(link)] = w;
  }
  return patched;
}

std::vector<std::uint8_t> FrozenScheme::save_with_link_weights(
    std::span<const std::pair<std::int64_t, graph::Dist>> overrides) const {
  const auto patched = patched_link_weights(overrides);
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(byte_size()) + 512);
  VectorSink sink{out};
  save_impl(sink, patched);
  return out;
}

void FrozenScheme::save_file(const std::string& path) const {
  FileSink sink(path, /*durable=*/false);
  save_impl(sink, adj_w_);
  sink.commit();
}

void FrozenScheme::save_file_with_link_weights(
    const std::string& path,
    std::span<const std::pair<std::int64_t, graph::Dist>> overrides) const {
  const auto patched = patched_link_weights(overrides);
  FileSink sink(path, /*durable=*/true);
  save_impl(sink, patched);
  sink.commit();
}

template <typename Sink>
void FrozenScheme::save_impl(Sink& sink,
                             std::span<const std::int64_t> adj_w) const {
  ImageWriter<Sink> w(sink);
  w.put(kMagic, sizeof(kMagic));
  w.put(&kVersion, sizeof(kVersion));
  w.put(&kEndianTag, sizeof(kEndianTag));
  w.put(&n_, sizeof(n_));
  w.put(&k_, sizeof(k_));
  w.put(&label_trick_, sizeof(label_trick_));
  w.put(&num_trees_, sizeof(num_trees_));
  w.put_span(level_);
  w.put_span(tree_root_);
  w.put_span(tree_level_);
  w.put_span(table_off_);
  w.put_span(table_tree_);
  // The varint section's byte count precedes its bytes: a size-only
  // pass measures it, then each entry is encoded straight to the sink.
  std::uint64_t len = 0;
  std::int64_t prev_light_off = 0;
  for (const auto& t : tables_) {
    table_entry_fields(t, prev_light_off, [&len](std::uint64_t u) {
      len += core::uvarint_size(u);
    });
  }
  w.put(&len, sizeof(len));
  prev_light_off = 0;
  for (const auto& t : tables_) {
    std::uint8_t buf[kMaxTableEntryBytes];
    std::uint8_t* e = buf;
    table_entry_fields(t, prev_light_off, [&e](std::uint64_t u) {
      e = core::put_uvarint(e, u);
    });
    w.put(buf, static_cast<std::size_t>(e - buf));
  }
  w.pad(static_cast<std::size_t>(len));
  w.put_span(labels_);
  w.put_span(hops_);
  w.put_span(lights_);
  w.put_span(trick_roots_);
  w.put_span(tricks_);
  w.put_span(adj_off_);
  w.put_span(adj_to_);
  w.put_span(adj_w);
  w.put_span(blob_off_);
  w.put_span(blobs_);
  w.finish();
}

FrozenScheme FrozenScheme::load(const std::vector<std::uint8_t>& bytes) {
  if (util::failpoint("frozen.load") == util::FpAction::kError) {
    throw std::runtime_error("injected failure: frozen.load failpoint");
  }
  const std::size_t limit = check_framing(bytes.data(), bytes.size());
  // check_framing verified the preamble (magic, version, endianness);
  // decoding starts at the i32 header fields right after it.
  Cursor c(bytes.data() + kPreambleBytes, limit - kPreambleBytes);

  FrozenScheme f;
  f.storage_ = std::make_unique<Storage>();
  Storage& st = *f.storage_;
  c.read(&f.n_, sizeof(f.n_));
  c.read(&f.k_, sizeof(f.k_));
  c.read(&f.label_trick_, sizeof(f.label_trick_));
  c.read(&f.num_trees_, sizeof(f.num_trees_));
  c.read_vec(st.level);
  c.read_vec(st.tree_root);
  c.read_vec(st.tree_level);
  c.read_vec(st.table_off);
  c.read_vec(st.table_tree);
  std::vector<std::uint8_t> blob;
  c.read_vec(blob);
  decode_table_blob(blob.data(), blob.size(), st.table_tree.size(),
                    st.tables);
  c.read_vec(st.labels);
  c.read_vec(st.hops);
  c.read_vec(st.lights);
  c.read_vec(st.trick_roots);
  c.read_vec(st.tricks);
  c.read_vec(st.adj_off);
  c.read_vec(st.adj_to);
  c.read_vec(st.adj_w);
  c.read_vec(st.blob_off);
  c.read_vec(st.blobs);
  NORS_CHECK_MSG(c.pos() == limit - kPreambleBytes,
                 "trailing bytes after the last frozen-table section");
  f.bind_owned();
  f.build_derived();
  f.validate();
  return f;
}

FrozenScheme FrozenScheme::load_file(const std::string& path) {
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  NORS_CHECK_MSG(fp != nullptr, "cannot open " << path);
  std::fseek(fp, 0, SEEK_END);
  const long size = std::ftell(fp);
  std::fseek(fp, 0, SEEK_SET);
  NORS_CHECK_MSG(size >= 0, "cannot stat " << path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), fp);
  std::fclose(fp);
  NORS_CHECK_MSG(got == bytes.size(), "short read from " << path);
  return load(bytes);
}

FrozenScheme FrozenScheme::map(const std::string& path) {
  if (util::failpoint("frozen.map") == util::FpAction::kError) {
    throw std::runtime_error("injected failure: frozen.map failpoint");
  }
#if NORS_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  NORS_CHECK_MSG(fd >= 0, "cannot open " << path);
  struct stat sb {};
  if (::fstat(fd, &sb) != 0 || sb.st_size < 0) {
    ::close(fd);
    NORS_CHECK_MSG(false, "cannot stat " << path);
  }
  const auto size = static_cast<std::size_t>(sb.st_size);
  auto mapping = std::make_unique<Mapping>();
  if (size > 0) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      ::close(fd);
      NORS_CHECK_MSG(false, "mmap failed for " << path);
    }
    mapping->addr = addr;
    mapping->len = size;
  }
  ::close(fd);
  const std::uint8_t* p = mapping->data();
  const std::size_t limit = check_framing(p, size);

  FrozenScheme f;
  // As in load(): the preamble was verified by check_framing, so the
  // in-place cursor starts at the i32 header fields (absolute addresses
  // are preserved, which the alignment checks rely on).
  ViewCursor c(p + kPreambleBytes, limit - kPreambleBytes);
  c.read(&f.n_, sizeof(f.n_));
  c.read(&f.k_, sizeof(f.k_));
  c.read(&f.label_trick_, sizeof(f.label_trick_));
  c.read(&f.num_trees_, sizeof(f.num_trees_));
  c.read_span(f.level_);
  c.read_span(f.tree_root_);
  c.read_span(f.tree_level_);
  c.read_span(f.table_off_);
  // The table slots are the one piece the mapped path decodes into owned
  // memory (it inflates the varint section into the packed form the hot
  // path wants); the tree-key column is served zero-copy from the image.
  f.storage_ = std::make_unique<Storage>();
  c.read_span(f.table_tree_);
  std::span<const std::uint8_t> blob;
  c.read_span(blob);
  decode_table_blob(blob.data(), blob.size(), f.table_tree_.size(),
                    f.storage_->tables);
  f.tables_ = f.storage_->tables;
  c.read_span(f.labels_);
  c.read_span(f.hops_);
  c.read_span(f.lights_);
  c.read_span(f.trick_roots_);
  c.read_span(f.tricks_);
  c.read_span(f.adj_off_);
  c.read_span(f.adj_to_);
  c.read_span(f.adj_w_);
  c.read_span(f.blob_off_);
  c.read_span(f.blobs_);
  NORS_CHECK_MSG(c.pos() == limit - kPreambleBytes,
                 "trailing bytes after the last frozen-table section");
  f.mapping_ = std::move(mapping);
  f.build_derived();
  f.validate();
  return f;
#else
  NORS_CHECK_MSG(false, "FrozenScheme::map is not supported on this "
                        "platform; use load_file(" << path << ")");
#endif
}

std::int64_t FrozenScheme::byte_size() const {
  auto bytes = [](const auto& v) {
    return static_cast<std::int64_t>(
        v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type));
  };
  return static_cast<std::int64_t>(4 * sizeof(std::int32_t)) + bytes(level_) +
         bytes(tree_root_) + bytes(tree_level_) + bytes(table_off_) +
         bytes(table_tree_) + bytes(tables_) + bytes(labels_) + bytes(hops_) +
         bytes(lights_) + bytes(trick_roots_) + bytes(tricks_) +
         bytes(adj_off_) + bytes(adj_to_) + bytes(adj_w_) + bytes(blob_off_) +
         bytes(blobs_);
}

}  // namespace nors::serve
