#pragma once

#include <bit>
#include <vector>

#include "core/scheme.h"
#include "treeroute/codec.h"

namespace nors::core {

/// Wire labels are emitted in whole little-endian 8-byte words (one per
/// O(log n)-bit word the paper counts). This is also an alignment
/// contract with the frozen serving layer: every per-vertex blob is a
/// multiple of kWireWordBytes, so the byte offsets of FrozenScheme's
/// packed blob pool stay word-aligned and a memory-mapped image can hand
/// out label views without copying or re-aligning (DESIGN.md §8.2).
/// WordReader enforces the invariant on decode.
inline constexpr std::size_t kWireWordBytes = sizeof(std::int64_t);

/// Wire form of a vertex's complete routing label — what a packet header
/// carries and what a node hands to peers at connection setup. Decoding
/// recovers everything a router needs from the destination side; the
/// round-trip is validated in test_codec, including that the byte size
/// matches the scheme's label_words() accounting exactly. The label entries
/// are read from the scheme's flat label arena (core/scheme.h); the frozen
/// serving snapshot (serve/frozen.h) packs all n blobs into one pool with
/// the writer-append overload below.
std::vector<std::uint8_t> encode_vertex_label(const RoutingScheme& scheme,
                                              graph::Vertex v);

/// Same encoding, appended to an existing writer (no per-vertex allocation
/// when packing many labels into one blob pool).
void encode_vertex_label(const RoutingScheme& scheme, graph::Vertex v,
                         util::WordWriter& w);

struct DecodedVertexLabel {
  struct Entry {
    graph::Vertex pivot = graph::kNoVertex;
    graph::Dist pivot_dist = graph::kDistInf;
    bool member = false;
    treeroute::DistTreeScheme::VLabel tree_label;
  };
  std::vector<Entry> levels;
};

DecodedVertexLabel decode_vertex_label(const std::vector<std::uint8_t>& bytes);

/// Wire words beyond label_words(): per-level list/length overheads.
std::int64_t vertex_label_overhead_words(const RoutingScheme& scheme,
                                         graph::Vertex v);

// ---------------------------------------------------------------- varint --
// LEB128-style varint + zigzag codec for the frozen-table v3 port-column
// sections (DESIGN.md §10). The encoding is canonical — exactly one byte
// sequence per value, enforced on decode — which is what lets a decoded
// image re-encode byte-identically (save→load→save and save→map→save stay
// byte-for-byte equal per format version). Pinned by test_codec.

/// Appends x as a little-endian base-128 varint: 7 value bits per byte,
/// high bit = continuation. At most 10 bytes for 64-bit values.
inline void put_uvarint(std::vector<std::uint8_t>& out, std::uint64_t x) {
  while (x >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(x) | 0x80u);
    x >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(x));
}

/// Writes x at p in the same encoding (the caller provides ≥ 10 bytes);
/// returns the cursor after it.
inline std::uint8_t* put_uvarint(std::uint8_t* p, std::uint64_t x) {
  while (x >= 0x80) {
    *p++ = static_cast<std::uint8_t>(x) | 0x80u;
    x >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(x);
  return p;
}

/// Encoded length of x in bytes (1..10).
inline std::size_t uvarint_size(std::uint64_t x) {
  return static_cast<std::size_t>(std::bit_width(x | 1) + 6) / 7;
}

/// The general decoder behind get_uvarint: any length, every check.
const std::uint8_t* get_uvarint_slow(const std::uint8_t* p,
                                     const std::uint8_t* end,
                                     std::uint64_t& x);

/// Decodes one canonical varint from [p, end); returns the cursor after
/// it. Throws std::logic_error on truncation, on 64-bit overflow, and on
/// any non-minimal (over-long) encoding — e.g. {0x80, 0x00} for 0.
/// Canonical 1- and 2-byte encodings (values below 2^14: nearly every
/// field of a frozen table, wire frame or WAL record) decode inline;
/// everything else, errors included, goes through get_uvarint_slow.
inline const std::uint8_t* get_uvarint(const std::uint8_t* p,
                                       const std::uint8_t* end,
                                       std::uint64_t& x) {
  if (p != end && p[0] < 0x80) {
    x = p[0];
    return p + 1;
  }
  if (end - p >= 2 && p[1] != 0 && p[1] < 0x80) {
    x = (p[0] & 0x7fu) | static_cast<std::uint64_t>(p[1]) << 7;
    return p + 2;
  }
  return get_uvarint_slow(p, end, x);
}

/// Zigzag mapping: small-magnitude signed values (ports, deltas) become
/// small unsigned varints. 0→0, -1→1, 1→2, -2→3, ...
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>(u >> 1) ^
         -static_cast<std::int64_t>(u & 1);
}

}  // namespace nors::core
