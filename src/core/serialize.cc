#include "core/serialize.h"

namespace nors::core {

void encode_vertex_label(const RoutingScheme& scheme, graph::Vertex v,
                         util::WordWriter& w) {
  const int k = scheme.params().k;
  for (int i = 0; i < k; ++i) {
    const auto& le = scheme.label_entry(v, i);
    w.put(le.pivot);
    w.put(le.pivot_dist);
    w.put(le.member ? 1 : 0);
    if (le.member) treeroute::encode(le.tree_label, w);
  }
}

std::vector<std::uint8_t> encode_vertex_label(const RoutingScheme& scheme,
                                              graph::Vertex v) {
  util::WordWriter w;
  encode_vertex_label(scheme, v, w);
  return w.bytes();
}

DecodedVertexLabel decode_vertex_label(
    const std::vector<std::uint8_t>& bytes) {
  util::WordReader r(bytes);
  DecodedVertexLabel out;
  while (!r.exhausted()) {
    DecodedVertexLabel::Entry e;
    e.pivot = static_cast<graph::Vertex>(r.get());
    e.pivot_dist = r.get();
    e.member = r.get() != 0;
    if (e.member) e.tree_label = treeroute::decode_vlabel(r);
    out.levels.push_back(std::move(e));
  }
  return out;
}

std::int64_t vertex_label_overhead_words(const RoutingScheme& scheme,
                                         graph::Vertex v) {
  std::int64_t overhead = 0;
  const int k = scheme.params().k;
  for (int i = 0; i < k; ++i) {
    const auto& le = scheme.label_entry(v, i);
    if (le.member) {
      overhead += treeroute::vlabel_overhead_words(le.tree_label);
    }
  }
  return overhead;
}

const std::uint8_t* get_uvarint_slow(const std::uint8_t* p,
                                     const std::uint8_t* end,
                                     std::uint64_t& x) {
  std::uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    NORS_CHECK_MSG(p != end, "truncated varint");
    const std::uint8_t b = *p++;
    if (i == 9) {
      // Tenth byte: only one value bit may remain for a 64-bit payload.
      NORS_CHECK_MSG(b <= 1, "varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      // Canonical form: a multi-byte encoding must need its last byte.
      NORS_CHECK_MSG(i == 0 || b != 0, "over-long varint encoding");
      x = v;
      return p;
    }
    shift += 7;
  }
  NORS_CHECK_MSG(false, "unterminated varint");
  return p;  // unreachable
}

}  // namespace nors::core
