#pragma once

// Heap-backed scratch buffers for the construction pipeline (DESIGN.md §9).
//
//   * Buffer<T> — a flat, movable buffer of trivially-copyable T with
//     discard-on-grow semantics (`ensure`), for the recurring scratch whose
//     contents are rewritten every round or run: source-detection rows,
//     CONGEST message and link tables, the large-level phase-1 state.
//   * Arena — a bump allocator for many small allocations with one
//     lifetime: cluster BF's per-vertex entry blocks, which are allocated
//     one small block at a time and all die with the run.
//
// Both own plain malloc blocks. Peak memory is set by what the scheme
// keeps and by its frozen image, not by this scratch; the release points
// between phases are malloc_trim calls in core/scheme.cc.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace nors::util {

/// A flat buffer of trivially-copyable T over one heap block. Move-only.
/// `ensure(n)` discards contents (every round or run rewrites the buffer in
/// full, so growth copies nothing and fills nothing); `grow_preserve`
/// keeps a prefix. Capacity rounds up to a power of two of bytes, so a
/// buffer that grows step by step reallocates O(log) times.
template <typename T>
class Buffer {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "Buffer requires trivially copyable contents");
  static_assert(alignof(T) <= alignof(std::max_align_t));

 public:
  Buffer() = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  Buffer(Buffer&& o) noexcept { swap(o); }
  Buffer& operator=(Buffer&& o) noexcept {
    if (this != &o) {
      release();
      swap(o);
    }
    return *this;
  }
  ~Buffer() { release(); }

  T* data() { return p_; }
  const T* data() const { return p_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return p_[i]; }
  const T& operator[](std::size_t i) const { return p_[i]; }

  /// Capacity for n elements, contents unspecified; size becomes n.
  T* ensure(std::size_t n) {
    if (cap_ < n) {
      release();
      p_ = allocate(n, cap_);
    }
    size_ = n;
    return p_;
  }

  /// Capacity for n, preserving the first min(size, n) elements.
  T* grow_preserve(std::size_t n) {
    if (cap_ < n) {
      std::size_t cap = 0;
      T* bigger = allocate(n, cap);
      if (size_ > 0) std::memcpy(bigger, p_, size_ * sizeof(T));
      std::free(p_);
      p_ = bigger;
      cap_ = cap;
    }
    size_ = n;
    return p_;
  }

  /// ensure(n) then fill with `value` (the assign(n, v) pattern).
  T* assign_fill(std::size_t n, const T& value) {
    T* p = ensure(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = value;
    return p;
  }

  void clear() { size_ = 0; }

  void swap(Buffer& o) noexcept {
    std::swap(p_, o.p_);
    std::swap(cap_, o.cap_);
    std::swap(size_, o.size_);
  }

  /// Frees the block (the buffer becomes empty).
  void release() {
    std::free(p_);
    p_ = nullptr;
    cap_ = 0;
    size_ = 0;
  }

 private:
  static T* allocate(std::size_t n, std::size_t& cap) {
    const std::size_t bytes = std::bit_ceil(n * sizeof(T));
    void* p = std::malloc(bytes);
    NORS_CHECK_MSG(p != nullptr, "Buffer: malloc of " << bytes
                                                      << " bytes failed");
    cap = bytes / sizeof(T);
    return static_cast<T*>(p);
  }

  T* p_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
};

/// Bump allocator over heap chunks for many small allocations with one
/// lifetime (e.g. the per-vertex cluster entry blocks of one CONGEST run).
/// An allocation never moves. Not thread-safe; alignment up to
/// alignof(std::max_align_t). Each new chunk is at least as large as
/// everything handed out so far, so a run allocates O(log) chunks.
/// reset() frees every chunk.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() { reset(); }

  /// Uninitialized storage for n objects of T, aligned to alignof(T).
  template <typename T>
  T* alloc(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena memory is reclaimed without destructors");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    const std::size_t bytes = n * sizeof(T);
    std::size_t pad = cur_ % alignof(T);
    if (pad != 0) pad = alignof(T) - pad;
    if (cur_ + pad + bytes > end_) {
      new_chunk(bytes);
      pad = 0;  // malloc aligns for max_align_t
    }
    T* p = reinterpret_cast<T*>(cur_ + pad);
    cur_ += pad + bytes;
    used_ += pad + bytes;
    return p;
  }

  /// Frees every chunk; the arena is empty and reusable.
  void reset() {
    for (void* c : chunks_) std::free(c);
    chunks_.clear();
    used_ = 0;
    cur_ = end_ = 0;
  }

  /// Bytes handed out since the last reset (excluding chunk slack).
  std::size_t used_bytes() const { return used_; }

 private:
  static constexpr std::size_t kMinChunkBytes = std::size_t{1} << 16;

  void new_chunk(std::size_t min_bytes) {
    const std::size_t bytes = std::max({kMinChunkBytes, used_, min_bytes});
    void*& chunk = chunks_.emplace_back(nullptr);
    chunk = std::malloc(bytes);
    NORS_CHECK_MSG(chunk != nullptr, "Arena: malloc of " << bytes
                                                         << " bytes failed");
    cur_ = reinterpret_cast<std::uintptr_t>(chunk);
    end_ = cur_ + bytes;
  }

  std::vector<void*> chunks_;
  std::uintptr_t cur_ = 0, end_ = 0;
  std::size_t used_ = 0;
};

}  // namespace nors::util
