// FrozenScheme::save_file streams the image: its heap footprint is a fixed
// write buffer, not a staged copy of the image. This binary replaces the
// global operator new/delete with counting versions, so it lives apart from
// the other serving tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "graph/generators.h"
#include "serve/frozen.h"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

// Each block carries its size in a header, so delete can uncount it
// without relying on sized deallocation.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_new(std::size_t size) {
  void* base = std::malloc(size + kHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(base) = size;
  const std::int64_t live =
      g_live.fetch_add(static_cast<std::int64_t>(size)) +
      static_cast<std::int64_t>(size);
  std::int64_t peak = g_peak.load();
  while (peak < live && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(base) + kHeader;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(static_cast<std::int64_t>(*static_cast<std::size_t*>(base)));
  std::free(base);
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

namespace nors {
namespace {

TEST(FrozenSchemeSaveHeap, SaveFileStagesNoCopyOfTheImage) {
  util::Rng rng(6270);
  const auto g = graph::connected_gnm(2048, 3 * 2048,
                                      graph::WeightSpec::uniform(1, 16), rng);
  core::SchemeParams p;
  p.k = 3;
  p.seed = 95;
  const auto f =
      serve::FrozenScheme::freeze(core::RoutingScheme::build(g, p));
  const std::string path = ::testing::TempDir() + "/nors_save_heap.bin";

  const std::int64_t before = g_live.load();
  g_peak.store(before);
  f.save_file(path);
  const std::int64_t growth = g_peak.load() - before;

  std::FILE* fp = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  std::fseek(fp, 0, SEEK_END);
  const long image_bytes = std::ftell(fp);
  std::fclose(fp);
  std::remove(path.c_str());

  ASSERT_GT(image_bytes, 0);
  EXPECT_LT(growth, image_bytes / 8)
      << "save_file grew the heap by " << growth << " bytes for a "
      << image_bytes << "-byte image";
}

}  // namespace
}  // namespace nors
