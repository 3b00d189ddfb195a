#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "util/arena.h"

// util/arena.h (DESIGN.md §9): the flat Buffer and the bump Arena. The
// properties pinned here are the ones the construction pipeline relies on:
// grow_preserve keeps its prefix, moves transfer ownership, bump
// allocations are aligned, and an arena is reusable after reset — plus
// enough pointer traffic that the NORS_SANITIZE CI leg would catch any
// lifetime or bounds mistake.

namespace nors {
namespace {

TEST(Buffer, EnsureDiscardsAndGrowPreserves) {
  util::Buffer<std::int64_t> buf;
  EXPECT_TRUE(buf.empty());
  std::int64_t* p = buf.ensure(100);
  for (int i = 0; i < 100; ++i) p[i] = i;
  ASSERT_EQ(buf.size(), 100u);
  EXPECT_GE(buf.capacity(), 100u);

  // ensure within capacity keeps the block.
  EXPECT_EQ(buf.ensure(50), p);
  ASSERT_EQ(buf.size(), 50u);

  // grow_preserve keeps the prefix across a reallocation.
  buf.ensure(100);
  const std::size_t grow_to = std::size_t{1} << 17;
  buf.grow_preserve(grow_to);
  ASSERT_EQ(buf.size(), grow_to);
  EXPECT_GE(buf.capacity(), grow_to);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(buf[static_cast<std::size_t>(i)], i) << i;
  }
  buf[grow_to - 1] = -1;

  // assign_fill overwrites everything.
  buf.assign_fill(64, std::int64_t{7});
  ASSERT_EQ(buf.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) ASSERT_EQ(buf[i], 7);

  // release empties the buffer; it is usable again afterwards.
  buf.release();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.capacity(), 0u);
  buf.assign_fill(32, std::int64_t{5});
  EXPECT_EQ(buf[31], 5);
}

TEST(Buffer, MoveTransfersOwnership) {
  util::Buffer<int> a;
  a.assign_fill(10, 3);
  util::Buffer<int> b(std::move(a));
  ASSERT_EQ(b.size(), 10u);
  EXPECT_EQ(b[9], 3);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): spec'd empty
  util::Buffer<int> c;
  c.assign_fill(4, 1);
  c = std::move(b);
  ASSERT_EQ(c.size(), 10u);
  EXPECT_EQ(c[0], 3);
  c.swap(a);
  EXPECT_EQ(c.size(), 0u);
  ASSERT_EQ(a.size(), 10u);
  EXPECT_EQ(a[5], 3);
}

TEST(Arena, AlignsEveryAllocation) {
  util::Arena arena;
  char* c = arena.alloc<char>(3);
  std::memset(c, 1, 3);
  double* d = arena.alloc<double>(4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  char* c2 = arena.alloc<char>(1);
  *c2 = 9;
  std::int64_t* q = arena.alloc<std::int64_t>(2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % alignof(std::int64_t), 0u);
  q[0] = 1;
  q[1] = 2;
  EXPECT_EQ(c[0], 1);
  EXPECT_EQ(*c2, 9);
}

TEST(Arena, ReusableAfterReset) {
  util::Arena arena;
  // Several chunks' worth, so the run crosses chunk boundaries; earlier
  // allocations must keep their contents while later ones are handed out.
  const std::size_t chunk = std::size_t{1} << 15;
  const auto one_run = [&] {
    char* blocks[9];
    for (int i = 0; i < 9; ++i) {
      blocks[i] = arena.alloc<char>(chunk);
      std::memset(blocks[i], i, chunk);
    }
    for (int i = 0; i < 9; ++i) {
      ASSERT_EQ(blocks[i][0], i);
      ASSERT_EQ(blocks[i][chunk - 1], i);
    }
  };
  one_run();
  EXPECT_GE(arena.used_bytes(), 9 * chunk);
  arena.reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  one_run();
  EXPECT_GE(arena.used_bytes(), 9 * chunk);
}

}  // namespace
}  // namespace nors
