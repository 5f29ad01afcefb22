#include "numeric/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace fluxfp::numeric {
namespace {

bool aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(Arena, ReturnsCacheLineAlignedSpans) {
  Arena arena(256);
  EXPECT_TRUE(aligned64(arena.alloc<double>(3).data()));
  EXPECT_TRUE(aligned64(arena.alloc<char>(1).data()));
  EXPECT_TRUE(aligned64(arena.alloc<std::size_t>(5).data()));
}

TEST(Arena, SpansDoNotOverlapWithinAnEpoch) {
  Arena arena;
  const auto a = arena.alloc<double>(10);
  const auto b = arena.alloc<double>(10);
  ASSERT_EQ(a.size(), 10u);
  ASSERT_EQ(b.size(), 10u);
  // Writes through one span must not show through the other.
  for (std::size_t i = 0; i < 10; ++i) {
    a[i] = 1.0;
    b[i] = 2.0;
  }
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a[i], 1.0);
    EXPECT_EQ(b[i], 2.0);
  }
}

TEST(Arena, AllocZeroedValueInitializes) {
  Arena arena;
  // Dirty the storage first so zeroing is observable.
  auto dirty = arena.alloc<double>(64);
  for (double& v : dirty) {
    v = -1.0;
  }
  arena.reset();
  const auto z = arena.alloc_zeroed<double>(64);
  for (double v : z) {
    EXPECT_EQ(v, 0.0);
  }
}

TEST(Arena, SteadyStateEpochsReuseTheHeadBlock) {
  Arena arena(1 << 12);
  double* first_epoch = nullptr;
  for (int epoch = 0; epoch < 5; ++epoch) {
    arena.reset();
    const auto s = arena.alloc<double>(100);
    if (first_epoch == nullptr) {
      first_epoch = s.data();
    } else {
      // Same demand, same block, same address: no allocator traffic.
      EXPECT_EQ(s.data(), first_epoch);
    }
  }
  EXPECT_EQ(arena.stats().overflow_blocks, 0u);
}

TEST(Arena, OverflowGrowsAndResetCoalesces) {
  Arena arena(128);  // deliberately tiny head block
  arena.alloc<double>(8);
  arena.alloc<double>(1000);   // cannot fit: overflow block
  arena.alloc<double>(2000);   // another one
  EXPECT_GE(arena.stats().overflow_blocks, 1u);
  const std::size_t high_water = arena.stats().high_water_bytes;
  EXPECT_GE(high_water, (8 + 1000 + 2000) * sizeof(double));

  arena.reset();
  EXPECT_EQ(arena.stats().overflow_blocks, 0u);
  EXPECT_EQ(arena.stats().used_bytes, 0u);
  // After coalescing, the former worst case fits the head block whole.
  const auto a = arena.alloc<double>(8);
  const auto b = arena.alloc<double>(1000);
  const auto c = arena.alloc<double>(2000);
  EXPECT_EQ(arena.stats().overflow_blocks, 0u);
  a[0] = b[0] = c[0] = 1.0;
  EXPECT_GE(arena.stats().block_bytes, high_water);
}

TEST(Arena, StatsTrackUsage) {
  Arena arena(1 << 12);
  EXPECT_EQ(arena.stats().used_bytes, 0u);
  arena.alloc<double>(16);
  const Arena::Stats s = arena.stats();
  EXPECT_GE(s.used_bytes, 16 * sizeof(double));
  EXPECT_GE(s.high_water_bytes, s.used_bytes);
  arena.reset();
  EXPECT_EQ(arena.stats().used_bytes, 0u);
  EXPECT_GE(arena.stats().high_water_bytes, 16 * sizeof(double));
}

TEST(Arena, ZeroCountAllocIsLegal) {
  Arena arena;
  const auto s = arena.alloc<double>(0);
  EXPECT_EQ(s.size(), 0u);
}

}  // namespace
}  // namespace fluxfp::numeric
