// Tests for util::SlabPool: slots are constructed when first handed out
// (never in bulk when a slab is allocated), destroyed exactly once, and
// handed out in the same order as an eagerly filled free list would.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/slab_pool.hpp"

namespace probemon::util {
namespace {

struct Counted {
  static inline int constructed = 0;
  static inline int destroyed = 0;
  static void reset() { constructed = destroyed = 0; }

  Counted() { ++constructed; }
  ~Counted() { ++destroyed; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;

  int payload = 7;
};

using Pool = SlabPool<Counted>;
constexpr std::uint32_t kSlab = Pool::kSlabSize;

/// The hand-out rule of a pool whose slabs push every index onto the
/// free list up front (lowest index on top): released slots come back
/// LIFO, then untouched indices in ascending order.
class EagerModel {
 public:
  std::uint32_t acquire() {
    if (free_.empty()) {
      const auto base = static_cast<std::uint32_t>(capacity_);
      capacity_ += kSlab;
      for (std::uint32_t i = kSlab; i-- > 0;) free_.push_back(base + i);
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }
  void release(std::uint32_t index) { free_.push_back(index); }
  std::size_t capacity() const { return capacity_; }
  std::size_t free_count() const { return free_.size(); }
  std::size_t in_use() const { return capacity_ - free_.size(); }

 private:
  std::vector<std::uint32_t> free_;
  std::size_t capacity_ = 0;
};

TEST(SlabPool, NothingConstructedBeforeFirstAcquire) {
  Counted::reset();
  {
    Pool pool;
    EXPECT_EQ(pool.capacity(), 0u);
    EXPECT_EQ(pool.handed_out(), 0u);
    EXPECT_EQ(pool.in_use(), 0u);
    EXPECT_EQ(pool.free_count(), 0u);
  }
  EXPECT_EQ(Counted::constructed, 0);
  EXPECT_EQ(Counted::destroyed, 0);
}

TEST(SlabPool, ConstructsExactlyOncePerNewIndex) {
  Counted::reset();
  Pool pool;
  const std::uint32_t a = pool.acquire();
  EXPECT_EQ(Counted::constructed, 1);  // not a slab's worth
  EXPECT_EQ(pool.capacity(), kSlab);
  const std::uint32_t b = pool.acquire();
  const std::uint32_t c = pool.acquire();
  EXPECT_EQ(Counted::constructed, 3);
  EXPECT_EQ(pool.handed_out(), 3u);

  // A released slot is reused as is: no second construction, and the
  // object keeps what the previous holder wrote.
  pool[b].payload = 42;
  pool.release(b);
  EXPECT_EQ(pool.acquire(), b);
  EXPECT_EQ(pool[b].payload, 42);
  EXPECT_EQ(Counted::constructed, 3);
  EXPECT_EQ(Counted::destroyed, 0);
  EXPECT_EQ(pool[a].payload, 7);
  EXPECT_EQ(pool[c].payload, 7);
}

TEST(SlabPool, DestructorDestroysExactlyTheHandedOutSlots) {
  Counted::reset();
  {
    Pool pool;
    std::vector<std::uint32_t> held;
    for (std::uint32_t i = 0; i < kSlab + 44; ++i) held.push_back(pool.acquire());
    // Released slots still hold their object and are destroyed with the
    // pool; the untouched tail of the second slab is not.
    for (std::size_t i = 0; i < held.size(); i += 3) pool.release(held[i]);
    EXPECT_EQ(pool.capacity(), 2u * kSlab);
    EXPECT_EQ(pool.handed_out(), kSlab + 44u);
  }
  EXPECT_EQ(Counted::constructed, static_cast<int>(kSlab) + 44);
  EXPECT_EQ(Counted::destroyed, Counted::constructed);
}

TEST(SlabPool, HandOutOrderAndGaugesMatchEagerFreeList) {
  // A scripted acquire/release trace that crosses the slab boundary
  // several times, with scattered releases between bursts.
  Counted::reset();
  Pool pool;
  EagerModel model;
  std::vector<std::uint32_t> held;
  Rng rng(2026);
  auto check_gauges = [&](int step) {
    ASSERT_EQ(pool.capacity(), model.capacity()) << "step " << step;
    ASSERT_EQ(pool.in_use(), model.in_use()) << "step " << step;
    ASSERT_EQ(pool.free_count(), model.free_count()) << "step " << step;
  };
  int step = 0;
  auto acquire_n = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++step) {
      const std::uint32_t got = pool.acquire();
      ASSERT_EQ(got, model.acquire()) << "step " << step;
      held.push_back(got);
      check_gauges(step);
    }
  };
  auto release_n = [&](std::size_t n) {
    for (std::size_t i = 0; i < n && !held.empty(); ++i, ++step) {
      const auto pick = rng.uniform_u64(0, held.size() - 1);
      const std::uint32_t index = held[pick];
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
      pool.release(index);
      model.release(index);
      check_gauges(step);
    }
  };
  acquire_n(kSlab - 6);
  release_n(10);
  acquire_n(20);  // 10 reused, then fresh indices across the boundary
  release_n(100);
  acquire_n(kSlab + 30);  // reuse, then into a third slab
  release_n(held.size());
  acquire_n(3 * kSlab + 5);  // every released slot, then a fourth slab
  EXPECT_EQ(Counted::constructed, static_cast<int>(pool.handed_out()));
  EXPECT_EQ(pool.handed_out(), 3u * kSlab + 5u);
}

TEST(SlabPool, FreshSlotIsValueInitialised) {
  struct Plain {
    std::uint64_t a;
    double b;
  };
  SlabPool<Plain> pool;
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t index = pool.acquire();
    EXPECT_EQ(pool[index].a, 0u);
    EXPECT_EQ(pool[index].b, 0.0);
  }
}

TEST(SlabPool, OverAlignedSlotsStayAligned) {
  struct alignas(64) Wide {
    char bytes[80] = {};
  };
  SlabPool<Wide, 2> pool;  // 4-slot slabs: several slabs in a few acquires
  for (int i = 0; i < 10; ++i) {
    const std::uint32_t index = pool.acquire();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&pool[index]) % 64, 0u);
  }
}

}  // namespace
}  // namespace probemon::util
