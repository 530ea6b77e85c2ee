#include "src/storage/lru_cache.h"

#include <gtest/gtest.h>

#include "src/storage/mem_block_device.h"
#include "src/util/random.h"
#include "src/workload/ycsb.h"

namespace lsmssd {
namespace {

BlockData Val(uint8_t b) { return BlockData(4, b); }

TEST(LruCacheTest, MissThenHit) {
  LruCache cache(2);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Put(1, Val(7));
  auto hit = cache.Get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 7);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  cache.Put(1, Val(1));
  cache.Put(2, Val(2));
  ASSERT_NE(cache.Get(1), nullptr);  // 1 becomes MRU.
  cache.Put(3, Val(3));              // Evicts 2.
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
}

TEST(LruCacheTest, PutRefreshesExistingEntry) {
  LruCache cache(2);
  cache.Put(1, Val(1));
  cache.Put(2, Val(2));
  cache.Put(1, Val(9));  // Refresh: 1 is MRU now.
  cache.Put(3, Val(3));  // Evicts 2.
  auto hit = cache.Get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 9);
  EXPECT_EQ(cache.Get(2), nullptr);
}

TEST(LruCacheTest, PinnedEntriesSurviveEviction) {
  LruCache cache(2);
  cache.Put(1, Val(1));
  EXPECT_TRUE(cache.Pin(1));
  cache.Put(2, Val(2));
  cache.Put(3, Val(3));  // Would evict 1 (LRU), but it is pinned -> evict 2.
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
}

TEST(LruCacheTest, UnpinMakesEvictable) {
  LruCache cache(1);
  cache.Put(1, Val(1));
  cache.Pin(1);
  cache.Put(2, Val(2));  // 1 pinned: cache stays over... insert skipped or kept.
  cache.Unpin(1);
  cache.Put(3, Val(3));
  EXPECT_EQ(cache.Get(1), nullptr);
}

TEST(LruCacheTest, PinMissingReturnsFalse) {
  LruCache cache(2);
  EXPECT_FALSE(cache.Pin(42));
}

TEST(LruCacheTest, EraseRemovesEvenPinned) {
  LruCache cache(2);
  cache.Put(1, Val(1));
  cache.Pin(1);
  cache.Erase(1);
  EXPECT_EQ(cache.Get(1), nullptr);
}

TEST(LruCacheTest, ZeroCapacityDisablesCaching) {
  LruCache cache(0);
  cache.Put(1, Val(1));
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, ZeroCapacityCountsNoHitsAndNoMisses) {
  // A capacity-0 cache is "no cache", not "a cache with a 0% hit rate":
  // its lookups must not pollute the hit/miss accounting at all.
  LruCache cache(0);
  cache.Put(1, Val(1));
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(LruCacheTest, ClearEmptiesCache) {
  LruCache cache(4);
  cache.Put(1, Val(1));
  cache.Put(2, Val(2));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get(1), nullptr);
}

TEST(LruCacheTest, ClearResetsHitAndMissCounters) {
  // Clear() starts a fresh accounting epoch: contents *and* counters go,
  // so a post-Clear hit rate reflects only post-Clear traffic.
  LruCache cache(4);
  cache.Put(1, Val(1));
  EXPECT_NE(cache.Get(1), nullptr);  // 1 hit.
  EXPECT_EQ(cache.Get(2), nullptr);  // 1 miss.
  cache.Clear();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  cache.Put(3, Val(3));
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(LruCacheTest, ReReadBlockSurvivesOneTouchStream) {
  // A block hit once since it was cached is protected: a stream of more
  // than `capacity` one-touch inserts only churns the probation segment.
  LruCache cache(10);
  cache.Put(1, Val(1));
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.protected_size(), 1u);
  for (BlockId id = 100; id < 130; ++id) cache.Put(id, Val(2));
  EXPECT_EQ(cache.size(), 10u);
  EXPECT_NE(cache.Get(1), nullptr);
  // A block never re-read gets no such protection.
  EXPECT_EQ(cache.Get(100), nullptr);
}

TEST(LruCacheTest, ProtectedOverflowDemotesInsteadOfEvicting) {
  LruCache cache(10);  // Protected cap 8.
  ASSERT_EQ(cache.protected_cap(), 8u);
  for (BlockId id = 1; id <= 9; ++id) cache.Put(id, Val(1));
  for (BlockId id = 1; id <= 8; ++id) ASSERT_NE(cache.Get(id), nullptr);
  EXPECT_EQ(cache.protected_size(), 8u);
  // Promoting 9 overfills protected: its LRU entry (1) moves to the head
  // of probation and stays cached.
  ASSERT_NE(cache.Get(9), nullptr);
  EXPECT_EQ(cache.protected_size(), 8u);
  EXPECT_EQ(cache.size(), 9u);
  // Probation now holds only 1. The cache has room for one more insert;
  // the next evicts probation's tail, 1, and no protected entry.
  cache.Put(20, Val(2));
  cache.Put(21, Val(2));
  EXPECT_EQ(cache.size(), 10u);
  EXPECT_EQ(cache.protected_size(), 8u);
  EXPECT_EQ(cache.Get(1), nullptr);
  for (BlockId id = 2; id <= 9; ++id) EXPECT_NE(cache.Get(id), nullptr);
}

TEST(LruCacheTest, PutOfCachedIdReplacesDataWithoutPromoting) {
  LruCache cache(10);
  cache.Put(1, Val(1));
  cache.Put(1, Val(9));
  EXPECT_EQ(cache.protected_size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  ASSERT_NE(cache.Get(1), nullptr);  // Now promoted.
  cache.Put(1, Val(7));              // Stays in protected.
  EXPECT_EQ(cache.protected_size(), 1u);
  EXPECT_EQ((*cache.Get(1))[0], 7);
}

TEST(LruCacheTest, PinnedEntriesSurviveEvictionInEitherSegment) {
  LruCache cache(5);  // Protected cap 4.
  cache.Put(1, Val(1));
  ASSERT_NE(cache.Get(1), nullptr);  // 1 is protected.
  cache.Put(2, Val(2));              // 2 is in probation.
  ASSERT_TRUE(cache.Pin(1));
  ASSERT_TRUE(cache.Pin(2));
  for (BlockId id = 100; id < 120; ++id) cache.Put(id, Val(3));
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(2), nullptr);
  EXPECT_EQ(cache.size(), 5u);

  // With every older probation entry pinned, the new insert is its own
  // victim; the protected entry is never evicted.
  LruCache small(2);  // Protected cap 1.
  small.Put(1, Val(1));
  ASSERT_NE(small.Get(1), nullptr);  // 1 is protected, unpinned.
  small.Put(2, Val(2));
  ASSERT_TRUE(small.Pin(2));
  small.Put(3, Val(3));
  EXPECT_EQ(small.size(), 2u);
  EXPECT_NE(small.Get(1), nullptr);
  EXPECT_NE(small.Get(2), nullptr);
  EXPECT_EQ(small.Get(3), nullptr);
}

TEST(LruCacheTest, EraseAndClearCoverBothSegments) {
  LruCache cache(10);
  cache.Put(1, Val(1));
  cache.Put(2, Val(2));
  ASSERT_NE(cache.Get(1), nullptr);  // 1 protected, 2 probation.
  cache.Erase(1);
  cache.Erase(2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.protected_size(), 0u);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);

  cache.Put(3, Val(3));
  cache.Put(4, Val(4));
  ASSERT_NE(cache.Get(3), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.protected_size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.Get(3), nullptr);
  EXPECT_EQ(cache.Get(4), nullptr);
}

TEST(LruCacheTest, CapacityOneHasNoProtectedSegment) {
  LruCache cache(1);
  EXPECT_EQ(cache.protected_cap(), 0u);
  cache.Put(1, Val(1));
  // The promotion overfills a zero-entry protected segment, so the entry
  // is demoted straight back to probation.
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.protected_size(), 0u);
  cache.Put(2, Val(2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(2), nullptr);
}

TEST(LruCacheTest, CapacityTwoProtectsOneEntry) {
  LruCache cache(2);
  EXPECT_EQ(cache.protected_cap(), 1u);
  cache.Put(1, Val(1));
  cache.Put(2, Val(2));
  ASSERT_NE(cache.Get(1), nullptr);  // Protected: {1}.
  ASSERT_NE(cache.Get(2), nullptr);  // Protected: {2}; 1 demoted.
  EXPECT_EQ(cache.protected_size(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  cache.Put(3, Val(3));  // Evicts probation's tail: 1.
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Put(4, Val(4));  // Evicts 3, never the protected 2.
  EXPECT_EQ(cache.Get(3), nullptr);
  EXPECT_NE(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(4), nullptr);
}

// Hit rate of a read-only trace shaped like the served read-zipf workload:
// zipf(0.99) over 200k records, each record hashed to one of 9091 blocks
// (about 22 records per block), through a 1024-block cache that is filled
// on every miss.
double ZipfTraceHitRate() {
  constexpr uint64_t kRecords = 200'000;
  constexpr uint64_t kBlocks = 9091;
  constexpr int kRequests = 500'000;
  ZipfianGenerator zipf(kRecords, 0.99);
  Random rng(17);
  LruCache cache(1024);
  const auto image = std::make_shared<const BlockData>(Val(0));
  for (int i = 0; i < kRequests; ++i) {
    uint64_t h = zipf.Next(&rng) + 0x9E3779B97F4A7C15ull;  // splitmix64
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
    const BlockId block = h % kBlocks;
    if (cache.Get(block) == nullptr) cache.Put(block, image);
  }
  return static_cast<double>(cache.hits()) /
         static_cast<double>(cache.hits() + cache.misses());
}

TEST(LruCacheTest, ZipfTraceHitRateBeatsPlainLru) {
  // The plain LRU this cache replaced hit 0.5297 of this exact trace. The
  // segmented cache keeps re-read blocks out of reach of one-touch fills,
  // so it must do at least 4 points better.
  constexpr double kPlainLruHitRate = 0.5297;
  EXPECT_GE(ZipfTraceHitRate(), kPlainLruHitRate + 0.04);
}

TEST(CachedBlockDeviceTest, ReadsAreServedFromCache) {
  MemBlockDevice base(32);
  CachedBlockDevice cached(&base, 8);
  auto id = cached.WriteNewBlock(Val(5));
  ASSERT_TRUE(id.ok());

  BlockData out;
  ASSERT_TRUE(cached.ReadBlock(id.value(), &out).ok());
  ASSERT_TRUE(cached.ReadBlock(id.value(), &out).ok());
  // Write-through put the block in cache, so the base device never saw a
  // read.
  EXPECT_EQ(base.stats().block_reads(), 0u);
  EXPECT_EQ(base.stats().cached_reads(), 2u);
  EXPECT_EQ(out[0], 5);
}

TEST(CachedBlockDeviceTest, WritesAlwaysReachDevice) {
  MemBlockDevice base(32);
  CachedBlockDevice cached(&base, 8);
  for (uint8_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(cached.WriteNewBlock(Val(i)).ok());
  }
  // The headline metric (device writes) must never be absorbed by caching.
  EXPECT_EQ(base.stats().block_writes(), 5u);
}

TEST(CachedBlockDeviceTest, MissFallsThroughAndPopulates) {
  MemBlockDevice base(32);
  auto id = base.WriteNewBlock(Val(9));  // Written directly to base.
  ASSERT_TRUE(id.ok());

  CachedBlockDevice cached(&base, 8);
  BlockData out;
  ASSERT_TRUE(cached.ReadBlock(id.value(), &out).ok());
  EXPECT_EQ(base.stats().block_reads(), 1u);
  ASSERT_TRUE(cached.ReadBlock(id.value(), &out).ok());
  EXPECT_EQ(base.stats().block_reads(), 1u);  // Second read cached.
}

TEST(CachedBlockDeviceTest, FreeInvalidatesCacheEntry) {
  MemBlockDevice base(32);
  CachedBlockDevice cached(&base, 8);
  auto id = cached.WriteNewBlock(Val(5));
  ASSERT_TRUE(cached.FreeBlock(id.value()).ok());
  BlockData out;
  EXPECT_TRUE(cached.ReadBlock(id.value(), &out).IsNotFound());
}

TEST(CachedBlockDeviceTest, EvictionBoundsMemory) {
  MemBlockDevice base(32);
  CachedBlockDevice cached(&base, 4);
  for (uint8_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(cached.WriteNewBlock(Val(i)).ok());
  }
  EXPECT_LE(cached.cache().size(), 4u);
}

}  // namespace
}  // namespace lsmssd
