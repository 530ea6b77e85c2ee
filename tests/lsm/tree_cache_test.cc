// LsmTree + CachedBlockDevice wiring: Options::cache_blocks builds the
// tree-owned buffer cache, Gets are served from it, merge frees invalidate
// it, and — the paper's ground rule — write counts are never affected.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/lsm/lsm_tree.h"
#include "tests/test_util.h"

namespace lsmssd {
namespace {

using testing::TinyOptions;
using testing::TreeFixture;

TEST(TreeCacheTest, CacheDisabledByDefault) {
  TreeFixture fx(TinyOptions(), PolicyKind::kChooseBest);
  EXPECT_EQ(fx.tree->cache_device(), nullptr);
  // Tree I/O goes straight to the caller's device.
  EXPECT_EQ(fx.tree->device(), &fx.device);
}

TEST(TreeCacheTest, CacheWiredWhenEnabled) {
  Options options = TinyOptions();
  options.cache_blocks = 64;
  TreeFixture fx(options, PolicyKind::kChooseBest);
  ASSERT_NE(fx.tree->cache_device(), nullptr);
  EXPECT_EQ(fx.tree->device(), fx.tree->cache_device());
  EXPECT_EQ(fx.tree->cache_device()->base(), &fx.device);
  EXPECT_EQ(fx.tree->cache_device()->cache().capacity(), 64u);
}

TEST(TreeCacheTest, GetsCountHitsAndMisses) {
  Options options = TinyOptions();
  options.cache_blocks = 256;  // Holds the whole tiny tree.
  TreeFixture fx(options, PolicyKind::kChooseBest);
  for (Key k = 1; k <= 600; ++k) ASSERT_TRUE(fx.Put(k * 3).ok());
  ASSERT_GT(fx.tree->num_levels(), 1u);  // Data actually spilled to SSD.

  const IoStats& stats = fx.tree->device()->stats();
  // Merges warm the cache write-through; clear it so the first read pass
  // demonstrably misses and the second demonstrably hits.
  fx.tree->cache_device()->cache().Clear();
  const uint64_t hits0 = stats.cache_hits();

  for (Key k = 1; k <= 600; ++k) ASSERT_TRUE(fx.tree->Get(k * 3).ok());
  const uint64_t misses_after_cold_pass = stats.cache_misses();
  EXPECT_GT(misses_after_cold_pass, 0u);

  for (Key k = 1; k <= 600; ++k) ASSERT_TRUE(fx.tree->Get(k * 3).ok());
  EXPECT_GT(stats.cache_hits(), hits0);
  // Cache is large enough: the warm pass added no misses.
  EXPECT_EQ(stats.cache_misses(), misses_after_cold_pass);
  // The base device mirrors the hit/miss accounting.
  EXPECT_EQ(fx.device.stats().cache_hits(), stats.cache_hits());
  EXPECT_EQ(fx.device.stats().cache_misses(), stats.cache_misses());
}

TEST(TreeCacheTest, BloomSkipsAreCounted) {
  Options options = TinyOptions();
  options.cache_blocks = 256;
  options.bloom_bits_per_key = 10;
  TreeFixture fx(options, PolicyKind::kChooseBest);
  for (Key k = 1; k <= 600; ++k) ASSERT_TRUE(fx.Put(k * 2).ok());
  ASSERT_GT(fx.tree->num_levels(), 1u);
  for (Key k = 1; k <= 600; ++k) {
    auto miss = fx.tree->Get(k * 2 + 1);  // All absent (odd keys).
    EXPECT_TRUE(miss.status().IsNotFound());
  }
  EXPECT_GT(fx.tree->device()->stats().bloom_skips(), 0u);
}

TEST(TreeCacheTest, WriteCountsUnchangedByCache) {
  Options cached_options = TinyOptions();
  cached_options.cache_blocks = 128;
  TreeFixture with_cache(cached_options, PolicyKind::kChooseBest);
  TreeFixture without_cache(TinyOptions(), PolicyKind::kChooseBest);

  for (Key k = 1; k <= 1500; ++k) {
    ASSERT_TRUE(with_cache.Put(k * 7).ok());
    ASSERT_TRUE(without_cache.Put(k * 7).ok());
    if (k % 5 == 0) {
      // Interleave reads so the cache is actually exercised.
      ASSERT_TRUE(with_cache.tree->Get(k * 7).ok());
    }
  }

  // The paper's headline metric is identical with and without the cache;
  // the tree-owned wrapper also mirrors the base device's write counts.
  EXPECT_EQ(with_cache.device.stats().block_writes(),
            without_cache.device.stats().block_writes());
  EXPECT_EQ(with_cache.tree->device()->stats().block_writes(),
            with_cache.device.stats().block_writes());
  EXPECT_EQ(with_cache.tree->device()->stats().block_allocs(),
            with_cache.device.stats().block_allocs());
  EXPECT_EQ(with_cache.tree->device()->stats().block_frees(),
            with_cache.device.stats().block_frees());
}

TEST(TreeCacheTest, ReReadHotBlocksSurviveMergeWriteThrough) {
  // Merge resistance: blocks read twice sit in the cache's protected
  // segment, so a merge writing more than `capacity` new blocks
  // write-through (each a one-touch probation entry) does not evict them.
  Options options = TinyOptions();
  options.cache_blocks = 32;
  TreeFixture fx(options, PolicyKind::kChooseBest);
  for (Key k = 1; k <= 600; ++k) ASSERT_TRUE(fx.Put(k).ok());
  ASSERT_GT(fx.tree->num_levels(), 2u);

  const std::vector<Key> hot = {50, 150, 250, 350, 450};
  for (int pass = 0; pass < 2; ++pass) {
    for (Key k : hot) ASSERT_TRUE(fx.tree->Get(k).ok());
  }
  const IoStats& stats = fx.tree->device()->stats();
  const uint64_t writes0 = stats.block_writes();

  // New keys far above the hot ones, so merges rewrite only their own
  // range, until the merges have written three cachefuls of blocks.
  Key next = 1'000'000;
  while (stats.block_writes() - writes0 <= 3 * options.cache_blocks) {
    ASSERT_TRUE(fx.Put(next++).ok());
  }
  const uint64_t misses = stats.cache_misses();
  const uint64_t hits = stats.cache_hits();
  for (Key k : hot) ASSERT_TRUE(fx.tree->Get(k).ok());
  EXPECT_EQ(stats.cache_misses(), misses);
  // Under a plain LRU every one of these reads misses.
  EXPECT_GE(stats.cache_hits() - hits, hot.size());
}

TEST(TreeCacheTest, MergeFreesInvalidateCachedBlocks) {
  Options options = TinyOptions();
  options.cache_blocks = 1024;  // Nothing is ever evicted for capacity.
  TreeFixture fx(options, PolicyKind::kChooseBest);
  std::map<Key, std::string> reference;

  auto live_blocks = [&] {
    std::set<BlockId> live;
    for (size_t i = 1; i < fx.tree->num_levels(); ++i) {
      for (const LeafMeta& m : fx.tree->level(i).leaves()) {
        live.insert(m.block);
      }
    }
    return live;
  };

  // Phase 1: populate, then read everything so the cache holds the
  // current block set.
  for (Key k = 1; k <= 800; ++k) {
    const Key key = k * 11;
    ASSERT_TRUE(fx.Put(key).ok());
    reference[key] = MakePayload(fx.options_copy, key);
  }
  for (const auto& [key, payload] : reference) {
    auto got = fx.tree->Get(key);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.value(), payload);
  }
  const std::set<BlockId> before = live_blocks();

  // Phase 2: more writes cascade merges that free many phase-1 blocks.
  for (Key k = 1; k <= 800; ++k) {
    const Key key = k * 11 + 5;
    ASSERT_TRUE(fx.Put(key).ok());
    reference[key] = MakePayload(fx.options_copy, key);
  }
  const std::set<BlockId> after = live_blocks();

  // Freed blocks must be gone from the cache: a read through the cached
  // device is NotFound, never a stale image.
  size_t freed = 0;
  for (BlockId id : before) {
    if (after.contains(id)) continue;
    ++freed;
    auto stale = fx.tree->device()->ReadBlockShared(id);
    EXPECT_TRUE(stale.status().IsNotFound()) << "stale block " << id;
  }
  EXPECT_GT(freed, 0u) << "workload did not exercise merge frees";

  // And every logical read still resolves correctly through the cache.
  for (const auto& [key, payload] : reference) {
    auto got = fx.tree->Get(key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), payload);
  }
}

}  // namespace
}  // namespace lsmssd
