#ifndef LSMSSD_STORAGE_LRU_CACHE_H_
#define LSMSSD_STORAGE_LRU_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/storage/block.h"
#include "src/storage/block_device.h"

namespace lsmssd {

/// Block-granular segmented LRU (SLRU) cache with pin support. Mirrors the
/// paper's setup (Section V): in addition to the memory-resident L0, a
/// buffer cache holds data blocks; for partial-merge policies the internal
/// index is pinned (we keep leaf directories in memory outright, so pinning
/// here is only exercised by tests and by callers caching hot data blocks).
///
/// Entries live in one of two LRU lists:
///  - probation: every new entry, whether a write-through block or a fill
///    after a miss;
///  - protected: entries hit at least once since they entered the cache,
///    capped at kProtectedShare of the capacity.
/// A hit in probation moves the entry to the head of protected; if that
/// overfills protected, protected's tail is demoted to the head of
/// probation (not evicted). Eviction takes probation's least recently used
/// unpinned entry, so a stream of one-touch fills (a scan, a merge's
/// write-through output) cannot push out blocks that have been re-read.
/// Within each segment the order is LRU, hence the name.
///
/// Thread-safe: every operation (including a Get, which reorders the
/// lists) runs under an internal mutex, so concurrent Db readers holding
/// the tree's shared lock may hit the cache simultaneously.
class LruCache {
 public:
  /// `capacity_blocks` = 0 disables caching entirely.
  explicit LruCache(size_t capacity_blocks);

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Share of the capacity the protected segment may hold: the usual SLRU
  /// split (Caffeine's main region uses the same 80%).
  static constexpr double kProtectedShare = 0.8;

  /// Returns the cached contents of `id`, or nullptr on miss. A hit moves
  /// the entry to the head of the protected segment.
  std::shared_ptr<const BlockData> Get(BlockId id);

  /// Inserts `id` at the head of probation and, if the cache is then over
  /// capacity, evicts probation's least recently used unpinned entry (the
  /// new entry itself when every older one there is pinned). Putting an id
  /// already cached replaces its data and moves it to the head of its own
  /// segment; that is not a hit and does not promote it.
  void Put(BlockId id, BlockData data);

  /// Same, but adopts an already-shared block image without copying it
  /// (the zero-copy read path inserts device images directly).
  void Put(BlockId id, std::shared_ptr<const BlockData> data);

  /// Drops `id` if present (pinned or not), from either segment. Called
  /// when a block is freed.
  void Erase(BlockId id);

  /// Pins `id` so it cannot be evicted; no-op if absent. Returns true if
  /// the block was present (and is now pinned).
  bool Pin(BlockId id);
  /// Removes the pin; no-op if absent or unpinned.
  void Unpin(BlockId id);

  /// Drops every entry *and* resets the hit/miss counters: a cleared
  /// cache starts a fresh accounting epoch (hit rates measured across a
  /// Clear() — e.g. across a reopen/restore — would be meaningless).
  void Clear();

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }
  size_t capacity() const { return capacity_; }
  /// Entries currently in the protected segment (at most protected_cap()).
  size_t protected_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return protected_.size();
  }
  size_t protected_cap() const { return protected_cap_; }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  struct Entry {
    BlockId id;
    std::shared_ptr<const BlockData> data;
    bool pinned = false;
    bool in_protected = false;
  };
  using EntryList = std::list<Entry>;

  // Both require mu_ held.
  EntryList& SegmentOf(const Entry& e) {
    return e.in_protected ? protected_ : probation_;
  }
  void EvictIfNeeded();

  mutable std::mutex mu_;
  const size_t capacity_;
  const size_t protected_cap_;
  // Front = most recently used within the segment.
  EntryList probation_;
  EntryList protected_;
  std::unordered_map<BlockId, EntryList::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// BlockDevice decorator that serves reads from an LruCache and forwards
/// everything to the wrapped device. Writes are write-through (every block
/// write reaches the device and its IoStats — the paper's write counts are
/// never absorbed by caching). Cache hits are recorded as cached reads on
/// the underlying device's stats.
class CachedBlockDevice : public BlockDevice {
 public:
  /// `base` must outlive this object.
  CachedBlockDevice(BlockDevice* base, size_t cache_capacity_blocks);

  size_t block_size() const override { return base_->block_size(); }
  StatusOr<BlockId> WriteNewBlock(const BlockData& data) override;
  /// Forwards the whole batch to the base device (so slot coalescing and
  /// batch counters happen there), then write-through caches every block.
  Status WriteBlocks(const std::vector<BlockData>& blocks,
                     std::vector<BlockId>* ids) override;
  Status ReadBlock(BlockId id, BlockData* out) override;
  /// Zero-copy: a hit returns the cached image itself; a miss forwards to
  /// the base device's shared read and caches the resulting image, so the
  /// cache and every outstanding reader share one allocation per block.
  StatusOr<std::shared_ptr<const BlockData>> ReadBlockShared(
      BlockId id) override;
  /// Serves hits from the cache and batch-reads only the misses from the
  /// base device, preserving its coalescing for the cold subset.
  Status ReadBlocks(const std::vector<BlockId>& ids,
                    std::vector<BlockData>* out) override;
  Status FreeBlock(BlockId id) override;
  /// Bypasses the cache: scrubbing must check the backing copy, not a
  /// (necessarily valid) cached image.
  Status VerifyBlock(BlockId id) override;
  /// Forwards the corruption seam and drops any cached copy, so the next
  /// read observes the damaged backing block.
  Status CorruptBlockForTesting(BlockId id, const BlockData& data) override;
  Status ReadBlockUnverifiedForTesting(BlockId id, BlockData* out) override {
    return base_->ReadBlockUnverifiedForTesting(id, out);
  }
  Status Flush() override { return base_->Flush(); }
  uint64_t live_blocks() const override { return base_->live_blocks(); }

  LruCache& cache() { return cache_; }
  BlockDevice* base() { return base_; }

 private:
  BlockDevice* base_;
  LruCache cache_;
};

}  // namespace lsmssd

#endif  // LSMSSD_STORAGE_LRU_CACHE_H_
