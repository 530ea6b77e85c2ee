// Golden renderings of the stats dumps. IoStats::ToString and
// DbStats::ToString are read by people and by scripts that grep them, so
// their exact bytes are pinned here: every counter holds a distinct value,
// so a counter printed under the wrong label, in the wrong order, or not
// at all changes the string.

#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "src/db/db.h"
#include "src/storage/io_stats.h"

namespace lsmssd {
namespace {

void Repeat(int n, const std::function<void()>& f) {
  for (int i = 0; i < n; ++i) f();
}

/// Every IoStats counter distinct: 11..20 for the single-tick counters,
/// 3 and 2 batches moving 21 and 22 blocks.
IoStats DistinctIoStats() {
  IoStats io;
  Repeat(11, [&] { io.RecordWrite(); });
  Repeat(12, [&] { io.RecordRead(); });
  Repeat(13, [&] { io.RecordCachedRead(); });
  Repeat(14, [&] { io.RecordFree(); });
  Repeat(15, [&] { io.RecordAllocate(); });
  Repeat(16, [&] { io.RecordCacheHit(); });
  Repeat(17, [&] { io.RecordCacheMiss(); });
  Repeat(18, [&] { io.RecordBloomSkip(); });
  Repeat(19, [&] { io.RecordWriteSyscall(); });
  Repeat(20, [&] { io.RecordReadSyscall(); });
  Repeat(3, [&] { io.RecordBatchWrite(7); });
  Repeat(2, [&] { io.RecordBatchRead(11); });
  return io;
}

TEST(IoStatsGoldenTest, EmptyKeepsThePaperEraFormat) {
  EXPECT_EQ(IoStats().ToString(),
            "writes=0 reads=0 cached_reads=0 allocs=0 frees=0");
}

TEST(IoStatsGoldenTest, EveryCounterDistinct) {
  EXPECT_EQ(DistinctIoStats().ToString(),
            "writes=11 reads=12 cached_reads=13 allocs=15 frees=14 "
            "cache_hits=16 cache_misses=17 bloom_skips=18 "
            "write_syscalls=19 read_syscalls=20 batch_writes=3 "
            "batched_blocks_written=21 batch_reads=2 batched_blocks_read=22");
}

TEST(IoStatsGoldenTest, SyscallGroupWithoutCacheGroup) {
  IoStats io;
  io.RecordWrite();
  io.RecordWriteSyscall();
  EXPECT_EQ(io.ToString(),
            "writes=1 reads=0 cached_reads=0 allocs=0 frees=0 "
            "write_syscalls=1 read_syscalls=0 batch_writes=0 "
            "batched_blocks_written=0 batch_reads=0 batched_blocks_read=0");
}

TEST(IoStatsGoldenTest, CacheGroupWithoutSyscallGroup) {
  IoStats io;
  io.RecordRead();
  io.RecordBloomSkip();
  EXPECT_EQ(io.ToString(),
            "writes=0 reads=1 cached_reads=0 allocs=0 frees=0 "
            "cache_hits=0 cache_misses=0 bloom_skips=1");
}

TEST(DbStatsGoldenTest, DefaultSingleShardWithoutVlog) {
  EXPECT_EQ(DbStats().ToString(),
            "io: writes=0 reads=0 cached_reads=0 allocs=0 frees=0\n"
            "wal: entries=0 bytes=0 syncs=0\n"
            "checkpoints: 0 (deferred frees pending: 0)\n"
            "recovery: manifest_blocks=0 wal_entries_replayed=0\n"
            "integrity: quarantined=0 scrub_verified=0 scrub_corruptions=0 "
            "backpressure_events=0\n"
            "compaction: sealed=0 bg_flushes=0 bg_merges=0 queue_depth=0 "
            "compaction_micros=0 throttle_events=0 throttle_micros=0 "
            "stall_events=0 stall_micros=0\n"
            "stall_latency_us: count=0 mean=0 p50=0 p95=0 p99=0 max=0\n");
}

TEST(DbStatsGoldenTest, EveryFieldDistinct) {
  DbStats s;
  s.io = DistinctIoStats();
  s.wal_entries_appended = 101;
  s.wal_bytes_appended = 102;
  s.wal_syncs = 103;
  s.checkpoints = 104;
  s.recovery_wal_entries_replayed = 105;
  s.recovery_manifest_blocks = 106;
  s.deferred_frees = 107;
  s.quarantined_blocks = {40, 41, 42, 43};
  s.scrub_blocks_verified = 108;
  s.scrub_corruptions_found = 109;
  s.write_backpressure_events = 110;
  s.memtables_sealed = 111;
  s.background_flushes = 112;
  s.background_merges = 113;
  s.compaction_queue_depth = 114;
  s.compaction_micros = 115;
  s.throttle_events = 116;
  s.throttle_micros = 117;
  s.stall_events = 118;
  s.stall_micros = 119;
  s.stall_latency.Add(5);
  s.stall_latency.Add(50);
  s.stall_latency.Add(500);
  s.shards = 4;
  s.arbiter_seals = 120;
  s.vlog_segments = 121;
  s.vlog_bytes_appended = 122;
  s.vlog_gc_rewrites = 123;
  s.vlog_segments_reclaimed = 124;
  s.vlog_quarantined_entries = 125;
  EXPECT_EQ(s.ToString(),
            "shards: 4 arbiter_seals=120\n"
            "io: writes=11 reads=12 cached_reads=13 allocs=15 frees=14 "
            "cache_hits=16 cache_misses=17 bloom_skips=18 "
            "write_syscalls=19 read_syscalls=20 batch_writes=3 "
            "batched_blocks_written=21 batch_reads=2 batched_blocks_read=22\n"
            "wal: entries=101 bytes=102 syncs=103\n"
            "checkpoints: 104 (deferred frees pending: 107)\n"
            "recovery: manifest_blocks=106 wal_entries_replayed=105\n"
            "integrity: quarantined=4 scrub_verified=108 scrub_corruptions=109 "
            "backpressure_events=110\n"
            "vlog: segments=121 bytes_appended=122 gc_rewrites=123 "
            "reclaimed=124 quarantined_entries=125\n"
            "compaction: sealed=111 bg_flushes=112 bg_merges=113 "
            "queue_depth=114 compaction_micros=115 throttle_events=116 "
            "throttle_micros=117 stall_events=118 stall_micros=119\n"
            "stall_latency_us: count=3 mean=185 p50=50 p95=500 p99=500 "
            "max=500\n");
}

}  // namespace
}  // namespace lsmssd
