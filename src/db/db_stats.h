#ifndef LSMSSD_DB_DB_STATS_H_
#define LSMSSD_DB_DB_STATS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/storage/block.h"
#include "src/storage/io_stats.h"
#include "src/util/histogram.h"

namespace lsmssd {

/// Counters surfaced by Db::Stats().
struct DbStats {
  IoStats io;  ///< Physical device accounting (incl. cache/bloom counters).
  uint64_t wal_entries_appended = 0;  ///< Since this Db was opened.
  uint64_t wal_bytes_appended = 0;    ///< Framed bytes, since open.
  uint64_t wal_syncs = 0;             ///< Successful explicit WAL fsyncs.
  uint64_t checkpoints = 0;           ///< Checkpoints taken since open.
  uint64_t recovery_wal_entries_replayed = 0;  ///< Replayed during Open.
  uint64_t recovery_manifest_blocks = 0;  ///< Blocks restored from manifest.
  uint64_t deferred_frees = 0;  ///< Blocks pinned for recovery, free deferred.

  /// Block ids that failed checksum verification (on a read or a scrub),
  /// sorted. A quarantined block keeps returning Corruption on every
  /// access; it leaves the set only when a merge/compaction frees it.
  std::vector<BlockId> quarantined_blocks;
  uint64_t scrub_blocks_verified = 0;   ///< Clean verdicts, since open.
  uint64_t scrub_corruptions_found = 0; ///< Corrupt verdicts, since open.
  /// Put/Delete calls that returned ResourceExhausted because the device
  /// hit max_device_blocks (the op itself is logged and applied; only the
  /// triggered merge was rolled back).
  uint64_t write_backpressure_events = 0;

  // Background compaction (all zero when background_compaction is off).
  uint64_t memtables_sealed = 0;     ///< Active memtables moved to the queue.
  uint64_t background_flushes = 0;   ///< Worker steps draining a sealed memtable.
  uint64_t background_merges = 0;    ///< Worker steps merging an on-SSD level.
  uint64_t compaction_queue_depth = 0;  ///< Sealed memtables queued right now.
  uint64_t compaction_micros = 0;    ///< Worker wall time inside merge steps.
  uint64_t throttle_events = 0;      ///< Ops delayed by the soft slowdown.
  uint64_t throttle_micros = 0;
  uint64_t stall_events = 0;         ///< Ops that hit the hard queue-full stall.
  uint64_t stall_micros = 0;
  /// Per-op hard-stall wait times in microseconds (only stalled ops are
  /// recorded; an empty histogram means no writer ever hit the wall). For
  /// a sharded Db this is the *merge* of every shard's histogram
  /// (LatencyHistogram::Merge), not one shard's view.
  LatencyHistogram stall_latency;

  // Sharding (see DbOptions::shards; both trivial when unsharded).
  uint64_t shards = 1;         ///< Shard count behind this facade.
  uint64_t arbiter_seals = 0;  ///< Early seals forced by the memory arbiter.

  // Value log (all zero when key–value separation is off; the ToString
  // summary omits the vlog line entirely in that case).
  uint64_t vlog_segments = 0;         ///< Segments in [tail, head] right now.
  uint64_t vlog_bytes_appended = 0;   ///< Entry bytes appended since open.
  uint64_t vlog_gc_rewrites = 0;      ///< Live entries GC re-appended.
  uint64_t vlog_segments_reclaimed = 0;  ///< Segments GC deleted since open.
  uint64_t vlog_quarantined_entries = 0; ///< Entries failing checksum reads.

  /// One row per scalar above: STATS key, member, and the ToString()
  /// line (`group`) and key (`label`, if not `name`) it prints under; a
  /// scalar with no group is on a hand-written line. The table is in
  /// db.cc: a new counter is a member plus one row.
  struct Field {
    const char* name;
    uint64_t DbStats::*member;
    const char* group = nullptr;
    const char* label = nullptr;
  };
  static std::span<const Field> Fields();

  /// Multi-line human-readable summary (CLI stats line).
  std::string ToString() const;
};

}  // namespace lsmssd

#endif  // LSMSSD_DB_DB_STATS_H_
