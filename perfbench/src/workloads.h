// The benchmark's fixed configuration and its three workloads: what each
// preloads and the request stream it sends, generated from the seed alone.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "model.h"
#include "src/db/db.h"
#include "src/workload/normal_workload.h"
#include "src/workload/ycsb.h"

namespace perfbench {

/// Block-cache capacity of every run, in 1 KiB blocks.
inline constexpr size_t kCacheBlocks = 1024;

/// The tree every run uses: the paper's bench shape (1 KiB blocks, 40 B
/// payloads so B = 22, K0 = 25 blocks, Gamma = 10, epsilon = 0.2,
/// delta = 0.07, block-preserving merges) plus the cache and 10 bloom
/// bits per key.
lsmssd::Options TreeOptions();

/// The Db every run opens: TreeOptions, background compaction with one
/// worker, WAL group commit every 64 appends, default checkpoints, no
/// scrub, one shard.
lsmssd::DbOptions BenchDbOptions();

struct WorkloadSpec {
  const char* name;
  enum class Kind { kYcsb, kNormal } kind;
  char ycsb_letter;      ///< kYcsb: 'c' (read only) or 'a' (50/50).
  uint64_t records;      ///< Preloaded before the run.
  uint64_t peak_ops;     ///< Closed-loop phase length.
  double rate;           ///< Open-loop offered rate, requests per second.
  bool reads_primary;    ///< End-to-end latency covers GETs (else writes).
};

const WorkloadSpec* FindWorkload(std::string_view name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// Deterministic op stream of one workload and seed. Every op gets the next
/// version, so (key, version) names each write uniquely.
class OpSource {
 public:
  OpSource(const WorkloadSpec& spec, uint64_t seed);

  /// The preload: `spec.records` inserts.
  std::vector<Op> Preload();
  /// The next `n` requests of the stream.
  std::vector<Op> Next(uint64_t n);

 private:
  const WorkloadSpec& spec_;
  uint64_t next_version_ = 1;
  std::unique_ptr<lsmssd::YcsbWorkload> ycsb_;
  std::unique_ptr<lsmssd::NormalWorkload> normal_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
