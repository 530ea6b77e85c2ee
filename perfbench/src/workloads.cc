#include "workloads.h"

namespace perfbench {

lsmssd::Options TreeOptions() {
  lsmssd::Options o;
  o.block_size = 1024;
  o.key_size = 4;
  o.payload_size = 40;
  o.level0_capacity_blocks = 25;
  o.gamma = 10.0;
  o.epsilon = 0.2;
  o.delta = 0.07;
  o.preserve_blocks = true;
  o.annihilate_delete_put = false;  // Db rejects it; the stream would too.
  o.cache_blocks = kCacheBlocks;
  o.bloom_bits_per_key = 10;
  return o;
}

lsmssd::DbOptions BenchDbOptions() {
  lsmssd::DbOptions d;
  d.options = TreeOptions();
  d.background_compaction = true;
  d.compaction_workers = 1;
  d.wal_sync_mode = lsmssd::WalSyncMode::kEveryN;
  d.wal_sync_every_n = 64;
  d.scrub_interval_ms = 0;
  d.shards = 1;
  return d;
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  // Offered rates are constants, set once from the closed-loop
  // peak_ops_per_s measured when this benchmark was written (4-CPU x86-64
  // VM, ext4): about 15% of it on read-zipf and 9% on the other two, where
  // WAL fsyncs already load the host. They are never derived per run, so
  // both sides of a comparison face the same load.
  static const std::vector<WorkloadSpec> kWorkloads = {
      // YCSB-C over ~9k blocks, about nine times the cache.
      {"read-zipf", WorkloadSpec::Kind::kYcsb, 'c', 200'000, 120'000, 10'000,
       true},
      // The paper's Normal(0.5%, 10k) 50/50 insert/delete mix, preloaded to
      // three on-SSD levels.
      {"write-steady", WorkloadSpec::Kind::kNormal, 0, 100'000, 100'000,
       5'000, false},
      // YCSB-A over ~800 blocks, inside the cache.
      {"mixed-a", WorkloadSpec::Kind::kYcsb, 'a', 15'000, 100'000, 5'000,
       true},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

OpSource::OpSource(const WorkloadSpec& spec, uint64_t seed) : spec_(spec) {
  if (spec.kind == WorkloadSpec::Kind::kYcsb) {
    lsmssd::YcsbConfig c;
    c.workload = spec.ycsb_letter;
    c.initial_records = spec.records;
    c.seed = seed;
    ycsb_ = std::make_unique<lsmssd::YcsbWorkload>(c);
  } else {
    lsmssd::NormalWorkload::Params p;
    p.key_max = 1'000'000'000;  // fits the 4-byte keys
    p.seed = seed;
    normal_ = std::make_unique<lsmssd::NormalWorkload>(p);
  }
}

std::vector<Op> OpSource::Preload() {
  std::vector<Op> ops;
  ops.reserve(spec_.records);
  if (ycsb_) {
    for (uint64_t i = 0; i < spec_.records; ++i) {
      ops.push_back(Op{ycsb_->KeyForIndex(i), next_version_++, OpType::kPut});
    }
    return ops;
  }
  normal_->set_insert_ratio(1.0);
  for (uint64_t i = 0; i < spec_.records; ++i) {
    ops.push_back(Op{normal_->Next().key, next_version_++, OpType::kPut});
  }
  normal_->set_insert_ratio(0.5);
  return ops;
}

std::vector<Op> OpSource::Next(uint64_t n) {
  std::vector<Op> ops;
  ops.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (ycsb_) {
      const lsmssd::YcsbRequest r = ycsb_->Next();
      if (r.op == lsmssd::YcsbRequest::Op::kRead) {
        ops.push_back(Op{r.key, next_version_++, OpType::kGet});
      } else {
        ops.push_back(Op{r.key, next_version_++, OpType::kPut});
      }
    } else {
      const lsmssd::WorkloadRequest r = normal_->Next();
      const OpType t = r.kind == lsmssd::WorkloadRequest::Kind::kInsert
                           ? OpType::kPut
                           : OpType::kDelete;
      ops.push_back(Op{r.key, next_version_++, t});
    }
  }
  return ops;
}

}  // namespace perfbench
